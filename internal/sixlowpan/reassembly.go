package sixlowpan

import (
	"bytes"
	"cmp"
	"slices"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// DefaultReassemblyTimeout bounds how long a partial datagram may wait
// for its missing fragments.
const DefaultReassemblyTimeout = 10 * sim.Second

type partialKey struct {
	src phy.Addr
	tag uint16
}

type partial struct {
	header   *ip6.Header // from FRAG1, nil until it arrives
	size     int         // uncompressed datagram size
	payload  []byte      // size-40 bytes
	have     []bool      // per-byte coverage of payload
	covered  int
	deadline sim.Time
	jid      int64 // journey packet id carried by the fragments (0 = untagged)
}

// Reassembler rebuilds IPv6 packets from 6LoWPAN link payloads. One
// instance serves one interface; partial datagrams are keyed by
// (link-layer source, datagram tag).
type Reassembler struct {
	eng      *sim.Engine
	timeout  sim.Duration
	inflight map[partialKey]*partial

	// Free lists: partial descriptors and have bitmaps recycle on both
	// the completion and expiry paths; payload buffers only on expiry
	// (a completed payload escapes into the returned ip6.Packet).
	freePartial []*partial
	freeHave    [][]bool
	freeBuf     [][]byte
	// expired is expire's reusable scratch list of timed-out keys.
	expired []partialKey

	// TimedOut counts datagrams dropped for missing fragments.
	TimedOut uint64

	// Trace/Node, when Trace is non-nil, emit reassembly events (obs).
	Trace *obs.Trace
	Node  int
}

// NewReassembler returns a reassembler with the default timeout.
func NewReassembler(eng *sim.Engine) *Reassembler {
	r := &Reassembler{
		eng:      eng,
		timeout:  DefaultReassemblyTimeout,
		inflight: map[partialKey]*partial{},
	}
	return r
}

// SetTimeout overrides the reassembly timeout.
func (r *Reassembler) SetTimeout(d sim.Duration) { r.timeout = d }

// Pending returns the number of partially reassembled datagrams.
func (r *Reassembler) Pending() int {
	r.expire()
	return len(r.inflight)
}

// expire drops every partial datagram past its deadline. Map iteration
// order is random, so the timed-out keys are sorted by (deadline,
// source, tag) first: the FragTimeout events and the order buffers
// return to the free lists are then the same on every run.
func (r *Reassembler) expire() {
	now := r.eng.Now()
	exp := r.expired[:0]
	for k, p := range r.inflight {
		if now >= p.deadline {
			exp = append(exp, k)
		}
	}
	slices.SortFunc(exp, func(a, b partialKey) int {
		if c := cmp.Compare(r.inflight[a].deadline, r.inflight[b].deadline); c != 0 {
			return c
		}
		if c := bytes.Compare(a.src[:], b.src[:]); c != 0 {
			return c
		}
		return cmp.Compare(a.tag, b.tag)
	})
	for _, k := range exp {
		p := r.inflight[k]
		delete(r.inflight, k)
		r.TimedOut++
		if tr := r.Trace; tr != nil {
			tr.Emit(obs.Event{T: now, Kind: obs.FragTimeout, Node: r.Node, A: int64(k.tag), J: p.jid, Cause: obs.CauseReassemblyTimeout})
		}
		r.release(p, true)
	}
	r.expired = exp[:0]
}

// popPartial recycles a partial descriptor (or allocates one).
func (r *Reassembler) popPartial() *partial {
	if n := len(r.freePartial); n > 0 {
		p := r.freePartial[n-1]
		r.freePartial[n-1] = nil
		r.freePartial = r.freePartial[:n-1]
		return p
	}
	return &partial{}
}

// getBuf returns an n-byte payload buffer (contents undefined; deposit
// overwrites every byte it credits as covered).
func (r *Reassembler) getBuf(n int) []byte {
	if ln := len(r.freeBuf); ln > 0 {
		b := r.freeBuf[ln-1]
		r.freeBuf[ln-1] = nil
		r.freeBuf = r.freeBuf[:ln-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// getHave returns an n-entry coverage bitmap, zeroed.
func (r *Reassembler) getHave(n int) []bool {
	if ln := len(r.freeHave); ln > 0 {
		h := r.freeHave[ln-1]
		r.freeHave[ln-1] = nil
		r.freeHave = r.freeHave[:ln-1]
		if cap(h) >= n {
			h = h[:n]
			for i := range h {
				h[i] = false
			}
			return h
		}
	}
	return make([]bool, n)
}

// release returns a partial's storage to the free lists. withPayload is
// false on the completion path, where the payload escapes into the
// returned ip6.Packet.
func (r *Reassembler) release(p *partial, withPayload bool) {
	if withPayload && cap(p.payload) > 0 {
		r.freeBuf = append(r.freeBuf, p.payload)
	}
	if cap(p.have) > 0 {
		r.freeHave = append(r.freeHave, p.have)
	}
	*p = partial{}
	r.freePartial = append(r.freePartial, p)
}

// Input processes one link payload from src. When a datagram completes,
// the reassembled packet is returned. A nil packet with nil error means
// "more fragments needed" (or an unrelated dispatch, which is dropped).
// jid is the journey packet id the carrying frame was tagged with
// (0 = untagged); it is threaded onto the reassembled packet.
func (r *Reassembler) Input(src phy.Addr, b []byte, jid int64) (*ip6.Packet, error) {
	r.expire()
	switch Classify(b) {
	case KindUnfragmented:
		h, n, err := DecompressHeader(b)
		if err != nil {
			return nil, err
		}
		pkt := &ip6.Packet{Header: *h, Payload: append([]byte(nil), b[n:]...)}
		pkt.PayloadLen = uint16(len(pkt.Payload))
		pkt.JID = jid
		return pkt, nil

	case KindFrag1:
		fi, err := ParseFragment(b)
		if err != nil {
			return nil, err
		}
		h, n, err := DecompressHeader(b[fi.HeaderLen:])
		if err != nil {
			return nil, err
		}
		p := r.get(src, fi)
		p.header = h
		if jid != 0 {
			p.jid = jid
		}
		return r.deposit(src, fi, p, 0, b[fi.HeaderLen+n:])

	case KindFragN:
		fi, err := ParseFragment(b)
		if err != nil {
			return nil, err
		}
		if fi.Offset < 40 || fi.Offset > int(fi.DatagramSize) {
			return nil, ErrBadOffset
		}
		p := r.get(src, fi)
		if jid != 0 {
			p.jid = jid
		}
		return r.deposit(src, fi, p, fi.Offset-40, b[fi.HeaderLen:])
	}
	return nil, nil
}

func (r *Reassembler) get(src phy.Addr, fi FragInfo) *partial {
	k := partialKey{src: src, tag: fi.Tag}
	p := r.inflight[k]
	if p == nil || p.size != int(fi.DatagramSize) {
		if p != nil {
			r.release(p, true)
		}
		p = r.popPartial()
		p.size = int(fi.DatagramSize)
		p.payload = r.getBuf(int(fi.DatagramSize) - 40)
		p.have = r.getHave(int(fi.DatagramSize) - 40)
		r.inflight[k] = p
	}
	p.deadline = r.eng.Now().Add(r.timeout)
	return p
}

func (r *Reassembler) deposit(src phy.Addr, fi FragInfo, p *partial, off int, data []byte) (*ip6.Packet, error) {
	if off+len(data) > len(p.payload) {
		return nil, ErrBadOffset
	}
	for i, c := range data {
		if !p.have[off+i] {
			p.have[off+i] = true
			p.covered++
		}
		p.payload[off+i] = c
	}
	if p.covered < len(p.payload) || p.header == nil {
		return nil, nil
	}
	delete(r.inflight, partialKey{src: src, tag: fi.Tag})
	pkt := &ip6.Packet{Header: *p.header, Payload: p.payload}
	pkt.PayloadLen = uint16(len(pkt.Payload))
	pkt.JID = p.jid
	if tr := r.Trace; tr != nil {
		tr.Emit(obs.Event{T: r.eng.Now(), Kind: obs.FragReassembled, Node: r.Node, A: int64(fi.Tag), Len: p.size, J: p.jid})
	}
	r.release(p, false)
	return pkt, nil
}
