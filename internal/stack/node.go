// Package stack composes the full per-node network stack — radio, MAC,
// 6LoWPAN, IPv6 forwarding, TCP, UDP — and builds whole simulated
// networks: the mesh, its border router, and the wired cloud host behind
// it (the §5 experimental setup of Fig. 2/3).
package stack

import (
	"tcplp/internal/energy"
	"tcplp/internal/ip6"
	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/tcplp"
	"tcplp/internal/udp"
)

// ForwardingMode selects how relays handle 6LoWPAN fragments.
type ForwardingMode int

// Forwarding modes.
const (
	// FragmentForwarding relays individual fragments toward the
	// destination with end-to-end reassembly — OpenThread's behaviour and
	// the paper's default.
	FragmentForwarding ForwardingMode = iota
	// HopByHopReassembly reassembles whole IPv6 packets at every relay —
	// the modification Appendix A needed for RED/ECN.
	HopByHopReassembly
)

// NodeStats counts IP-layer events at one node.
type NodeStats struct {
	PacketsSent      uint64 // locally originated datagrams
	PacketsDelivered uint64 // datagrams delivered to local transports
	FragmentsFwd     uint64 // fragments relayed (fragment forwarding)
	PacketsFwd       uint64 // packets relayed (hop-by-hop mode / border)
	QueueDrops       uint64 // tail drops at the datagram queue
	REDDrops         uint64
	REDMarks         uint64
	LinkFailures     uint64 // datagrams abandoned after link-layer failure
	HopLimitDrops    uint64
	BorderDrops      uint64 // packets removed by the injected-loss filter
}

type fwdKey struct {
	src phy.Addr
	tag uint16
}

type fwdEntry struct {
	next    phy.Addr
	newTag  uint16
	drop    bool
	expires sim.Time
}

type outItem struct {
	frames [][]byte
	next   phy.Addr
	idx    int
	jid    int64 // journey packet id of the datagram (0 = untagged)
}

// Node is one device: a mesh node with a radio, or the wired host (radio
// and MAC nil).
type Node struct {
	ID  int
	Net *Network

	Radio *phy.Radio
	Mac   *mac.Mac
	Sleep *mac.SleepController

	Addr ip6.Addr
	TCP  *tcplp.Stack
	UDP  *udp.Stack
	CPU  *energy.CPUMeter

	reasm *sixlowpan.Reassembler
	frag  sixlowpan.Fragmenter

	outQ    []*outItem
	sending bool
	// frameSentFn is frameSent bound on the first send, so handing a
	// frame to the MAC allocates no completion.
	frameSentFn func(mac.TxStatus)

	red      *mesh.RED
	fwdCache map[fwdKey]*fwdEntry

	wire *wireEnd

	// DropFilter, when set on the border router, removes packets
	// crossing between mesh and wire with the caller's probability
	// function — the §9.4 injected-loss mechanism.
	DropFilter func(pkt *ip6.Packet) bool

	Stats NodeStats
}

// LinkAddr returns the node's 802.15.4 address.
func (n *Node) LinkAddr() phy.Addr { return phy.AddrFromID(n.ID) }

// Eng returns the simulation engine.
func (n *Node) Eng() *sim.Engine { return n.Net.Eng }

// ---- transmit path ----

// SendPacket routes and transmits a locally originated IPv6 packet.
func (n *Node) SendPacket(pkt *ip6.Packet) {
	n.Stats.PacketsSent++
	n.route(pkt, false)
}

// route moves pkt one step: local delivery, onto the wire, or onto the
// radio toward the next hop. forwarded marks transit packets (hop-limit
// accounting and RED apply to those).
func (n *Node) route(pkt *ip6.Packet, forwarded bool) {
	if pkt.Dst == n.Addr {
		n.deliver(pkt)
		return
	}
	if forwarded {
		if pkt.HopLimit <= 1 {
			n.Stats.HopLimitDrops++
			n.emitIPDrop(pkt.JID, obs.CauseHopLimit, int64(pkt.HopLimit))
			return
		}
		pkt.HopLimit--
	}
	dstID, ok := pkt.Dst.ID()
	if !ok {
		n.emitIPDrop(pkt.JID, obs.CauseNoRoute, 0)
		return
	}
	// Toward the wired host (or from it): the border router bridges.
	if n.wire != nil && (n.Radio == nil || dstID == n.Net.hostID) {
		if n.Radio != nil { // we are the border router, egress to wire
			if n.dropAtBorder(pkt) {
				return
			}
		}
		n.wire.send(pkt)
		return
	}
	// Host-bound traffic inside the mesh routes toward the border router.
	target := dstID
	if dstID == n.Net.hostID {
		target = n.Net.borderID
	}
	next, ok := n.Net.Routes.NextHop(n.ID, target)
	if !ok {
		n.emitIPDrop(pkt.JID, obs.CauseNoRoute, 0)
		return
	}
	if forwarded && n.red != nil {
		switch n.red.OnArrival(len(n.outQ), pkt.ECN() == ip6.ECT0, n.Eng().Rand()) {
		case mesh.REDDrop:
			n.Stats.REDDrops++
			n.emitIPDrop(pkt.JID, obs.CauseRED, int64(len(n.outQ)))
			return
		case mesh.REDMark:
			n.Stats.REDMarks++
			pkt.SetECN(ip6.CE)
		}
	}
	chdr := sixlowpan.CompressHeader(&pkt.Header)
	frames := n.frag.Fragment(chdr, pkt.Payload, phy.MaxMACPayload)
	if tr := n.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.FragEmit, Node: n.ID,
			A: int64(len(frames)), Len: len(chdr) + len(pkt.Payload), J: pkt.JID})
	}
	n.enqueue(&outItem{frames: frames, next: phy.AddrFromID(next), jid: pkt.JID})
}

// emitIPDrop records a network-layer drop with its cause.
func (n *Node) emitIPDrop(jid int64, cause obs.Cause, a int64) {
	if tr := n.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.IPDrop, Node: n.ID, A: a, J: jid, Cause: cause})
	}
}

func (n *Node) dropAtBorder(pkt *ip6.Packet) bool {
	if n.DropFilter != nil && n.DropFilter(pkt) {
		n.Stats.BorderDrops++
		n.emitIPDrop(pkt.JID, obs.CauseBorderFilter, 0)
		return true
	}
	return false
}

func (n *Node) enqueue(it *outItem) {
	if len(n.outQ) >= n.Net.Opt.QueueCap {
		n.Stats.QueueDrops++
		if tr := n.Net.Opt.Trace; tr != nil {
			tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.QueueDrop, Node: n.ID, A: int64(len(n.outQ)), J: it.jid, Cause: obs.CauseQueueOverflow})
		}
		n.releaseFrames(it, it.idx)
		return
	}
	n.outQ = append(n.outQ, it)
	n.pump()
}

// releaseFrames recycles an item's fragment buffers from index from
// onward (the link layer copies each frame into its own wire buffer at
// load time, so a frame whose MAC callback has fired is no longer
// referenced).
func (n *Node) releaseFrames(it *outItem, from int) {
	for i := from; i < len(it.frames); i++ {
		n.frag.Release(it.frames[i])
		it.frames[i] = nil
	}
}

// pump drains the datagram queue one frame at a time; a link-layer
// failure abandons the rest of the datagram (the fragments would be
// useless, §6.1).
func (n *Node) pump() {
	if n.sending || len(n.outQ) == 0 {
		return
	}
	n.sending = true
	it := n.outQ[0]
	n.CPU.ChargeFrameTx()
	if n.frameSentFn == nil {
		n.frameSentFn = n.frameSent
	}
	n.Mac.SendJID(it.next, it.frames[it.idx], it.jid, n.frameSentFn)
}

// frameSent is the MAC completion for the frame in flight. n.sending
// keeps that frame at the head of outQ, at frames[idx], until it fires.
func (n *Node) frameSent(status mac.TxStatus) {
	it := n.outQ[0]
	if status != mac.TxOK {
		n.Stats.LinkFailures++
		// Abandoning the datagram: the sent frame and the never-sent
		// tail all go back to the pool.
		n.releaseFrames(it, it.idx)
		n.popAndContinue()
		return
	}
	n.frag.Release(it.frames[it.idx])
	it.frames[it.idx] = nil
	it.idx++
	if it.idx >= len(it.frames) {
		n.popAndContinue()
		return
	}
	n.sending = false
	n.pump()
}

func (n *Node) popAndContinue() {
	n.outQ = n.outQ[1:]
	n.sending = false
	n.pump()
}

// QueueLen returns the number of queued datagrams (RED input).
func (n *Node) QueueLen() int { return len(n.outQ) }

// ReassemblyTimeouts returns datagrams abandoned for missing fragments.
func (n *Node) ReassemblyTimeouts() uint64 { return n.reasm.TimedOut }

// LossEvents totals the ways this node loses whole datagrams: link-layer
// failures, queue overflows, RED drops, hop-limit expiry, and
// reassembly timeouts.
func (n *Node) LossEvents() uint64 {
	return n.Stats.LinkFailures + n.Stats.QueueDrops + n.Stats.REDDrops +
		n.Stats.HopLimitDrops + n.reasm.TimedOut
}

// ---- receive path ----

func (n *Node) onFrame(f *phy.Frame) {
	n.CPU.ChargeFrameRx()
	if n.Sleep != nil {
		n.Sleep.FrameDelivered(f.FramePending)
	}
	payload := f.Payload
	if len(payload) == 0 {
		return
	}
	if n.Net.Opt.Mode == FragmentForwarding {
		if n.tryForwardFragment(f.Src, payload, f.J) {
			return
		}
	}
	pkt, err := n.reasm.Input(f.Src, payload, f.J)
	if err != nil || pkt == nil {
		return
	}
	if pkt.Dst == n.Addr || (n.wire != nil && n.isHostBound(pkt)) {
		if pkt.Dst != n.Addr {
			// Border router: reassembled uplink packet headed for the
			// host crosses the wire as a whole IPv6 packet.
			n.Stats.PacketsFwd++
			n.route(pkt, true)
			return
		}
		n.deliver(pkt)
		return
	}
	// Hop-by-hop relay of a complete packet.
	n.Stats.PacketsFwd++
	n.route(pkt, true)
}

func (n *Node) isHostBound(pkt *ip6.Packet) bool {
	id, ok := pkt.Dst.ID()
	return ok && id == n.Net.hostID
}

// tryForwardFragment relays a fragment that is not addressed to us,
// returning true if it consumed the frame. The first fragment (or an
// unfragmented datagram) carries the compressed IPv6 header: the relay
// peeks at it, decrements the hop limit in place, re-tags the datagram,
// and records the mapping so later fragments follow without reassembly.
func (n *Node) tryForwardFragment(src phy.Addr, payload []byte, jid int64) bool {
	n.gcFwdCache()
	kind := sixlowpan.Classify(payload)
	switch kind {
	case sixlowpan.KindUnfragmented, sixlowpan.KindFrag1:
		iphcOff := 0
		if kind == sixlowpan.KindFrag1 {
			iphcOff = sixlowpan.Frag1HeaderLen
		}
		h, _, err := sixlowpan.DecompressHeader(payload[iphcOff:])
		if err != nil {
			return false
		}
		if h.Dst == n.Addr {
			return false // ours: reassemble locally
		}
		if n.wire != nil && n.addrIsHost(h.Dst) {
			return false // border router reassembles host-bound traffic
		}
		dstID, ok := h.Dst.ID()
		if !ok {
			return false
		}
		target := dstID
		if dstID == n.Net.hostID {
			target = n.Net.borderID
		}
		next, ok := n.Net.Routes.NextHop(n.ID, target)
		if !ok {
			n.emitIPDrop(jid, obs.CauseNoRoute, 0)
			return true // unroutable: swallow
		}
		if hl, ok := sixlowpan.DecrementHopLimit(payload[iphcOff:]); !ok || hl == 0 {
			n.Stats.HopLimitDrops++
			n.emitIPDrop(jid, obs.CauseHopLimit, 0)
			return true
		}
		fwd := n.frag.Clone(payload)
		if kind == sixlowpan.KindFrag1 {
			fi, err := sixlowpan.ParseFragment(fwd)
			if err != nil {
				return true
			}
			newTag := n.frag.NextTag()
			if err := sixlowpan.RewriteTag(fwd, newTag); err != nil {
				return true
			}
			if n.fwdCache == nil {
				n.fwdCache = map[fwdKey]*fwdEntry{}
			}
			n.fwdCache[fwdKey{src, fi.Tag}] = &fwdEntry{
				next:    phy.AddrFromID(next),
				newTag:  newTag,
				expires: n.Eng().Now().Add(sixlowpan.DefaultReassemblyTimeout),
			}
		}
		n.Stats.FragmentsFwd++
		n.enqueue(&outItem{frames: [][]byte{fwd}, next: phy.AddrFromID(next), jid: jid})
		return true

	case sixlowpan.KindFragN:
		fi, err := sixlowpan.ParseFragment(payload)
		if err != nil {
			return false
		}
		entry, ok := n.fwdCache[fwdKey{src, fi.Tag}]
		if !ok {
			return false // ours, or the FRAG1 was lost — reassembler sorts it out
		}
		if entry.drop {
			return true
		}
		fwd := n.frag.Clone(payload)
		if err := sixlowpan.RewriteTag(fwd, entry.newTag); err != nil {
			return true
		}
		n.Stats.FragmentsFwd++
		n.enqueue(&outItem{frames: [][]byte{fwd}, next: entry.next, jid: jid})
		return true
	}
	return false
}

func (n *Node) gcFwdCache() {
	now := n.Eng().Now()
	for k, e := range n.fwdCache {
		if now >= e.expires {
			delete(n.fwdCache, k)
		}
	}
}

func (n *Node) addrIsHost(a ip6.Addr) bool {
	id, ok := a.ID()
	return ok && id == n.Net.hostID
}

// deliver hands a packet addressed to this node to its transports.
func (n *Node) deliver(pkt *ip6.Packet) {
	n.Stats.PacketsDelivered++
	n.CPU.ChargeSegment()
	n.CPU.ChargeBytes(len(pkt.Payload))
	switch pkt.NextHeader {
	case ip6.ProtoTCP:
		n.TCP.Input(pkt)
	case ip6.ProtoUDP:
		n.UDP.Input(pkt)
	}
}
