package phy

import (
	"fmt"

	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// State is the radio power/activity state.
type State uint8

// Radio states. Only Sleep is a low-power state; the paper's duty-cycle
// measurements (§9.2) count all non-sleep time.
const (
	StateSleep State = iota
	StateListen
	StateRx
	StateTx
)

func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateListen:
		return "listen"
	case StateRx:
		return "rx"
	case StateTx:
		return "tx"
	}
	return fmt.Sprintf("state%d", uint8(s))
}

// Radio is one node's transceiver. It is half-duplex: while transmitting
// it cannot receive, which is the constraint behind the B/2 and B/3
// multihop bandwidth bounds of §7.2.
//
// The radio is deliberately dumb: CSMA, ACKs, and retries live in the MAC
// (package mac), mirroring the paper's move of those functions into
// software to avoid the AT86RF233's deaf-listening behaviour (§4).
type Radio struct {
	eng  *sim.Engine
	ch   *Channel
	id   int
	idx  int // registration index on the channel
	addr Addr
	pos  Point

	// spatial-index state (see gridIndex in channel.go)
	cellKey     [2]int32
	nbrs        []nbrEntry
	nbrsVersion uint64
	sensedCount int // on-air transmissions from sensed neighbors

	state       State
	stateSince  sim.Time
	durations   [4]sim.Duration
	energySince sim.Time

	// preallocated transmit closures + their per-transmission arguments;
	// a radio has at most one frame in flight, so these are reused.
	txBeginFn func()
	txDoneFn  func()
	txData    []byte
	txAir     sim.Duration

	// NoiseOnly marks an interference source: its transmissions corrupt
	// receptions and trip CCAs but are never decoded by anyone.
	NoiseOnly bool

	// TxJID is the journey packet id of the frame about to be
	// transmitted (0 = untagged). The MAC sets it immediately before
	// Transmit/TransmitLoaded; the channel snapshots it into the
	// in-flight transmission. Simulator metadata only — never on the
	// wire.
	TxJID int64
	// RxJID is the journey packet id of the frame being handed to
	// OnReceive, valid only for the duration of that callback (like
	// rxBuf).
	RxJID int64

	// current reception in progress (nil if none)
	rx          *transmission
	rxCorrupted bool

	// OnReceive is invoked with the raw frame bytes of each successfully
	// decoded frame. The slice is the radio's receive buffer: it is valid
	// only for the duration of the callback and is overwritten by the next
	// reception, like a real transceiver's frame buffer. Callers that need
	// the bytes longer must copy them.
	OnReceive func(data []byte)
	// rxBuf backs the slices handed to OnReceive.
	rxBuf [MaxPHYPayload]byte
	// OnTxDone is invoked when a transmission completes (frame fully on
	// air and trailing SPI work done).
	OnTxDone func()

	txEnd sim.Time

	// counters
	framesSent, framesRecv, rxDropped uint64
}

// ID returns the radio's small integer identifier.
func (r *Radio) ID() int { return r.id }

// Addr returns the radio's EUI-64 address.
func (r *Radio) Addr() Addr { return r.addr }

// Pos returns the radio's position.
func (r *Radio) Pos() Point { return r.pos }

// SetPos moves the radio, re-filing it in the channel's spatial index and
// invalidating all cached neighbor sets. Frames already in flight keep the
// sensing snapshot taken when they hit the air.
func (r *Radio) SetPos(pos Point) {
	r.pos = pos
	r.ch.moved(r)
}

// State returns the current radio state.
func (r *Radio) State() State { return r.state }

// FramesSent returns the number of frames this radio has put on air.
func (r *Radio) FramesSent() uint64 { return r.framesSent }

// FramesReceived returns the number of frames successfully decoded.
func (r *Radio) FramesReceived() uint64 { return r.framesRecv }

// ReceptionsDropped counts receptions lost to collisions, noise, or state
// changes mid-frame.
func (r *Radio) ReceptionsDropped() uint64 { return r.rxDropped }

func (r *Radio) setState(s State) {
	if s == r.state {
		return
	}
	now := r.eng.Now()
	r.durations[r.state] += now.Sub(r.stateSince)
	r.state = s
	r.stateSince = now
}

// TimeIn returns the cumulative time spent in state s.
func (r *Radio) TimeIn(s State) sim.Duration {
	d := r.durations[s]
	if r.state == s {
		d += r.eng.Now().Sub(r.stateSince)
	}
	return d
}

// DutyCycle returns the fraction of time since the last ResetEnergy (or
// since start) that the radio was not asleep — the paper's "radio duty
// cycle" metric (§9.2).
func (r *Radio) DutyCycle() float64 {
	total := r.eng.Now().Sub(r.energySince)
	if total <= 0 {
		return 0
	}
	awake := r.TimeIn(StateListen) + r.TimeIn(StateRx) + r.TimeIn(StateTx)
	return float64(awake) / float64(total)
}

// ResetEnergy zeroes the per-state accumulators (used to measure duty
// cycle over a window).
func (r *Radio) ResetEnergy() {
	r.durations = [4]sim.Duration{}
	r.stateSince = r.eng.Now()
	r.energySince = r.eng.Now()
}

// Sleeping reports whether the radio is in its low-power state.
func (r *Radio) Sleeping() bool { return r.state == StateSleep }

// Transmitting reports whether a transmission is in progress.
func (r *Radio) Transmitting() bool { return r.state == StateTx }

// SetListen turns the receiver on (true) or puts the radio to sleep
// (false). Turning the receiver off mid-reception drops the frame; the
// call is ignored while transmitting (the MAC never does this).
func (r *Radio) SetListen(on bool) {
	if r.state == StateTx {
		return
	}
	if on {
		if r.state == StateSleep {
			r.setState(StateListen)
		}
		return
	}
	if r.rx != nil {
		r.abortRx()
	}
	r.setState(StateSleep)
}

func (r *Radio) abortRx() {
	r.rx = nil
	r.rxCorrupted = false
	r.rxDropped++
}

// ChannelClear performs a clear-channel assessment from this radio's
// vantage point: the channel is busy if any frame is on air from a node
// within sense range, or if this radio is mid-reception.
func (r *Radio) ChannelClear() bool {
	if r.state == StateRx {
		return false
	}
	return !r.ch.busyAt(r)
}

// Transmit puts a frame on air after first paying the SPI load time for
// the whole frame (node busy, channel idle). It is the one-shot path used
// by noise sources and simple tests; the MAC instead pre-loads the frame
// buffer once (LoadTime) and calls TransmitLoaded after each CCA so that
// the CCA-to-air gap is only the radio turnaround, as on real hardware.
func (r *Radio) Transmit(data []byte) {
	r.transmitAfter(data, LoadTime(len(data)))
}

// TransmitLoaded puts an already-loaded frame on air after the RX→TX
// turnaround time. The radio is busy (cannot receive) from this call
// until the frame leaves the air.
func (r *Radio) TransmitLoaded(data []byte) {
	r.transmitAfter(data, TurnaroundTime)
}

func (r *Radio) transmitAfter(data []byte, lead sim.Duration) {
	if r.state == StateTx {
		panic("phy: Transmit while already transmitting")
	}
	if len(data) > MaxPHYPayload {
		panic("phy: oversized frame")
	}
	if r.rx != nil {
		r.abortRx()
	}
	r.setState(StateTx)
	air := AirTime(len(data))
	r.txEnd = r.eng.Now().Add(lead + air)
	r.framesSent++
	r.txData, r.txAir = data, air
	r.eng.Schedule(lead, r.txBeginFn)
	r.eng.Schedule(lead+air, r.txDoneFn)
}

// channel-side reception hooks

func (r *Radio) beginRx(t *transmission) {
	r.rx = t
	r.rxCorrupted = false
	r.setState(StateRx)
}

func (r *Radio) interfered() {
	if r.rx != nil {
		r.rxCorrupted = true
	}
}

// endRx is the reception epilogue: state transitions, the loss draw,
// tracing, and delivery of t's bytes through the receive buffer.
func (r *Radio) endRx(t *transmission, per float64) {
	if r.rx != t {
		return
	}
	corrupted := r.rxCorrupted
	r.rx = nil
	r.rxCorrupted = false
	r.setState(StateListen)
	if corrupted {
		r.rxDropped++
		if tr := r.ch.Trace; tr != nil {
			tr.Emit(obs.Event{T: r.eng.Now(), Kind: obs.PhyCollision, Node: r.id, Len: len(t.data), J: t.jid, Cause: obs.CauseCollision})
		}
		return
	}
	if per > 0 && r.eng.Rand().Float64() < per {
		r.rxDropped++
		if tr := r.ch.Trace; tr != nil {
			tr.Emit(obs.Event{T: r.eng.Now(), Kind: obs.PhyRxDrop, Node: r.id, A: 1, Len: len(t.data), J: t.jid, Cause: obs.CausePER})
		}
		return
	}
	r.framesRecv++
	if r.OnReceive != nil {
		n := copy(r.rxBuf[:], t.data)
		r.RxJID = t.jid
		r.OnReceive(r.rxBuf[:n])
		r.RxJID = 0
	}
}
