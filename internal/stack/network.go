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
	"tcplp/internal/tcplp/cc"
	"tcplp/internal/udp"
)

// HostID is the node identifier of the wired cloud host.
const HostID = 999

// DefaultVariant is the congestion-control algorithm DefaultOptions
// seeds into the TCP configuration. cmd/tcplp-bench's -variant flag
// overrides it process-wide, turning every registered experiment into a
// run under the chosen variant.
var DefaultVariant = cc.NewReno

// DefaultWindowSegs is the send/receive window DefaultOptions seeds, in
// segments (the paper's standard is 4). cmd/tcplp-bench's -window flag
// overrides it process-wide so variant head-to-heads can run at larger
// windows (≥ 8 segments) without touching each experiment.
var DefaultWindowSegs = 4

// Options configures a simulated network.
type Options struct {
	// MAC holds the CSMA/ARQ parameters, including the §7.1 link-retry
	// delay knob.
	MAC mac.Params
	// TCP is the base connection configuration; MSS and buffer sizes are
	// derived from SegFrames and WindowSegs unless SetExplicitTCP.
	TCP tcplp.Config
	// SegFrames is the TCP MSS expressed in 802.15.4 frames (§6.1;
	// paper default 5).
	SegFrames int
	// WindowSegs is the send/receive buffer size in segments (§6.2;
	// paper default 4).
	WindowSegs int
	// ExplicitTCP uses Options.TCP verbatim instead of deriving MSS and
	// buffers.
	ExplicitTCP bool
	// Mode selects fragment forwarding (default) or hop-by-hop
	// reassembly.
	Mode ForwardingMode
	// QueueCap bounds each node's datagram transmit queue.
	QueueCap int
	// RED enables random early detection at relays; ECN additionally
	// marks instead of dropping (Appendix A).
	RED, ECN bool
	// WireDelay is the one-way border↔host latency (§9.2: ≈6 ms each
	// way for the 12 ms RTT to EC2).
	WireDelay sim.Duration
	// PER applies a uniform per-frame corruption probability on every
	// radio link (beyond collisions).
	PER float64
	// CPUCosts overrides the CPU duty-cycle model.
	CPUCosts *energy.Costs
	// Trace, when non-nil, threads the obs instrumentation through
	// every layer of every node (phy, MAC, 6LoWPAN, IP queue, TCP).
	// Nil — the default — keeps every hook a single nil check.
	Trace *obs.Trace
}

// DefaultOptions mirrors the paper's standard setup. QueueCap is sized
// so a full TCP window's worth of fragments (4 segments × 6 frames) can
// sit at a relay without tail drops, like OpenThread's message buffers.
func DefaultOptions() Options {
	tcp := tcplp.DefaultConfig()
	tcp.Variant = DefaultVariant
	return Options{
		MAC:        mac.DefaultParams(),
		TCP:        tcp,
		SegFrames:  5,
		WindowSegs: DefaultWindowSegs,
		QueueCap:   32,
		WireDelay:  6 * sim.Millisecond,
	}
}

// Network is a simulated LLN plus optional wired host.
type Network struct {
	Eng     *sim.Engine
	Channel *phy.Channel
	Topo    mesh.Topology
	Routes  *mesh.Routes
	Opt     Options

	Nodes []*Node
	Host  *Node

	hostID   int
	borderID int
}

// New builds a network over topo with node 0 as the border router.
func New(seed int64, topo mesh.Topology, opt Options) *Network {
	if opt.QueueCap == 0 {
		opt.QueueCap = 32
	}
	if opt.SegFrames == 0 {
		opt.SegFrames = 5
	}
	if opt.WindowSegs == 0 {
		opt.WindowSegs = 4
	}
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(topo.TxRange, topo.SenseRange))
	ch.Trace = opt.Trace
	if opt.PER > 0 {
		per := opt.PER
		ch.PER = func(src, dst *phy.Radio) float64 { return per }
	}
	net := &Network{
		Eng:      eng,
		Channel:  ch,
		Topo:     topo,
		Routes:   mesh.ComputeRoutes(topo.Adjacency()),
		Opt:      opt,
		hostID:   HostID,
		borderID: 0,
	}
	if !opt.ExplicitTCP {
		net.Opt.TCP = net.deriveTCPConfig(opt.TCP)
	}
	costs := energy.DefaultCosts()
	if opt.CPUCosts != nil {
		costs = *opt.CPUCosts
	}
	for i := 0; i < topo.N(); i++ {
		n := &Node{
			ID:    i,
			Net:   net,
			Addr:  ip6.AddrFromID(i),
			reasm: sixlowpan.NewReassembler(eng),
			CPU:   energy.NewCPUMeter(eng, costs),
		}
		n.Radio = ch.AddRadio(i, topo.Positions[i])
		n.Mac = mac.New(eng, n.Radio, opt.MAC)
		n.Mac.OnReceive = n.onFrame
		n.Mac.Trace = opt.Trace
		n.reasm.Trace, n.reasm.Node = opt.Trace, i
		if net.Opt.RED && i != 0 {
			n.red = mesh.DefaultRED(net.Opt.ECN)
		}
		n.TCP = tcplp.NewStack(eng, n.Addr, net.Opt.TCP)
		n.TCP.Output = n.SendPacket
		n.TCP.Trace, n.TCP.TraceNode = opt.Trace, i
		n.UDP = udp.NewStack(n.Addr)
		n.UDP.Output = n.SendPacket
		net.Nodes = append(net.Nodes, n)
	}
	return net
}

// MSSInfo describes the derived segment sizing.
type MSSInfo struct {
	CompressedHeaderLen int
	TCPHeaderLen        int
	SegmentPayload      int // 6LoWPAN payload per segment packet
	MSS                 int // TCP payload bytes
}

// SegmentSizing computes the MSS for a segment spanning the given number
// of frames under the current option set (the §6.1 MSS-in-frames knob).
func SegmentSizing(frames int, useTimestamps bool) MSSInfo {
	sample := &ip6.Header{
		NextHeader: ip6.ProtoTCP,
		HopLimit:   64,
		Src:        ip6.AddrFromID(1),
		Dst:        ip6.AddrFromID(2),
	}
	chdr := len(sixlowpan.CompressHeader(sample))
	tcpHdr := tcplp.BaseHeaderLen
	if useTimestamps {
		tcpHdr += 12
	}
	seg := sixlowpan.MaxPayloadForFrames(chdr, frames, phy.MaxMACPayload)
	return MSSInfo{
		CompressedHeaderLen: chdr,
		TCPHeaderLen:        tcpHdr,
		SegmentPayload:      seg,
		MSS:                 seg - tcpHdr,
	}
}

func (net *Network) deriveTCPConfig(base tcplp.Config) tcplp.Config {
	return DerivedTCPConfig(net.Opt, base)
}

// DerivedTCPConfig computes the TCP configuration New derives from opt:
// MSS from the segment-in-frames knob and buffers from the window knob.
func DerivedTCPConfig(opt Options, base tcplp.Config) tcplp.Config {
	segFrames := opt.SegFrames
	if segFrames == 0 {
		segFrames = 5
	}
	windowSegs := opt.WindowSegs
	if windowSegs == 0 {
		windowSegs = 4
	}
	info := SegmentSizing(segFrames, base.UseTimestamps)
	cfg := base
	cfg.MSS = info.MSS
	cfg.SendBufSize = windowSegs * info.MSS
	cfg.RecvBufSize = windowSegs * info.MSS
	cfg.UseECN = opt.ECN
	return cfg
}

// FlowTCPConfig derives a per-flow TCP configuration: the network's
// option set with the window (in segments) and congestion-control
// variant overridden. A windowSegs of 0 keeps the network's window; an
// empty variant keeps the network default. Use it with
// tcplp.Stack.ConnectConfig / Listener.ConfigFor to mix variants and
// window sizes between flows of one mesh.
func (net *Network) FlowTCPConfig(v cc.Variant, windowSegs int) tcplp.Config {
	opt := net.Opt
	if windowSegs > 0 {
		opt.WindowSegs = windowSegs
	}
	cfg := DerivedTCPConfig(opt, opt.TCP)
	if v != "" {
		cfg.Variant = v
	}
	return cfg
}

// AttachHost creates the wired cloud host behind the border router
// (node 0) and returns it.
func (net *Network) AttachHost() *Node {
	if net.Host != nil {
		return net.Host
	}
	costs := energy.DefaultCosts()
	host := &Node{
		ID:    net.hostID,
		Net:   net,
		Addr:  ip6.AddrFromID(net.hostID),
		reasm: sixlowpan.NewReassembler(net.Eng),
		CPU:   energy.NewCPUMeter(net.Eng, costs),
	}
	// The host is unconstrained: large buffers, same protocol logic
	// ("the TCP implementation in the FreeBSD operating system" on both
	// ends).
	hostCfg := net.Opt.TCP
	hostCfg.SendBufSize = 64 * 1024
	hostCfg.RecvBufSize = 64 * 1024
	host.TCP = tcplp.NewStack(net.Eng, host.Addr, hostCfg)
	host.TCP.Output = host.SendPacket
	host.TCP.Trace, host.TCP.TraceNode = net.Opt.Trace, net.hostID
	host.reasm.Trace, host.reasm.Node = net.Opt.Trace, net.hostID
	host.UDP = udp.NewStack(host.Addr)
	host.UDP.Output = host.SendPacket
	net.Host = host
	connectWire(net.Nodes[0], host, net.Opt.WireDelay)
	return host
}

// MakeSleepyLeaf converts node id into a duty-cycled leaf: its parent is
// its next hop toward the border router, which queues downstream frames
// for it (indirect delivery). The leaf's TCP stack drives the fast-poll
// hint (§9.2). Configure the returned controller (intervals, adaptive
// mode) and then call its Start method.
func (net *Network) MakeSleepyLeaf(id int) *mac.SleepController {
	n := net.Nodes[id]
	parentID, ok := net.Routes.Parent(id, net.borderID)
	if !ok {
		panic("stack: leaf has no route to border router")
	}
	parent := net.Nodes[parentID]
	parent.Mac.SetChildSleepy(n.LinkAddr(), true)
	sc := mac.NewSleepController(net.Eng, n.Mac, parent.LinkAddr())
	n.Sleep = sc
	n.TCP.OnExpectingChange = func(expecting bool) { sc.SetExpecting(expecting) }
	return sc
}

// Border returns the border router (node 0).
func (net *Network) Border() *Node { return net.Nodes[net.borderID] }

// SetTCPConfig replaces a node's TCP instance with one using cfg. Call
// before opening sockets on the node (used to mix stack profiles, e.g.
// a uIP-class sender against a full TCPlp receiver in Table 7).
func (n *Node) SetTCPConfig(cfg tcplp.Config) {
	n.TCP = tcplp.NewStack(n.Net.Eng, n.Addr, cfg)
	n.TCP.Output = n.SendPacket
	n.TCP.Trace, n.TCP.TraceNode = n.Net.Opt.Trace, n.ID
}

// TotalFramesSent sums frames put on air by all mesh radios — the
// Fig. 6d metric.
func (net *Network) TotalFramesSent() uint64 {
	var total uint64
	for _, r := range net.Channel.Radios() {
		total += r.FramesSent()
	}
	return total
}

// TotalLossEvents sums datagram losses across all mesh nodes — the
// ground-truth numerator for segment-loss measurements (losses not
// masked by link retries, as Fig. 6 defines them).
func (net *Network) TotalLossEvents() uint64 {
	var total uint64
	for _, n := range net.Nodes {
		total += n.LossEvents()
	}
	return total
}

// ---- wire (border router ↔ cloud host) ----

type wireEnd struct {
	eng   *sim.Engine
	delay sim.Duration
	peer  *Node
}

func connectWire(border, host *Node, delay sim.Duration) {
	if delay == 0 {
		delay = 6 * sim.Millisecond
	}
	border.wire = &wireEnd{eng: border.Eng(), delay: delay, peer: host}
	host.wire = &wireEnd{eng: host.Eng(), delay: delay, peer: border}
}

func (w *wireEnd) send(pkt *ip6.Packet) {
	// The wire holds the packet until the peer takes delivery; copy the
	// payload so the sending stack may recycle its encode buffer the
	// moment the synchronous transmit path returns (tcplp.Stack.Output).
	cp := *pkt
	cp.Payload = append([]byte(nil), pkt.Payload...)
	w.eng.Schedule(w.delay, func() { w.peer.wireReceive(&cp) })
}

func (n *Node) wireReceive(pkt *ip6.Packet) {
	if pkt.Dst == n.Addr {
		n.deliver(pkt)
		return
	}
	// Border router: downlink packet entering the mesh.
	if n.dropAtBorder(pkt) {
		return
	}
	n.Stats.PacketsFwd++
	n.route(pkt, true)
}
