// Package scenario is the declarative multi-flow experiment subsystem:
// a Spec names a topology, link conditions, per-node duty-cycle roles,
// and per-flow transport configuration (congestion-control variant,
// window, pacing, application pattern); a Runner instantiates every
// (spec, seed) pair onto the sim/phy/mac/stack layers, fans the runs
// out across a worker pool — each seed's engine is independent, so
// parallelism is deterministic — and aggregates per-flow goodput,
// retransmissions, RTT, energy duty cycle, and Jain's fairness index.
//
// Specs are JSON-serializable, so a sweep is data, not a bespoke
// driver: cmd/tcplp-bench's -scenario mode runs a spec file, and the
// ccvariants/pacing/table9 experiments are thin spec builders over the
// same machinery.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcplp/internal/gateway"
	"tcplp/internal/mesh"
	"tcplp/internal/scenario/flows"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
	"tcplp/internal/uip"
)

// Duration is a sim.Duration that marshals as a Go duration string
// ("90s", "250ms"); bare JSON numbers are read as seconds.
type Duration sim.Duration

// D returns the underlying simulation duration.
func (d Duration) D() sim.Duration { return sim.Duration(d) }

// MarshalJSON renders the duration as a string like "1.5s".
func (d Duration) MarshalJSON() ([]byte, error) {
	td := time.Duration(int64(d) * int64(time.Microsecond))
	return json.Marshal(td.String())
}

// String renders the duration in Go syntax ("40ms", "1.5s").
func (d Duration) String() string {
	return (time.Duration(int64(d)) * time.Microsecond).String()
}

// UnmarshalJSON accepts "90s"/"250ms" strings or numbers (seconds).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", s, err)
		}
		*d = Duration(td / time.Microsecond)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"90s\" or a number of seconds: %s", b)
	}
	*d = Duration(secs * float64(sim.Second))
	return nil
}

// NodeRef names a flow endpoint: a mesh node id, the wired cloud host
// behind the border router, "end" — the topology's last node, which
// lets one sweep spec keep addressing the far end of a chain while a
// hop-count axis regrows it — or "gateway", the spec's border-router
// gateway tier (flow sinks only).
type NodeRef struct {
	Host    bool
	End     bool
	Gateway bool
	ID      int
}

// NodeID returns a reference to mesh node id.
func NodeID(id int) NodeRef { return NodeRef{ID: id} }

// Host returns a reference to the wired cloud host.
func Host() NodeRef { return NodeRef{Host: true} }

// End returns a reference to the topology's last node (a chain's far
// end; resolved against whatever node count the cell expands to).
func End() NodeRef { return NodeRef{End: true} }

// Gateway returns a reference to the spec's gateway tier: the flow
// terminates at the border router's shared gateway and is credited
// end-to-end at the cloud collector behind the modeled WAN.
func Gateway() NodeRef { return NodeRef{Gateway: true} }

func (r NodeRef) String() string {
	if r.Host {
		return "host"
	}
	if r.End {
		return "end"
	}
	if r.Gateway {
		return "gateway"
	}
	return strconv.Itoa(r.ID)
}

// MarshalJSON renders the reference as a number, "host", "end", or
// "gateway".
func (r NodeRef) MarshalJSON() ([]byte, error) {
	if r.Host || r.End || r.Gateway {
		return json.Marshal(r.String())
	}
	return json.Marshal(r.ID)
}

// UnmarshalJSON accepts a node id or the strings "host" / "end" /
// "gateway".
func (r *NodeRef) UnmarshalJSON(b []byte) error {
	var id int
	if err := json.Unmarshal(b, &id); err == nil {
		*r = NodeRef{ID: id}
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "host":
			*r = NodeRef{Host: true}
			return nil
		case "end":
			*r = NodeRef{End: true}
			return nil
		case "gateway":
			*r = NodeRef{Gateway: true}
			return nil
		}
	}
	return fmt.Errorf("scenario: node reference must be a node id, \"host\", \"end\", or \"gateway\": %s", b)
}

// Topology kinds.
const (
	TopoChain    = "chain"    // n nodes on a line, hidden-terminal ranges (§7.1)
	TopoStar     = "star"     // n-1 nodes around the border router
	TopoOffice   = "office"   // the 15-node Fig. 3 office testbed stand-in
	TopoTwinLeaf = "twinleaf" // Table 9: a relay path ending in two leaves
	// TopoRandomGeometric scatters nodes uniformly in a square sized for a
	// target mean degree, the border router at the center — the city-scale
	// generator (guaranteed connected, deterministic in its seed).
	TopoRandomGeometric = "random_geometric"
	// TopoTree embeds a fanout-ary tree of the given depth around the
	// border router; shortest-path hop count equals tree depth.
	TopoTree = "tree"
)

// TopologySpec selects and parameterizes the mesh layout.
type TopologySpec struct {
	// Kind is one of chain, star, office, twinleaf, random_geometric, tree.
	Kind string `json:"kind"`
	// Nodes is the node count for chain/star/random_geometric (ignored
	// otherwise).
	Nodes int `json:"nodes,omitempty"`
	// PathHops is the twinleaf relay-path length in hops.
	PathHops int `json:"path_hops,omitempty"`
	// Spacing is the inter-node distance (default 10); random_geometric
	// instead derives its field size from Density.
	Spacing float64 `json:"spacing,omitempty"`
	// Density is the random_geometric target mean node degree (default 6).
	Density float64 `json:"density,omitempty"`
	// Depth and Fanout shape the tree topology.
	Depth  int `json:"depth,omitempty"`
	Fanout int `json:"fanout,omitempty"`
	// Seed fixes the random_geometric placement (default 1). It is
	// deliberately separate from the channel seed list: every seed of a
	// run explores the same city.
	Seed int64 `json:"seed,omitempty"`
}

// NetSpec sets network-wide knobs: link conditions, segment sizing, the
// default window, queueing, and RED/ECN at relays.
type NetSpec struct {
	// PER is a uniform per-frame corruption probability on every link.
	PER float64 `json:"per,omitempty"`
	// RetryDelay overrides the paper's link-retry delay d (§7.1);
	// unset keeps the 40 ms default, "0s" disables it (hidden-terminal
	// conditions).
	RetryDelay *Duration `json:"retry_delay,omitempty"`
	// SegFrames is the TCP MSS in 802.15.4 frames (default 5).
	SegFrames int `json:"seg_frames,omitempty"`
	// WindowSegs is the default per-flow window in segments (default 4);
	// individual flows may override it.
	WindowSegs int `json:"window_segs,omitempty"`
	// QueueCap bounds each node's datagram transmit queue.
	QueueCap int `json:"queue_cap,omitempty"`
	// RED/ECN enable random early detection (and marking) at relays;
	// HopByHop selects whole-packet reassembly at relays, which RED
	// requires to see packets (Appendix A).
	RED      bool `json:"red,omitempty"`
	ECN      bool `json:"ecn,omitempty"`
	HopByHop bool `json:"hop_by_hop,omitempty"`
	// WireDelay is the one-way border↔host latency (default 6 ms).
	WireDelay Duration `json:"wire_delay,omitempty"`
	// AttachHost forces the wired cloud host even when no flow names it.
	AttachHost bool `json:"attach_host,omitempty"`
	// InjectedLoss drops packets crossing the border router with this
	// probability — the §9.4 loss-injection mechanism.
	InjectedLoss float64 `json:"injected_loss,omitempty"`
	// Interference places the §9.5 diurnal interferers with this peak
	// relative activity (0 disables them; the paper uses 1).
	Interference float64 `json:"interference,omitempty"`
}

// NodeSpec assigns a duty-cycle role to one mesh node.
type NodeSpec struct {
	ID int `json:"id"`
	// Sleepy converts the node into a duty-cycled leaf polling its
	// parent (§3.2 / §9.2).
	Sleepy bool `json:"sleepy,omitempty"`
	// SleepInterval is the base data-request period (default 4 min).
	SleepInterval Duration `json:"sleep_interval,omitempty"`
	// FastInterval is the poll period while a transport response is
	// expected; unset keeps the 100 ms default, "0s" disables fast
	// polling (Appendix C conditions).
	FastInterval *Duration `json:"fast_interval,omitempty"`
	// Adaptive enables the Trickle-controlled interval of Appendix C.
	Adaptive bool `json:"adaptive,omitempty"`
	// MinInterval/MaxInterval bound the adaptive interval; zero keeps
	// the paper's 20 ms / 5 s defaults.
	MinInterval Duration `json:"min_interval,omitempty"`
	MaxInterval Duration `json:"max_interval,omitempty"`
	// NoFastPollHint detaches the TCP expecting-data hint from the
	// sleep controller (the §9.2 refinement off).
	NoFastPollHint bool `json:"no_fast_poll_hint,omitempty"`
}

// WANSpec shapes the gateway's modeled wide-area backhaul: a
// netem-style link with configurable bandwidth, round-trip latency,
// and random message loss.
type WANSpec struct {
	// BandwidthKbps serializes forwarded messages at this rate; 0 is an
	// unconstrained link.
	BandwidthKbps float64 `json:"bandwidth_kbps,omitempty"`
	// RTT is the WAN round-trip time; each forwarded message crosses
	// half of it one-way.
	RTT Duration `json:"rtt,omitempty"`
	// Loss drops each forwarded message with this probability.
	Loss float64 `json:"loss,omitempty"`
	// QueueCap bounds messages queued at the gateway's uplink (default
	// 64); arrivals beyond it are tail-dropped.
	QueueCap int `json:"queue_cap,omitempty"`
}

// GatewaySpec installs the border-router gateway tier: flows addressed
// "to": "gateway" terminate at the border router's shared per-device
// connection table and are proxied onto the WAN, with deliveries
// credited per source at a cloud collector — upstream fairness becomes
// measurable end-to-end (device → gateway → cloud).
type GatewaySpec struct {
	// TCPPort/CoAPPort are the LLN-side terminator ports (defaults 7000
	// and 5683).
	TCPPort  uint16 `json:"tcp_port,omitempty"`
	CoAPPort uint16 `json:"coap_port,omitempty"`
	// MaxConns bounds the per-device connection table; 0 is unbounded. A
	// full table evicts its least-recently-active device.
	MaxConns int `json:"max_conns,omitempty"`
	// IdleTimeout evicts table entries idle this long; 0 disables the
	// sweep.
	IdleTimeout Duration `json:"idle_timeout,omitempty"`
	// WAN shapes the backhaul link.
	WAN WANSpec `json:"wan,omitempty"`
}

// Traffic patterns (canonically defined by the flows driver registry).
const (
	PatternBulk       = flows.PatternBulk       // saturating stream (default)
	PatternOnOff      = flows.PatternOnOff      // bulk during on-periods, idle between
	PatternAnemometer = flows.PatternAnemometer // §3 sensor: periodic readings, optional batching
)

// FlowSpec is one flow: endpoints, the transport protocol, its
// configuration, and the application traffic pattern driving it.
type FlowSpec struct {
	// Label names the flow in results (default "from->to").
	Label string  `json:"label,omitempty"`
	From  NodeRef `json:"from"`
	To    NodeRef `json:"to"`
	// Protocol selects the transport driver: tcp (default), udp, or
	// coap. Non-TCP flows carry the anemometer pattern (telemetry);
	// bulk/onoff streams need TCP's reliability.
	Protocol string `json:"protocol,omitempty"`
	// Confirmable selects CoAP CON (default) vs NON exchanges; only
	// meaningful for protocol "coap".
	Confirmable *bool `json:"confirmable,omitempty"`
	// RTO selects the CoAP retransmission-timeout policy: "default"
	// (RFC 7252) or "cocoa" (draft-ietf-core-cocoa, the §9.4 baseline).
	RTO string `json:"rto,omitempty"`
	// Port is the sink's listening port (default 80+index).
	Port uint16 `json:"port,omitempty"`
	// Variant is the congestion-control algorithm (newreno, cubic,
	// westwood, bbr, vegas); empty uses the process default.
	Variant string `json:"variant,omitempty"`
	// Profile runs the sender under a named simplified-stack profile
	// (uip, blip, uip50, archrock — Table 7's baselines): the source
	// connection uses the profile's stripped configuration while the
	// sink stays full TCPlp, whose delayed ACKs penalize stop-and-wait
	// stacks exactly as the paper's gateway-class receivers did. A
	// profile overrides variant/window_segs/pacing for the flow.
	Profile string `json:"profile,omitempty"`
	// Trace records the sender's congestion-window trajectory over the
	// measurement window into FlowResult.CwndTrace (Fig. 7a).
	Trace bool `json:"trace,omitempty"`
	// WindowSegs overrides the network window for this flow, in
	// segments, applied to both the sender's buffers and the sink's
	// advertised window.
	WindowSegs int `json:"window_segs,omitempty"`
	// Pacing forces pacing off when set to false; unset (null) leaves
	// the variant's own behaviour (BBR paces, loss-based variants are
	// ACK-clocked). True is only meaningful for pacing-capable variants.
	Pacing *bool `json:"pacing,omitempty"`
	// Pattern is bulk (default), onoff, or anemometer.
	Pattern string `json:"pattern,omitempty"`
	// On/Off are the onoff pattern's period lengths. Omitting both
	// selects the 5s/5s default; setting one honors the other as given,
	// so "off": "0s" with an explicit on-period means continuous
	// sending.
	On  Duration `json:"on,omitempty"`
	Off Duration `json:"off,omitempty"`
	// Interval is the anemometer sampling period; 0 selects the 1s
	// default (a zero sampling period is meaningless).
	Interval Duration `json:"interval,omitempty"`
	// Batch is the anemometer batching threshold in readings (0 sends
	// each reading immediately).
	Batch int `json:"batch,omitempty"`
	// PerDevice replicates this flow template across every mesh node
	// 1..N-1 (one flow per device, From set per replica) — the idiom for
	// gateway capacity sweeps, where a devices axis regrows the fleet.
	// Requires "to": "gateway"; From in the template is ignored.
	PerDevice bool `json:"per_device,omitempty"`
	// Stride thins a per_device template to every stride-th device
	// (ids 1, 1+stride, 1+2·stride, …) — the city-scale idiom, where a
	// thousand-node mesh carries a hundred instrumented flows rather than
	// one per node. 0 or 1 keeps every device.
	Stride int `json:"stride,omitempty"`
}

// AxisValue is one coordinate of an expanded sweep cell, e.g.
// {Axis: "d", Value: "40ms"}.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Sweep expands one spec into a cartesian grid of cells, one run set
// per combination of axis values — the sweep is data, not a bespoke
// driver loop. Axes are applied in field order with the last-listed
// axis varying fastest; each expanded cell records its coordinates in
// Spec.Point and appends them to its name.
type Sweep struct {
	// Hops regrows the topology per cell: a chain gets hops+1 nodes, a
	// twinleaf a hops-long relay path. Use the "end" node reference in
	// flows so endpoints follow the far end of the chain.
	Hops []int `json:"hops,omitempty"`
	// Devices sweeps the mesh device count: a star or chain gets
	// devices+1 nodes per cell (the border router plus that many
	// devices). Pair it with a per_device flow template so the flow set
	// regrows with the fleet.
	Devices []int `json:"devices,omitempty"`
	// Nodes sweeps the random_geometric node count directly — the
	// city-scale axis. Chain and star fleets use hops/devices instead.
	Nodes []int `json:"nodes,omitempty"`
	// PER sweeps the uniform per-frame corruption probability.
	PER []float64 `json:"per,omitempty"`
	// InjectedLoss sweeps the border-router drop probability — the §9.4
	// loss-injection axis.
	InjectedLoss []float64 `json:"injected_loss,omitempty"`
	// Interference sweeps the §9.5 office-interferer peak activity level
	// (0 disables the interferers for that cell).
	Interference []float64 `json:"interference,omitempty"`
	// RetryDelay sweeps the §7.1 link-retry delay d ("0s" gives
	// hidden-terminal conditions).
	RetryDelay []Duration `json:"retry_delay,omitempty"`
	// SegFrames sweeps the TCP MSS in 802.15.4 frames (Fig. 4).
	SegFrames []int `json:"seg_frames,omitempty"`
	// WindowSegs sweeps the network default window in segments (Fig. 5);
	// flows with an explicit per-flow window keep it.
	WindowSegs []int `json:"window_segs,omitempty"`
	// Variants sweeps the congestion-control algorithm, overriding every
	// flow's variant per cell.
	Variants []string `json:"variants,omitempty"`
	// Protocols sweeps the transport preset across every flow: tcp, udp,
	// coap (CON), coap-non (NON), or cocoa (CON with the CoCoA RTO
	// policy). Each cell rewrites every flow's protocol/confirmable/rto
	// and clears knobs foreign to the preset's transport, so one
	// telemetry spec compares transports without per-protocol copies.
	Protocols []string `json:"protocols,omitempty"`
	// SeedStep offsets every seed of cell i by i·SeedStep, reproducing
	// per-condition seeding; 0 (the default) holds the channel
	// realization fixed across cells so rows differ only by the axis.
	SeedStep int64 `json:"seed_step,omitempty"`
	// Overrides patch individual cells after axis expansion: a cell
	// whose coordinates match every "when" entry gets the "set" block
	// applied, folding outliers (the §7.2 4-hop point needs a 6-segment
	// window) into the grid instead of a separate spec.
	Overrides []Override `json:"overrides,omitempty"`
}

// Override is one conditional cell patch of a sweep.
type Override struct {
	// When matches cell coordinates by axis key (hops, per, d, mss, w,
	// cc) against the coordinate value exactly as it appears in the
	// cell's Point/name ("4", "40ms", "7%"); bare JSON numbers are
	// accepted and compared literally.
	When OverrideWhen `json:"when"`
	// Set is applied to matching cells after the axis values.
	Set OverrideSet `json:"set"`
}

// OverrideWhen maps axis keys to required coordinate values.
type OverrideWhen map[string]string

// UnmarshalJSON accepts string or bare-number values ({"hops": 4}).
func (w *OverrideWhen) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("scenario: bad override when-block: %v", err)
	}
	out := OverrideWhen{}
	for k, v := range raw {
		var s string
		if err := json.Unmarshal(v, &s); err == nil {
			out[k] = s
			continue
		}
		out[k] = string(bytes.TrimSpace(v))
	}
	*w = out
	return nil
}

// OverrideSet is the patch a matching cell receives.
type OverrideSet struct {
	// WindowSegs/SegFrames/PER/RetryDelay override the network knobs.
	WindowSegs int       `json:"window_segs,omitempty"`
	SegFrames  int       `json:"seg_frames,omitempty"`
	PER        *float64  `json:"per,omitempty"`
	RetryDelay *Duration `json:"retry_delay,omitempty"`
	// Variant overrides every flow's congestion-control algorithm.
	Variant string `json:"variant,omitempty"`
}

// matches reports whether every when-entry equals the cell coordinate.
func (o *Override) matches(point []AxisValue) bool {
	for axis, want := range o.When {
		found := false
		for _, av := range point {
			if av.Axis == axis {
				found = av.Value == want
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// apply patches the cell.
func (o *Override) apply(c *Spec) {
	if o.Set.WindowSegs > 0 {
		c.Net.WindowSegs = o.Set.WindowSegs
	}
	if o.Set.SegFrames > 0 {
		c.Net.SegFrames = o.Set.SegFrames
	}
	if o.Set.PER != nil {
		c.Net.PER = *o.Set.PER
	}
	if o.Set.RetryDelay != nil {
		d := *o.Set.RetryDelay
		c.Net.RetryDelay = &d
	}
	if o.Set.Variant != "" {
		for i := range c.Flows {
			c.Flows[i].Variant = o.Set.Variant
		}
	}
}

// empty reports whether no axis has any values.
func (sw *Sweep) empty() bool {
	return len(sw.Hops) == 0 && len(sw.Devices) == 0 && len(sw.Nodes) == 0 &&
		len(sw.PER) == 0 && len(sw.InjectedLoss) == 0 && len(sw.Interference) == 0 &&
		len(sw.RetryDelay) == 0 && len(sw.SegFrames) == 0 &&
		len(sw.WindowSegs) == 0 && len(sw.Variants) == 0 && len(sw.Protocols) == 0
}

// protoPreset resolves one protocols-axis value to the flow fields it
// rewrites.
func protoPreset(name string) (protocol string, confirmable *bool, rto string, ok bool) {
	t, f := true, false
	switch name {
	case "tcp":
		return flows.ProtocolTCP, nil, "", true
	case "udp":
		return flows.ProtocolUDP, nil, "", true
	case "coap":
		return flows.ProtocolCoAP, &t, "", true
	case "coap-non":
		return flows.ProtocolCoAP, &f, "", true
	case "cocoa":
		return flows.ProtocolCoAP, &t, "cocoa", true
	}
	return "", nil, "", false
}

// Spec is one declarative scenario: a topology, link conditions, node
// roles, flows, a measurement schedule, and the seeds to run. A spec
// with a Sweep block is a whole grid of scenarios in one object.
type Spec struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	Net      NetSpec      `json:"net,omitempty"`
	Nodes    []NodeSpec   `json:"nodes,omitempty"`
	// AllNodes is a role template applied to every mesh node 1..N-1
	// without an explicit Nodes entry (its ID field is ignored) — the
	// idiom for specs whose node count is swept, where a fixed Nodes
	// list cannot follow the topology.
	AllNodes *NodeSpec  `json:"all_nodes,omitempty"`
	Flows    []FlowSpec `json:"flows"`
	// Gateway installs the border-router gateway tier; flows addressed
	// "to": "gateway" terminate there and proxy onto its WAN.
	Gateway *GatewaySpec `json:"gateway,omitempty"`
	// Sweep expands this spec into a cartesian grid of cells; the
	// Runner runs every cell (see Expand).
	Sweep *Sweep `json:"sweep,omitempty"`
	// Point is set on expanded cells: the sweep coordinates this cell
	// was instantiated at, in axis order.
	Point []AxisValue `json:"point,omitempty"`
	// Warmup runs before the measurement window opens; 0 (or omitted)
	// measures from t=0.
	Warmup Duration `json:"warmup,omitempty"`
	// Duration is the measurement window; 0 selects the 60s default (a
	// zero-length window is meaningless).
	Duration Duration `json:"duration,omitempty"`
	// DCSample, when set, samples the mean radio duty cycle across the
	// flow source nodes every DCSample of the measurement window
	// (resetting their meters each time) into Result.DCSamples — the
	// Fig. 10 hourly-duty-cycle instrument.
	DCSample Duration `json:"dc_sample,omitempty"`
	// IdleWindow, when set, appends an idle phase after the measurement
	// window: every flow stops, the network settles for IdleSettle,
	// each flow's mesh endpoint resets its radio meter, and after
	// IdleWindow its duty cycle lands in FlowResult.IdleRadioDC — the
	// Fig. 14 idle-cost instrument.
	IdleSettle Duration `json:"idle_settle,omitempty"`
	IdleWindow Duration `json:"idle_window,omitempty"`
	// Seeds lists the independent channel realizations to run
	// (default [1]).
	Seeds []int64 `json:"seeds,omitempty"`
}

// ParseSpecs decodes a JSON spec file holding either one spec object or
// an array of specs, and validates each. Decoding is strict: a key that
// names no spec field is an error naming that key. The form is decided
// by the first byte so a decode error inside an array surfaces as
// itself, not as a misleading object-decode failure.
func ParseSpecs(data []byte) ([]*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var many []*Spec
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := decodeStrict(data, &many); err != nil {
			return nil, fmt.Errorf("scenario: bad spec array: %v", err)
		}
	} else {
		var one Spec
		if err := decodeStrict(data, &one); err != nil {
			return nil, fmt.Errorf("scenario: bad spec: %v", err)
		}
		many = []*Spec{&one}
	}
	for _, s := range many {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return many, nil
}

// decodeStrict decodes exactly one JSON value into v, rejecting keys
// that match no field (a misspelled "varient" would otherwise run the
// default silently) and anything after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the top-level value")
	}
	return nil
}

// sweepOpt is one axis value prepared for expansion: its printable
// coordinate plus the mutation it applies to a cell.
type sweepOpt struct {
	av    AxisValue
	apply func(*Spec)
}

// axes lists the sweep's populated dimensions in field order.
func (sw *Sweep) axes() [][]sweepOpt {
	var out [][]sweepOpt
	add := func(opts []sweepOpt) {
		if len(opts) > 0 {
			out = append(out, opts)
		}
	}
	var hops []sweepOpt
	for _, h := range sw.Hops {
		h := h
		hops = append(hops, sweepOpt{AxisValue{"hops", strconv.Itoa(h)}, func(c *Spec) {
			if c.Topology.Kind == TopoTwinLeaf {
				c.Topology.PathHops = h
			} else { // chain (validated)
				c.Topology.Nodes = h + 1
			}
		}})
	}
	add(hops)
	var devs []sweepOpt
	for _, d := range sw.Devices {
		d := d
		devs = append(devs, sweepOpt{AxisValue{"dev", strconv.Itoa(d)},
			func(c *Spec) { c.Topology.Nodes = d + 1 }})
	}
	add(devs)
	var sizes []sweepOpt
	for _, n := range sw.Nodes {
		n := n
		sizes = append(sizes, sweepOpt{AxisValue{"n", strconv.Itoa(n)},
			func(c *Spec) { c.Topology.Nodes = n }})
	}
	add(sizes)
	var pers []sweepOpt
	for _, p := range sw.PER {
		p := p
		// 6 significant digits keep labels like 7% from leaking float
		// noise (0.07·100 is not exactly 7 in binary).
		pers = append(pers, sweepOpt{AxisValue{"per", strconv.FormatFloat(p*100, 'g', 6, 64) + "%"},
			func(c *Spec) { c.Net.PER = p }})
	}
	add(pers)
	var losses []sweepOpt
	for _, p := range sw.InjectedLoss {
		p := p
		losses = append(losses, sweepOpt{AxisValue{"loss", strconv.FormatFloat(p*100, 'g', 6, 64) + "%"},
			func(c *Spec) { c.Net.InjectedLoss = p }})
	}
	add(losses)
	var intfs []sweepOpt
	for _, v := range sw.Interference {
		v := v
		intfs = append(intfs, sweepOpt{AxisValue{"intf", strconv.FormatFloat(v*100, 'g', 6, 64) + "%"},
			func(c *Spec) { c.Net.Interference = v }})
	}
	add(intfs)
	var ds []sweepOpt
	for _, d := range sw.RetryDelay {
		d := d
		ds = append(ds, sweepOpt{AxisValue{"d", d.String()},
			func(c *Spec) { c.Net.RetryDelay = &d }})
	}
	add(ds)
	var frames []sweepOpt
	for _, f := range sw.SegFrames {
		f := f
		frames = append(frames, sweepOpt{AxisValue{"mss", strconv.Itoa(f) + "f"},
			func(c *Spec) { c.Net.SegFrames = f }})
	}
	add(frames)
	var wins []sweepOpt
	for _, w := range sw.WindowSegs {
		w := w
		wins = append(wins, sweepOpt{AxisValue{"w", strconv.Itoa(w)},
			func(c *Spec) { c.Net.WindowSegs = w }})
	}
	add(wins)
	var vars []sweepOpt
	for _, v := range sw.Variants {
		v := v
		vars = append(vars, sweepOpt{AxisValue{"cc", v}, func(c *Spec) {
			for i := range c.Flows {
				c.Flows[i].Variant = v
			}
		}})
	}
	add(vars)
	var protos []sweepOpt
	for _, p := range sw.Protocols {
		p := p
		protos = append(protos, sweepOpt{AxisValue{"proto", p}, func(c *Spec) {
			protocol, confirmable, rto, _ := protoPreset(p)
			for i := range c.Flows {
				f := &c.Flows[i]
				f.Protocol = protocol
				f.Confirmable = confirmable
				f.RTO = rto
				if protocol != flows.ProtocolTCP {
					// TCP-only knobs have nothing to bind to.
					f.Variant, f.Profile, f.Trace = "", "", false
					f.WindowSegs, f.Pacing = 0, nil
				}
			}
		}})
	}
	add(protos)
	return out
}

// Expand returns the cartesian grid of cells a sweep spec describes, in
// deterministic order: axes in Sweep field order, the last-listed axis
// varying fastest. A spec without a sweep expands to itself. Each cell
// drops the Sweep block, appends "/axis=value" per coordinate to its
// name, records the coordinates in Point, and — when SeedStep is set —
// offsets every seed by cellIndex·SeedStep.
func (s *Spec) Expand() []*Spec {
	if s.Sweep == nil || s.Sweep.empty() {
		return []*Spec{s}
	}
	axes := s.Sweep.axes()
	var cells []*Spec
	picked := make([]sweepOpt, len(axes))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(axes) {
			cells = append(cells, s.cell(len(cells), picked))
			return
		}
		for _, o := range axes[depth] {
			picked[depth] = o
			rec(depth + 1)
		}
	}
	rec(0)
	return cells
}

// cell instantiates one expansion point of a sweep spec.
func (s *Spec) cell(i int, picked []sweepOpt) *Spec {
	c := *s
	c.Sweep = nil
	c.Point = nil
	c.Flows = append([]FlowSpec(nil), s.Flows...)
	c.Nodes = append([]NodeSpec(nil), s.Nodes...)
	c.Seeds = append([]int64(nil), s.Seeds...)
	if step := s.Sweep.SeedStep; step != 0 {
		if len(c.Seeds) == 0 {
			c.Seeds = []int64{1}
		}
		for k := range c.Seeds {
			c.Seeds[k] += int64(i) * step
		}
	}
	parts := make([]string, 0, len(picked))
	for _, o := range picked {
		o.apply(&c)
		c.Point = append(c.Point, o.av)
		parts = append(parts, o.av.Axis+"="+o.av.Value)
	}
	if len(parts) > 0 {
		c.Name = s.Name + "/" + strings.Join(parts, "/")
	}
	for i := range s.Sweep.Overrides {
		if ov := &s.Sweep.Overrides[i]; ov.matches(c.Point) {
			ov.apply(&c)
		}
	}
	return &c
}

// validateSweep checks the axis values themselves; the expanded cells
// are validated individually afterwards.
func (s *Spec) validateSweep() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: sweep: %s", s.Name, fmt.Sprintf(format, args...))
	}
	sw := s.Sweep
	if len(sw.Hops) > 0 && s.Topology.Kind != TopoChain && s.Topology.Kind != TopoTwinLeaf {
		return bad("hops axis needs a chain or twinleaf topology, not %q", s.Topology.Kind)
	}
	for _, h := range sw.Hops {
		if h < 1 {
			return bad("hops value %d < 1", h)
		}
	}
	if len(sw.Devices) > 0 && s.Topology.Kind != TopoStar && s.Topology.Kind != TopoChain {
		return bad("devices axis needs a star or chain topology, not %q", s.Topology.Kind)
	}
	for _, d := range sw.Devices {
		if d < 1 {
			return bad("devices value %d < 1", d)
		}
	}
	if len(sw.Nodes) > 0 && s.Topology.Kind != TopoRandomGeometric {
		return bad("nodes axis needs a random_geometric topology, not %q (chain/star sizes sweep via hops/devices)", s.Topology.Kind)
	}
	for _, n := range sw.Nodes {
		if n < 2 {
			return bad("nodes value %d < 2", n)
		}
	}
	for _, p := range sw.PER {
		if p < 0 || p >= 1 {
			return bad("per value %v out of range [0,1)", p)
		}
	}
	for _, p := range sw.InjectedLoss {
		if p < 0 || p >= 1 {
			return bad("injected_loss value %v out of range [0,1)", p)
		}
	}
	for _, v := range sw.Interference {
		if v < 0 {
			return bad("negative interference value %v", v)
		}
	}
	for _, d := range sw.RetryDelay {
		if d < 0 {
			return bad("negative retry_delay value %v", d)
		}
	}
	for _, f := range sw.SegFrames {
		if f < 1 {
			return bad("seg_frames value %d < 1", f)
		}
	}
	for _, w := range sw.WindowSegs {
		if w < 1 {
			return bad("window_segs value %d < 1", w)
		}
	}
	for _, v := range sw.Variants {
		if _, err := cc.Parse(v); err != nil {
			return bad("%v", err)
		}
	}
	for _, p := range sw.Protocols {
		if _, _, _, ok := protoPreset(p); !ok {
			return bad("unknown protocol preset %q (have tcp, udp, coap, coap-non, cocoa)", p)
		}
	}
	// Collect the exact coordinate strings each populated axis will
	// expand to, so a mistyped override value ("04", "40 ms") is a
	// validation error instead of a silently inert patch.
	axisValues := map[string]map[string]bool{}
	for _, dim := range sw.axes() {
		for _, opt := range dim {
			vs := axisValues[opt.av.Axis]
			if vs == nil {
				vs = map[string]bool{}
				axisValues[opt.av.Axis] = vs
			}
			vs[opt.av.Value] = true
		}
	}
	for i, ov := range sw.Overrides {
		if len(ov.When) == 0 {
			return bad("override %d has an empty when-block", i)
		}
		for axis, want := range ov.When {
			vs := axisValues[axis]
			if vs == nil {
				return bad("override %d conditions on axis %q, which the sweep does not populate (keys: hops, dev, n, per, loss, d, mss, w, cc, proto)", i, axis)
			}
			if !vs[want] {
				have := make([]string, 0, len(vs))
				for v := range vs {
					have = append(have, v)
				}
				sort.Strings(have)
				return bad("override %d: axis %q never takes value %q (cells: %s)",
					i, axis, want, strings.Join(have, ", "))
			}
		}
		if ov.Set.WindowSegs < 0 || ov.Set.SegFrames < 0 {
			return bad("override %d: negative window_segs/seg_frames", i)
		}
		if ov.Set.PER != nil && (*ov.Set.PER < 0 || *ov.Set.PER >= 1) {
			return bad("override %d: per %v out of range [0,1)", i, *ov.Set.PER)
		}
		if ov.Set.RetryDelay != nil && *ov.Set.RetryDelay < 0 {
			return bad("override %d: negative retry_delay", i)
		}
		if ov.Set.Variant != "" {
			if _, err := cc.Parse(ov.Set.Variant); err != nil {
				return bad("override %d: %v", i, err)
			}
		}
	}
	return nil
}

// nodeCount returns the mesh node count the topology will instantiate.
func (t TopologySpec) nodeCount() int {
	switch t.Kind {
	case TopoChain, TopoStar, TopoRandomGeometric:
		return t.Nodes
	case TopoOffice:
		return 15
	case TopoTwinLeaf:
		return t.PathHops + 2
	case TopoTree:
		return mesh.TreeNodes(t.Depth, t.Fanout)
	}
	return 0
}

// Validate checks the spec for structural errors — unknown kinds,
// out-of-range node ids, bad variants — so a Runner never panics
// mid-simulation on a malformed file.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Sweep != nil && !s.Sweep.empty() {
		// A sweep spec is checked axis-by-axis, then cell-by-cell: the
		// base topology may be incomplete (a hops axis supplies the node
		// count), so only the expanded cells are fully validated.
		if err := s.validateSweep(); err != nil {
			return err
		}
		for _, c := range s.Expand() {
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	}
	switch s.Topology.Kind {
	case TopoChain, TopoStar:
		if s.Topology.Nodes < 2 {
			return bad("topology %s needs nodes >= 2", s.Topology.Kind)
		}
	case TopoOffice:
	case TopoTwinLeaf:
		if s.Topology.PathHops < 1 {
			return bad("topology twinleaf needs path_hops >= 1")
		}
	case TopoRandomGeometric:
		if s.Topology.Nodes < 2 {
			return bad("topology random_geometric needs nodes >= 2")
		}
		if s.Topology.Density < 0 {
			return bad("topology random_geometric: negative density")
		}
	case TopoTree:
		if s.Topology.Depth < 1 || s.Topology.Fanout < 1 {
			return bad("topology tree needs depth >= 1 and fanout >= 1")
		}
	default:
		return bad("unknown topology kind %q (have chain, star, office, twinleaf, random_geometric, tree)", s.Topology.Kind)
	}
	n := s.Topology.nodeCount()
	if len(s.Flows) == 0 {
		return bad("no flows")
	}
	checkRef := func(r NodeRef) error {
		if r.Host || r.End || r.Gateway {
			return nil
		}
		if r.ID < 0 || r.ID >= n {
			return bad("node %d out of range (topology has %d nodes)", r.ID, n)
		}
		return nil
	}
	// The gateway's terminator ports live on node 0; a direct flow
	// sinking there would silently displace the shared listeners.
	gwPorts := map[int]bool{}
	if s.Gateway != nil {
		tcpPort, coapPort := int(s.Gateway.TCPPort), int(s.Gateway.CoAPPort)
		if tcpPort == 0 {
			tcpPort = gateway.DefaultTCPPort
		}
		if coapPort == 0 {
			coapPort = gateway.DefaultCoAPPort
		}
		gwPorts[tcpPort] = true
		gwPorts[coapPort] = true
	}
	sinks := map[string]int{}  // "to:port" → flow index
	gwSrc := map[string]int{}  // gateway-flow source → flow index
	perDevice, gwFlows := 0, 0 // gateway-flow census
	for i, f := range s.Flows {
		if err := checkRef(f.From); err != nil {
			return err
		}
		if err := checkRef(f.To); err != nil {
			return err
		}
		if f.From == f.To {
			return bad("flow %d: from == to (%s)", i, f.From)
		}
		if f.From.Host && f.To.Host {
			return bad("flow %d: both endpoints are the host", i)
		}
		if f.From.Gateway {
			return bad("flow %d: \"gateway\" is a sink reference (devices send up to the gateway tier)", i)
		}
		if f.To.Gateway {
			if s.Gateway == nil {
				return bad("flow %d: \"to\": \"gateway\" needs a gateway block", i)
			}
			if f.From.Host {
				return bad("flow %d: gateway flows originate at mesh devices, not the host", i)
			}
			switch flows.Canonical(f.Protocol) {
			case flows.ProtocolTCP, flows.ProtocolCoAP:
			default:
				return bad("flow %d: gateway flows need protocol tcp or coap, not %q", i, flows.Canonical(f.Protocol))
			}
			switch f.Pattern {
			case "", PatternAnemometer:
			default:
				return bad("flow %d: gateway flows carry telemetry (anemometer), not pattern %q", i, f.Pattern)
			}
			if f.Port != 0 {
				return bad("flow %d: gateway flows use the gateway's terminator ports; drop \"port\"", i)
			}
			// The gateway credits deliveries per source address; two flows
			// from one device would collide in its registration table.
			gwFlows++
			if f.PerDevice {
				perDevice++
			} else if prev, dup := gwSrc[f.From.String()]; dup {
				return bad("flows %d and %d both terminate device %s at the gateway (one gateway flow per device)", prev, i, f.From)
			} else {
				gwSrc[f.From.String()] = i
			}
		}
		if f.PerDevice && !f.To.Gateway {
			return bad("flow %d: per_device needs \"to\": \"gateway\"", i)
		}
		if f.Stride < 0 {
			return bad("flow %d: negative stride", i)
		}
		if f.Stride > 1 && !f.PerDevice {
			return bad("flow %d: stride only thins a per_device template", i)
		}
		if _, err := cc.Parse(f.Variant); err != nil {
			return bad("flow %d: %v", i, err)
		}
		if f.Profile != "" {
			if _, err := uip.ParseProfile(f.Profile); err != nil {
				return bad("flow %d: %v", i, err)
			}
		}
		switch f.Pattern {
		case "", PatternBulk, PatternOnOff, PatternAnemometer:
		default:
			return bad("flow %d: unknown pattern %q (have bulk, onoff, anemometer)", i, f.Pattern)
		}
		if _, ok := flows.Lookup(f.Protocol); !ok {
			return bad("flow %d: unknown protocol %q (have %s)", i, f.Protocol,
				strings.Join(flows.Protocols(), ", "))
		}
		if flows.Canonical(f.Protocol) != flows.ProtocolTCP {
			// Non-TCP drivers carry telemetry only; the TCP-specific
			// knobs have nothing to bind to.
			if f.Pattern == PatternBulk || f.Pattern == PatternOnOff {
				return bad("flow %d: pattern %q needs protocol tcp (udp/coap flows carry the anemometer pattern)", i, f.Pattern)
			}
			if f.Variant != "" || f.Profile != "" || f.Trace || f.WindowSegs != 0 || f.Pacing != nil {
				return bad("flow %d: variant/profile/trace/window_segs/pacing are TCP knobs; protocol is %q", i, f.Protocol)
			}
		}
		if f.Protocol != "coap" && (f.Confirmable != nil || f.RTO != "") {
			return bad("flow %d: confirmable/rto are coap knobs; protocol is %q", i, flows.Canonical(f.Protocol))
		}
		switch f.RTO {
		case "", "default", "cocoa":
		default:
			return bad("flow %d: unknown rto policy %q (have default, cocoa)", i, f.RTO)
		}
		if f.WindowSegs < 0 {
			return bad("flow %d: negative window_segs", i)
		}
		if f.On < 0 || f.Off < 0 || f.Interval < 0 {
			return bad("flow %d: negative on/off/interval", i)
		}
		// Two flows listening on the same node:port would silently
		// replace each other's sink (tcplp.Stack.Listen keeps the last
		// listener), crediting one flow with both streams. Gateway flows
		// share the gateway's terminators by design and skip the check.
		if f.To.Gateway {
			continue
		}
		port := int(f.Port)
		if port == 0 {
			port = 80 + i // the default withDefaults will assign
		}
		if !f.To.Host && !f.To.End && f.To.ID == 0 && gwPorts[port] {
			return bad("flow %d: port %d on node 0 is a gateway terminator port", i, port)
		}
		key := fmt.Sprintf("%s:%d", f.To, port)
		if prev, dup := sinks[key]; dup {
			return bad("flows %d and %d share sink %s", prev, i, key)
		}
		sinks[key] = i
	}
	if perDevice > 1 || (perDevice > 0 && gwFlows > perDevice) {
		return bad("a per_device gateway template must be the only gateway flow (its replicas cover every device)")
	}
	for _, ns := range s.Nodes {
		if ns.ID <= 0 || ns.ID >= n {
			return bad("node spec id %d out of range (1..%d)", ns.ID, n-1)
		}
		if ns.SleepInterval < 0 || (ns.FastInterval != nil && *ns.FastInterval < 0) {
			return bad("node %d: negative sleep/fast interval", ns.ID)
		}
		if ns.MinInterval < 0 || ns.MaxInterval < 0 {
			return bad("node %d: negative min/max interval", ns.ID)
		}
	}
	if a := s.AllNodes; a != nil {
		if a.SleepInterval < 0 || (a.FastInterval != nil && *a.FastInterval < 0) {
			return bad("all_nodes: negative sleep/fast interval")
		}
		if a.MinInterval < 0 || a.MaxInterval < 0 {
			return bad("all_nodes: negative min/max interval")
		}
	}
	if g := s.Gateway; g != nil {
		if g.MaxConns < 0 {
			return bad("gateway: negative max_conns")
		}
		if g.IdleTimeout < 0 {
			return bad("gateway: negative idle_timeout")
		}
		if g.WAN.BandwidthKbps < 0 {
			return bad("gateway: negative wan bandwidth_kbps")
		}
		if g.WAN.RTT < 0 {
			return bad("gateway: negative wan rtt")
		}
		if g.WAN.Loss < 0 || g.WAN.Loss >= 1 {
			return bad("gateway: wan loss %v out of range [0,1)", g.WAN.Loss)
		}
		if g.WAN.QueueCap < 0 {
			return bad("gateway: negative wan queue_cap")
		}
	}
	if s.Net.PER < 0 || s.Net.PER >= 1 {
		return bad("per %v out of range [0,1)", s.Net.PER)
	}
	if s.Net.InjectedLoss < 0 || s.Net.InjectedLoss >= 1 {
		return bad("injected_loss %v out of range [0,1)", s.Net.InjectedLoss)
	}
	if s.Net.Interference < 0 {
		return bad("negative interference peak")
	}
	if s.Net.RetryDelay != nil && *s.Net.RetryDelay < 0 {
		return bad("negative retry_delay")
	}
	if s.Net.WireDelay < 0 {
		return bad("negative wire_delay")
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return bad("negative duration")
	}
	if s.DCSample < 0 || s.IdleSettle < 0 || s.IdleWindow < 0 {
		return bad("negative dc_sample/idle_settle/idle_window")
	}
	return nil
}

// withDefaults returns a copy of the spec with defaults applied:
// measurement schedule, seeds, flow labels and ports. A zero warmup is
// honored (measure from t=0); zero values are only replaced where zero
// is meaningless (duration, interval, both onoff periods omitted).
func (s *Spec) withDefaults() *Spec {
	out := *s
	if out.Duration == 0 {
		out.Duration = Duration(60 * sim.Second)
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []int64{1}
	}
	// Materialize the all_nodes role template for every mesh node
	// without an explicit entry (in id order, deterministically).
	out.Nodes = append([]NodeSpec(nil), s.Nodes...)
	if s.AllNodes != nil {
		have := map[int]bool{}
		for _, ns := range out.Nodes {
			have[ns.ID] = true
		}
		for id := 1; id < out.Topology.nodeCount(); id++ {
			if have[id] {
				continue
			}
			ns := *s.AllNodes
			ns.ID = id
			out.Nodes = append(out.Nodes, ns)
		}
		out.AllNodes = nil
	}
	// Replicate per_device flow templates across the device fleet before
	// per-flow defaulting, so each replica gets its own label.
	out.Flows = make([]FlowSpec, 0, len(s.Flows))
	for _, f := range s.Flows {
		if !f.PerDevice {
			out.Flows = append(out.Flows, f)
			continue
		}
		step := f.Stride
		if step < 1 {
			step = 1
		}
		for id := 1; id < out.Topology.nodeCount(); id += step {
			r := f
			r.PerDevice = false
			r.Stride = 0
			r.From = NodeID(id)
			if f.Label != "" {
				r.Label = fmt.Sprintf("%s-%d", f.Label, id)
			}
			out.Flows = append(out.Flows, r)
		}
	}
	for i := range out.Flows {
		f := &out.Flows[i]
		if f.Port == 0 && !f.To.Gateway {
			// Gateway flows keep port 0: they share the gateway's
			// terminator ports instead of a private sink.
			f.Port = uint16(80 + i)
		}
		if f.Label == "" {
			f.Label = fmt.Sprintf("%s->%s", f.From, f.To)
		}
		if f.Pattern == "" {
			// Non-TCP protocols and gateway flows carry telemetry; direct
			// TCP defaults to a saturating stream.
			if f.To.Gateway || flows.Canonical(f.Protocol) != flows.ProtocolTCP {
				f.Pattern = PatternAnemometer
			} else {
				f.Pattern = PatternBulk
			}
		}
		if f.Pattern == PatternOnOff && f.On == 0 && f.Off == 0 {
			f.On = Duration(5 * sim.Second)
			f.Off = Duration(5 * sim.Second)
		}
		if f.Pattern == PatternAnemometer && f.Interval == 0 {
			f.Interval = Duration(sim.Second)
		}
	}
	return &out
}

// needsHost reports whether the wired cloud host must be attached.
func (s *Spec) needsHost() bool {
	if s.Net.AttachHost {
		return true
	}
	for _, f := range s.Flows {
		if f.From.Host || f.To.Host {
			return true
		}
	}
	return false
}
