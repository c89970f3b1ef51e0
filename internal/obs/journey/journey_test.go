package journey

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

func TestReadingSizeMatchesApp(t *testing.T) {
	if ReadingSize != app.ReadingSize {
		t.Fatalf("journey.ReadingSize = %d, app.ReadingSize = %d", ReadingSize, app.ReadingSize)
	}
}

// ev abbreviates event construction for hand-built traces.
func ev(t sim.Time, k obs.Kind, node int, j, a, b int64, ln int, cause obs.Cause) obs.Event {
	return obs.Event{T: t, Kind: k, Node: node, J: j, A: a, B: b, Len: ln, Cause: cause}
}

func TestAnalyzeDeliveredGatewayTCP(t *testing.T) {
	// One reading (node 3, seq 1) through a gateway flow, with one
	// retransmission: jid 7 is the first transmission, jid 9 delivers.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(2100, obs.MacBackoff, 3, 7, 3, 2, 0, 0), // BE=3, 2 slots drawn
		ev(2200, obs.PhyTx, 3, 7, 4000, 0, 100, 0),
		ev(5000, obs.JourneySeg, 3, 9, 0, 0, 82, 0), // retransmission
		ev(5100, obs.MacBackoff, 3, 9, 3, 1, 0, 0),
		ev(5200, obs.MacRetry, 3, 9, 1, 700, 0, 0),
		ev(5300, obs.PhyTx, 3, 9, 3000, 0, 100, 0),
		ev(10000, obs.JourneyMesh, 3, 0, 1, 0, 0, 0),
		ev(12000, obs.JourneyWanEnq, 3, 0, 1, 0, 0, 0),
		ev(20000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
	}
	rep := Analyze(events)
	if len(rep.Readings) != 1 {
		t.Fatalf("got %d readings, want 1", len(rep.Readings))
	}
	r := rep.Readings[0]
	if r.State != StateDelivered {
		t.Fatalf("state = %v, want delivered", r.State)
	}
	if r.PID != 9 {
		t.Fatalf("delivering pid = %d, want 9", r.PID)
	}
	b := &r.Buckets
	want := map[string]sim.Duration{
		"app-queue": 1000, "send-wait": 1000, "rtx-stall": 3000,
		"mesh": 5000, "gateway": 2000, "wan": 8000,
	}
	got := map[string]sim.Duration{
		"app-queue": b.AppQueue, "send-wait": b.SendWait, "rtx-stall": b.RtxStall,
		"mesh": b.Mesh, "gateway": b.Gateway, "wan": b.WAN,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d us, want %d us", k, got[k], w)
		}
	}
	if b.Total() != r.End.Sub(r.Gen) {
		t.Errorf("buckets sum to %d, e2e is %d", b.Total(), r.End.Sub(r.Gen))
	}
	// Sub-buckets come from the delivering pid only (jid 9).
	if wantBackoff := 1*phy.UnitBackoff + phy.CCATime; b.Backoff != wantBackoff {
		t.Errorf("backoff = %d, want %d", b.Backoff, wantBackoff)
	}
	if b.Retry != 700 {
		t.Errorf("retry = %d, want 700", b.Retry)
	}
	if b.Air != 3000 {
		t.Errorf("air = %d, want 3000", b.Air)
	}
	if b.Forward != b.Mesh-b.Backoff-b.Retry-b.Air {
		t.Errorf("forward = %d, want residual %d", b.Forward, b.Mesh-b.Backoff-b.Retry-b.Air)
	}
	if c := Check(rep); c.Err() != nil {
		t.Fatalf("conformance: %v", c.Err())
	}
}

func TestAnalyzeDirectFlowNoGateway(t *testing.T) {
	// Direct flow: no mesh/wan events; deliver terminates the mesh stage.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 2, 0, 5, 0, 0, 0),
		ev(100, obs.JourneyEnq, 2, 0, 5, 0, 0, 0),
		ev(300, obs.JourneySeg, 2, 11, 0, 0, 82, 0),
		ev(900, obs.JourneyDeliver, 2, 0, 5, 0, 0, 0),
	}
	rep := Analyze(events)
	r := rep.Readings[0]
	b := &r.Buckets
	if b.Mesh != 600 || b.Gateway != 0 || b.WAN != 0 {
		t.Fatalf("mesh/gw/wan = %d/%d/%d, want 600/0/0", b.Mesh, b.Gateway, b.WAN)
	}
	if b.Total() != 900 {
		t.Fatalf("total = %d, want 900", b.Total())
	}
}

func TestUnreliableDatagramAdoptsDropCause(t *testing.T) {
	// Two readings ride one unreliable datagram (jid 5) that the MAC
	// terminally drops: both must resolve lost with the drop's cause.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 4, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 4, 0, 2, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 1, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 2, 1, 0, 0),
		ev(200, obs.JourneyData, 4, 5, 1, 2, 0, 0), // Len=0: unreliable
		ev(800, obs.MacDrop, 4, 5, 0, 0, 0, obs.CauseRetriesExhausted),
	}
	rep := Analyze(events)
	for _, r := range rep.Readings {
		if r.State != StateLost {
			t.Fatalf("seq %d state = %v, want lost", r.Seq, r.State)
		}
		if r.Cause != obs.CauseRetriesExhausted {
			t.Fatalf("seq %d cause = %v, want retries_exhausted", r.Seq, r.Cause)
		}
		if r.End != 800 {
			t.Fatalf("seq %d end = %d, want 800", r.Seq, r.End)
		}
	}
	c := Check(rep)
	if c.Err() != nil {
		t.Fatalf("conformance: %v", c.Err())
	}
	if c.LostByCause["retries_exhausted"] != 2 {
		t.Fatalf("lost by cause = %v", c.LostByCause)
	}
}

func TestReliableDatagramIgnoresRecoverableDrop(t *testing.T) {
	// A CoAP CON datagram's packet drop is not terminal — the exchange
	// retransmits. Without a JourneyLoss the reading stays in flight.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 4, 0, 1, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 1, 0, 0, 0),
		ev(200, obs.JourneyData, 4, 5, 1, 1, 1, 0), // Len=1: reliable
		ev(800, obs.MacDrop, 4, 5, 0, 0, 0, obs.CauseRetriesExhausted),
	}
	rep := Analyze(events)
	r := rep.Readings[0]
	if r.State != StateInFlight || r.Stage != "mesh" {
		t.Fatalf("state/stage = %v/%q, want in-flight/mesh", r.State, r.Stage)
	}
}

func TestInFlightStaging(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 1, 0, 1, 0, 0, 0), // never accepted
		ev(0, obs.JourneyGen, 1, 0, 2, 0, 0, 0),
		ev(10, obs.JourneyEnq, 1, 0, 2, 0, 0, 0), // accepted, in mesh
		ev(0, obs.JourneyGen, 1, 0, 3, 0, 0, 0),
		ev(10, obs.JourneyEnq, 1, 0, 3, 1, 0, 0),
		ev(20, obs.JourneyMesh, 1, 0, 3, 0, 0, 0), // at gateway
	}
	rep := Analyze(events)
	want := map[uint32]string{1: "app-queue", 2: "mesh", 3: "gateway"}
	for _, r := range rep.Readings {
		if r.Stage != want[r.Seq] {
			t.Errorf("seq %d stage = %q, want %q", r.Seq, r.Stage, want[r.Seq])
		}
	}
	c := Check(rep)
	if c.InFlight != 3 {
		t.Fatalf("in flight = %d, want 3", c.InFlight)
	}
}

func TestConformanceFlagsCauselessLoss(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 1, 0, 1, 0, 0, 0),
		ev(50, obs.JourneyLoss, 1, 0, 1, 0, 0, obs.CauseNone),
	}
	c := Check(Analyze(events))
	if c.Err() == nil {
		t.Fatal("expected a violation for a causeless loss")
	}
}

func TestChromeWriterEmitsValidJSON(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(9000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 3, 0, 2, 0, 0, 0),
		ev(500, obs.JourneyLoss, 3, 0, 2, 0, 0, obs.CauseAppQueueFull),
	}
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.AddRun("unit", 1, Analyze(events))
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace-event JSON: %v\n%s", err, buf.String())
	}
	if len(out) < 4 {
		t.Fatalf("got %d trace events, want >= 4", len(out))
	}
	if out[0]["ph"] != "M" {
		t.Fatalf("first event should be process metadata, got %v", out[0])
	}
}

func TestWaterfallRenders(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(9000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
	}
	rep := Analyze(events)
	s := rep.Flows[3].Waterfall()
	for _, want := range []string{"app-queue", "mesh", "1 delivered"} {
		if !strings.Contains(s, want) {
			t.Errorf("waterfall missing %q:\n%s", want, s)
		}
	}
}

// TestRecorderRetainsNoIgnoredEvents pins the streaming contract: events
// the analyzer does not read cost no allocation and leave no state, so
// a recorder's memory follows the readings, not the run's event count.
func TestRecorderRetainsNoIgnoredEvents(t *testing.T) {
	ignored := []obs.Event{
		ev(10, obs.PhyCollision, 1, 0, 2, 0, 0, obs.CauseCollision),
		ev(20, obs.PhyRxDrop, 2, 0, 1, 0, 0, obs.CausePER),
		ev(30, obs.TCPCwnd, 3, 0, 4, 8, 0, 0),
		ev(40, obs.GwAdmit, 4, 0, 1, 0, 0, 0),
		ev(50, obs.MacBackoff, 5, 0, 3, 2, 0, 0), // J == 0: untagged
		ev(60, obs.PhyTx, 6, 0, 4000, 0, 100, 0), // J == 0: untagged
	}
	const perRun = 1 << 20 // about 1M events
	rec := NewRecorder()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < perRun; i++ {
			rec.Record(ignored[i%len(ignored)])
		}
	})
	if allocs != 0 {
		t.Errorf("recording %d ignored events allocated %.0f times, want 0", perRun, allocs)
	}
	if n := len(rec.readings) + len(rec.order) + len(rec.segs) + len(rec.datas) + len(rec.pids); n != 0 {
		t.Errorf("recorder retained %d entries from ignored events (readings %d, segs %d, datas %d, pids %d)",
			n, len(rec.readings), len(rec.segs), len(rec.datas), len(rec.pids))
	}
}

func BenchmarkAnalyze(b *testing.B) {
	var events []obs.Event
	for seq := int64(1); seq <= 200; seq++ {
		t0 := sim.Time(seq * 10000)
		jid := seq
		events = append(events,
			ev(t0, obs.JourneyGen, 3, 0, seq, 0, 0, 0),
			ev(t0+100, obs.JourneyEnq, 3, 0, seq, seq-1, 0, 0),
			ev(t0+200, obs.JourneySeg, 3, jid, (seq-1)*ReadingSize, 0, 82, 0),
			ev(t0+300, obs.MacBackoff, 3, jid, 3, 2, 0, 0),
			ev(t0+400, obs.PhyTx, 3, jid, 4000, 0, 100, 0),
			ev(t0+5000, obs.JourneyDeliver, 3, 0, seq, 0, 0, 0),
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Analyze(events)
		if len(rep.Readings) != 200 {
			b.Fatal("bad reconstruction")
		}
	}
}
