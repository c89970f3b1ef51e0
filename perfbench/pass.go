package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"tcplp/internal/obs/journey"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// passConfig selects what one pass of a workload measures. Each pass
// runs in its own process, so its peak RSS is its own.
type passConfig struct {
	journey      bool // journey analysis and conformance checking on
	profile      bool // CPU profile folded to layers
	setup        bool // time set-up alone (1 ms windows)
	constructors bool // time the topology and stack constructors alone
}

// passResult is what a pass process reports to the parent.
type passResult struct {
	Runs int `json:"runs"` // (cell, seed) runs executed
	// RunS and SetupS are CPU seconds (see cpuTime); WallS is the wall
	// time of the same RunAll.
	RunS     float64 `json:"run_s"`
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s,omitempty"`
	Mallocs  uint64  `json:"mallocs"`
	GCCycles uint32  `json:"gc_cycles"`
	Events   uint64  `json:"events"`
	// Digest hashes every Result with its journey block removed;
	// RunDigests lists the per-run digests it is made of.
	Digest     string      `json:"digest"`
	RunDigests []runDigest `json:"run_digests"`
	// Counts holds Result.Layers summed over runs plus flow-level sums;
	// Modelled the simulated outcomes reported end to end.
	Counts   map[string]float64 `json:"counts"`
	Modelled map[string]float64 `json:"modelled"`
	Journey  *journeyStats      `json:"journey,omitempty"`
	// CPU counts profile samples per layer.
	CPU       map[string]int64 `json:"cpu,omitempty"`
	TopologyS float64          `json:"topology_s,omitempty"`
	StackS    float64          `json:"stack_s,omitempty"`
}

type runDigest struct {
	Run    string `json:"run"`
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

// journeyStats sums the journey reports of every run in a pass.
type journeyStats struct {
	Readings   int      `json:"readings"`
	Delivered  int      `json:"delivered"`
	Violations int      `json:"violations"`
	Examples   []string `json:"examples,omitempty"` // first few violations
	// StageMs sums each latency stage over delivered readings, in ms.
	StageMs map[string]float64 `json:"stage_ms"`
}

const maxViolationExamples = 5

// journeyStages names the latency stages in Buckets field order; the
// mesh stage is reported through its four sub-stages.
var journeyStages = [...]string{"app_queue", "send_wait", "rtx_stall",
	"mesh_backoff", "mesh_retry", "mesh_air", "mesh_forward", "gateway", "wan"}

func (js *journeyStats) add(name string, seed int64, rep *journey.Report) {
	c := journey.Check(rep)
	js.Readings += c.Generated
	js.Delivered += c.Delivered
	js.Violations += len(c.Violations)
	for _, v := range c.Violations {
		if len(js.Examples) < maxViolationExamples {
			js.Examples = append(js.Examples, fmt.Sprintf("%s seed %d: %v", name, seed, v))
		}
	}
	for _, r := range rep.Readings {
		if r.State != journey.StateDelivered {
			continue
		}
		b := &r.Buckets
		for i, d := range [...]sim.Duration{b.AppQueue, b.SendWait, b.RtxStall,
			b.Backoff, b.Retry, b.Air, b.Forward, b.Gateway, b.WAN} {
			js.StageMs[journeyStages[i]] += d.Milliseconds()
		}
	}
}

// runPass executes the workload once in this process and measures it.
func runPass(w workload, seed int64, pc passConfig) (*passResult, error) {
	specs, err := w.build(seed, "", "")
	if err != nil {
		return nil, err
	}
	var js *journeyStats
	runner := scenario.Runner{Workers: 1}
	if pc.journey {
		js = &journeyStats{StageMs: map[string]float64{}}
		runner.Obs = &scenario.ObsConfig{Journey: true, OnJourney: js.add}
	}
	var prof bytes.Buffer
	if pc.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu0 := time.Now(), cpuTime()
	out, err := runner.RunAll(specs)
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	if pc.profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	res := &passResult{
		RunS:     cpu.Seconds(),
		WallS:    elapsed.Seconds(),
		Mallocs:  after.Mallocs - before.Mallocs,
		GCCycles: after.NumGC - before.NumGC,
		Journey:  js,
	}
	if err := res.summarize(out); err != nil {
		return nil, err
	}
	if pc.profile {
		if res.CPU, err = foldProfile(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("folding CPU profile: %w", err)
		}
	}
	// Set-up and constructor timings follow the measured run. Collect its
	// garbage first, so they neither pay for it nor raise the peak RSS.
	if pc.setup || pc.constructors {
		out = nil
		runtime.GC()
	}
	if pc.setup {
		if res.SetupS, err = timeSetup(w, seed, runner.Obs); err != nil {
			return nil, err
		}
	}
	if pc.constructors {
		for _, topo := range w.topologies(seed) {
			t0 := time.Now()
			tp := topo()
			t1 := time.Now()
			stack.New(1, tp, stack.DefaultOptions())
			res.TopologyS += t1.Sub(t0).Seconds()
			res.StackS += time.Since(t1).Seconds()
		}
	}
	return res, nil
}

// cpuTime is the user and system CPU time of this process, all threads.
// The guest kernel leaves steal time out of it (paravirtual time
// accounting), so unlike wall time it does not grow while the
// hypervisor runs other tenants on the benchmark's vCPUs. With one
// simulation worker and an otherwise idle host it is within a few
// percent of wall time; the GC's work on the second core counts too.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Set-up is timed by running the same specs with 1 ms windows: what
// remains is building the networks, starting the flows and collecting
// an empty result. Small workloads build in milliseconds, so set-up is
// repeated until minSetupTime is spent and the median CPU time kept.
const (
	minSetupTime = 250 * time.Millisecond
	maxSetupReps = 64
)

func timeSetup(w workload, seed int64, oc *scenario.ObsConfig) (float64, error) {
	specs, err := w.build(seed, "0s", "1ms")
	if err != nil {
		return 0, err
	}
	if oc != nil {
		oc = &scenario.ObsConfig{Journey: true} // no conformance accounting
	}
	runner := scenario.Runner{Workers: 1, Obs: oc}
	var reps []float64
	var spent time.Duration
	for len(reps) < maxSetupReps && (len(reps) == 0 || spent < minSetupTime) {
		start, cpu0 := time.Now(), cpuTime()
		if _, err := runner.RunAll(specs); err != nil {
			return 0, fmt.Errorf("set-up run: %w", err)
		}
		spent += time.Since(start)
		reps = append(reps, (cpuTime() - cpu0).Seconds())
	}
	return median(reps), nil
}

// summarize fills the counts, modelled outcomes and digests from the
// pass's results. It strips journey blocks first, so a traced pass
// digests equal to an untraced one.
func (res *passResult) summarize(out []*scenario.SpecResult) error {
	res.Counts = map[string]float64{}
	var flows int
	var goodput, radioDC float64
	var credited, generated, bytes, sentBytes float64
	h := sha256.New()
	for _, sr := range out {
		for ri := range sr.Runs {
			run := &sr.Runs[ri]
			res.Runs++
			res.Events += run.Events
			for layer, m := range run.Layers {
				for k, v := range m {
					res.Counts[layer+"."+k] += v
				}
			}
			for fi := range run.Flows {
				f := &run.Flows[fi]
				f.Journey = nil
				flows++
				goodput += f.GoodputKbps
				radioDC += f.RadioDC
				bytes += float64(f.Bytes)
				sentBytes += float64(f.SentBytes)
				if f.Generated > 0 {
					generated += float64(f.Generated)
					if f.Gateway {
						credited += float64(f.E2EDelivered)
					} else {
						credited += float64(f.Delivered)
					}
				}
				proto := f.Protocol
				res.Counts[proto+".retransmits"] += float64(f.Retransmits)
				res.Counts[proto+".timeouts"] += float64(f.Timeouts)
			}
			data, err := json.Marshal(run)
			if err != nil {
				return fmt.Errorf("digesting %s seed %d: %w", run.Name, run.Seed, err)
			}
			sum := sha256.Sum256(data)
			h.Write(sum[:])
			res.RunDigests = append(res.RunDigests, runDigest{
				Run: run.Name, Seed: run.Seed, Digest: hex.EncodeToString(sum[:8]),
			})
		}
	}
	if flows == 0 {
		return fmt.Errorf("workload produced no flows")
	}
	res.Digest = hex.EncodeToString(h.Sum(nil)[:16])
	// Telemetry workloads deliver readings; bulk streams deliver bytes,
	// so their delivery ratio is useful bytes over bytes sent including
	// retransmissions.
	delivery := credited / generated
	if generated == 0 {
		delivery = bytes / sentBytes
	}
	res.Modelled = map[string]float64{
		"goodput_kbps":   goodput / float64(flows),
		"delivery_ratio": delivery,
		"radio_dc_pct":   100 * radioDC / float64(flows),
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
