// Command perfbench is the repository's benchmark. It generates one of
// four workloads from a seed, runs it through the public scenario API
// in separate processes, checks that the results are correct and
// deterministic, and prints every metric by name with its unit. The
// last line of its output is a JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"run_cpu_s": {"value": 3.7, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced; with --trace 1 they are the per-layer ones, from an
// untraced pass, a journey-traced pass and CPU-profiled passes. The
// metric names and units are read from BENCHMARK.json in the working
// directory. See README.md for the workloads and what each metric
// should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload metro --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	minTimedPasses = 3 // for a median and a determinism check
	// warmUpShare of the budget goes to untimed passes first: on a
	// shared 2-vCPU virtual machine the first pass after an idle spell
	// ran about 30% slower than the passes after it.
	warmUpShare = 0.15
	maxSeconds  = 150
	// hardLimit kills pass processes still running this long after the
	// benchmark started, so a hung simulation cannot hang the benchmark.
	hardLimit = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 0, "input seed, >= 0; 0 reproduces the checked-in example specs")
		seconds = flag.Float64("seconds", 10, "measurement budget in seconds (at least three passes run)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
		specs   = flag.Bool("print-specs", false, "print the workload's generated specs as JSON and exit")
		pass    = flag.Bool("pass", false, "run one pass in this process and print it as JSON")
		pc      passConfig
	)
	flag.BoolVar(&pc.journey, "journey", false, "with --pass: journey analysis on")
	flag.BoolVar(&pc.profile, "profile", false, "with --pass: fold a CPU profile to layers")
	flag.BoolVar(&pc.setup, "setup", false, "with --pass: time set-up alone")
	flag.BoolVar(&pc.constructors, "constructors", false, "with --pass: time the topology and stack constructors")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seed < 0 {
		fail("--seed must be >= 0")
	}
	switch {
	case *pass:
		res, err := runPass(w, *seed, pc)
		if err != nil {
			fail("%s pass: %v", w.name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail("%v", err)
		}
		return
	case *specs:
		out, err := json.MarshalIndent(w.specs(*seed, "", ""), "", "  ")
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
		return
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 || *seconds > maxSeconds {
		fail("--seconds must be in (0, %d]", maxSeconds)
	}
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		expected: len(w.topologies(*seed)), deadline: time.Now().Add(hardLimit)}
	var metrics map[string]float64
	declared := m.EndToEnd
	if *trace == 0 {
		metrics = b.endToEnd()
	} else {
		metrics = b.perLayer()
		declared = m.PerLayer
	}
	b.report(metrics, declared)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// manifest is the part of BENCHMARK.json that names the metrics.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// bench is one benchmark run: one workload, one seed, one budget.
type bench struct {
	w        workload
	seed     int64
	budget   time.Duration
	expected int       // (cell, seed) runs per pass
	deadline time.Time // pass processes still running then are killed

	attempted, failed int
	digest            string // of the first good pass
}

// spawn runs one pass in a child process and checks it. It returns nil
// when the pass failed or disagreed with the first pass.
func (b *bench) spawn(pc passConfig) (*passResult, float64) {
	b.attempted += b.expected
	res, rss, err := b.child(pc)
	if err == nil {
		err = b.check(res)
	}
	if err != nil {
		b.failed += b.expected
		fmt.Fprintf(os.Stderr, "perfbench: %s pass (%+v): %v\n", b.w.name, pc, err)
		return nil, 0
	}
	return res, rss
}

func (b *bench) child(pc passConfig) (*passResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), b.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--pass", "--workload", b.w.name,
		"--seed", strconv.FormatInt(b.seed, 10),
		"--journey="+strconv.FormatBool(pc.journey), "--profile="+strconv.FormatBool(pc.profile),
		"--setup="+strconv.FormatBool(pc.setup), "--constructors="+strconv.FormatBool(pc.constructors))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("pass process: %w", err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("pass output: %w", err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return &res, rss, nil
}

// check holds a pass to the correctness contract: every (cell, seed)
// run completed, and its results are bit-identical to the first pass
// of this benchmark run, whether traced, profiled or not.
func (b *bench) check(res *passResult) error {
	if res.Runs != b.expected {
		return fmt.Errorf("%d runs completed, want %d", res.Runs, b.expected)
	}
	if res.Events == 0 {
		return fmt.Errorf("no simulator events")
	}
	if b.digest == "" {
		b.digest = res.Digest
		return nil
	}
	if res.Digest != b.digest {
		return fmt.Errorf("results differ from the first pass (digest %s, want %s)", res.Digest, b.digest)
	}
	return nil
}

// warmUp spawns untimed passes, checked like the others, until
// warmUpShare of the budget is spent, at least one. It returns the
// longest pass time, or false when a pass failed.
func (b *bench) warmUp(pc passConfig, start time.Time) (time.Duration, bool) {
	var longest time.Duration
	for n := 0; n == 0 || time.Since(start) < time.Duration(warmUpShare*float64(b.budget)); n++ {
		t0 := time.Now()
		if res, _ := b.spawn(pc); res == nil {
			return 0, false
		}
		longest = max(longest, time.Since(t0))
	}
	return longest, true
}

// passes spawns passes until the next would overrun the budget, at
// least atLeast of them. longest is the longest pass seen so far.
func (b *bench) passes(pc passConfig, atLeast int, start time.Time, longest time.Duration) ([]*passResult, []float64) {
	var out []*passResult
	var rss []float64
	for n := 0; n < atLeast || time.Since(start)+longest <= b.budget; n++ {
		t0 := time.Now()
		res, r := b.spawn(pc)
		longest = max(longest, time.Since(t0))
		if res == nil {
			break // a failing pass fails the same way again
		}
		out = append(out, res)
		rss = append(rss, r)
	}
	return out, rss
}

// endToEnd times passes of the workload as users run it: untraced,
// except metro_journey, whose journeys are the workload.
func (b *bench) endToEnd() map[string]float64 {
	start := time.Now()
	pc := passConfig{journey: b.w.journey, setup: true}
	longest, ok := b.warmUp(pc, start)
	if !ok {
		return nil
	}
	passes, rss := b.passes(pc, minTimedPasses, start, longest)
	if len(passes) == 0 {
		return nil
	}
	var run, wall, setup, mallocs []float64
	for _, p := range passes {
		run = append(run, p.RunS)
		wall = append(wall, p.WallS)
		setup = append(setup, p.SetupS)
		mallocs = append(mallocs, float64(p.Mallocs)/1e6)
	}
	b.printDigests(passes[0])
	fmt.Printf("%s: %d passes, run_cpu_s %s\n", b.w.name, len(passes), list(run))
	fmt.Printf("%s: wall s %s\n", b.w.name, list(wall))
	fmt.Printf("%s: setup_s %s\n%s: peak_rss_mib %s\n", b.w.name, list(setup), b.w.name, list(rss))
	mod := passes[0].Modelled
	// Peak RSS is a mean, not a median: a pass's peak falls on one of a
	// few levels set by where the GC runs (metro_journey: about 485, 525
	// or 570 MiB), and the median of a few passes jumps between levels.
	return map[string]float64{
		"setup_s":        median(setup),
		"run_cpu_s":      median(run),
		"mallocs_m":      median(mallocs),
		"peak_rss_mib":   mean(rss),
		"goodput_kbps":   mod["goodput_kbps"],
		"delivery_ratio": mod["delivery_ratio"],
		"radio_dc_pct":   mod["radio_dc_pct"],
	}
}

// perLayer takes the per-layer numbers: counts and constructor timings
// from an untraced pass, journey metrics from a traced pass (the
// difference in run time is the tracing overhead), and the CPU split
// from profiled passes of the workload as users run it.
func (b *bench) perLayer() map[string]float64 {
	start := time.Now()
	longest, ok := b.warmUp(passConfig{}, start)
	if !ok {
		return nil
	}
	plain, plainRSS := b.spawn(passConfig{constructors: true})
	if plain == nil {
		return nil
	}
	traced, tracedRSS := b.spawn(passConfig{journey: true})
	if traced == nil {
		return nil
	}
	fmt.Printf("%s: peak RSS %.1f MiB untraced, %.1f MiB traced\n", b.w.name, plainRSS, tracedRSS)
	profiled, _ := b.passes(passConfig{journey: b.w.journey, profile: true}, 1, start, longest)
	if len(profiled) == 0 {
		return nil
	}
	b.printDigests(plain)
	c := plain.Counts
	m := map[string]float64{
		"mesh.topology_s":               plain.TopologyS,
		"stack.build_s":                 plain.StackS,
		"ip.fragments_fwd":              c["ip.fragments_fwd"],
		"ip.queue_drops":                c["ip.queue_drops"],
		"ip.link_failures":              c["ip.link_failures"],
		"phy.frames_sent":               c["phy.frames_sent"],
		"phy.frames_recv":               c["phy.frames_recv"],
		"phy.rx_dropped":                c["phy.rx_dropped"],
		"phy.fanout":                    ratio(c["phy.frames_recv"], c["phy.frames_sent"]),
		"phy.rx_drop_ratio":             ratio(c["phy.rx_dropped"], c["phy.frames_recv"]+c["phy.rx_dropped"]),
		"mac.data_sent":                 c["mac.data_sent"],
		"mac.retries":                   c["mac.retries"],
		"mac.retry_ratio":               ratio(c["mac.retries"], c["mac.data_sent"]),
		"mac.csma_failures":             c["mac.csma_failures"],
		"mac.data_dropped":              c["mac.data_dropped"],
		"sim.events":                    float64(plain.Events),
		"sim.kev_per_s":                 float64(plain.Events) / plain.RunS / 1000,
		"sixlowpan.reassembly_timeouts": c["sixlowpan.reassembly_timeouts"],
		"tcp.segs_in":                   c["tcp.segs_in"],
		"tcp.retransmits":               c["tcp.retransmits"],
		"tcp.timeouts":                  c["tcp.timeouts"],
		"tcp.rtx_ratio":                 ratio(c["tcp.retransmits"], c["tcp.segs_in"]),
		"coap.retransmits":              c["coap.retransmits"],
		"coap.timeouts":                 c["coap.timeouts"],
		"gateway.readings_in":           c["gateway.readings_in"],
		"gateway.readings_out":          c["gateway.readings_out"],
		"gateway.readings_lost":         c["gateway.readings_lost"],
		"gateway.evicted":               c["gateway.evicted"],
		"wan.queue_drops":               c["wan.queue_drops"],
		"wan.loss_drops":                c["wan.loss_drops"],
		"runtime.gc_cycles":             float64(plain.GCCycles),
		"runtime.allocs_per_event":      ratio(float64(plain.Mallocs), float64(plain.Events)),
		"trace.overhead_s":              traced.RunS - plain.RunS,
	}
	js := traced.Journey
	m["journey.readings"] = float64(js.Readings)
	m["journey.violations"] = float64(js.Violations)
	for _, st := range journeyStages {
		m["journey."+st+"_ms"] = ratio(js.StageMs[st], float64(js.Delivered))
	}
	for _, ex := range js.Examples {
		fmt.Printf("journey violation: %s\n", ex)
	}
	cpu := map[string]int64{}
	var total int64
	for _, p := range profiled {
		for l, n := range p.CPU {
			cpu[l] += n
			total += n
		}
	}
	for _, l := range layers {
		m["cpu."+l] = 100 * ratio(float64(cpu[l]), float64(total))
	}
	fmt.Printf("%s: %d CPU samples over %d profiled passes\n", b.w.name, total, len(profiled))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printDigests shows each run's result digest, so two commits can be
// compared for bit-identical simulation results.
func (b *bench) printDigests(p *passResult) {
	for _, d := range p.RunDigests {
		fmt.Printf("digest %s seed=%d %s\n", d.Run, d.Seed, d.Digest)
	}
	fmt.Printf("digest %s %s\n", b.w.name, p.Digest)
}

func list(xs []float64) string {
	var s []string
	for _, x := range xs {
		s = append(s, strconv.FormatFloat(x, 'f', 3, 64))
	}
	return strings.Join(s, " ")
}

// report prints every declared metric with its unit and then the
// result line. A failed run still reports what it measured, with
// correct false; a metric the code does not compute is a benchmark bug.
func (b *bench) report(metrics map[string]float64, declared []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range declared {
		v, ok := metrics[d.Name]
		if !ok && metrics != nil {
			fail("metric %s is declared in BENCHMARK.json but not computed", d.Name)
		}
		out[d.Name] = value{v, d.Unit}
		fmt.Printf("%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if len(metrics) > len(declared) {
		var extra []string
		for k := range metrics {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		fail("metrics computed but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && metrics != nil, b.attempted, b.failed, out})
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}
