// Command tcplp-bench reproduces the paper's tables and figures and
// runs declarative multi-flow scenarios. Each experiment id corresponds
// to one table or figure of the evaluation; "all" runs the complete
// set. Every simulating experiment executes through the scenario
// runner, so -workers parallelizes its (spec, seed) grid without
// changing a single cell (serial and parallel aggregates are
// bit-identical) and -seeds N runs every measurement point over N
// independent channel realizations, rendered as mean ± σ.
//
// A scenario file describes topology, link conditions, node roles,
// per-flow transport configuration, and optionally a sweep block that
// expands the spec into a cartesian grid of cells.
//
// Usage:
//
//	tcplp-bench -list
//	tcplp-bench -exp fig4 [-scale 0.25] [-markdown]
//	tcplp-bench -exp fig6 -workers 8 -seeds 5     # parallel, with error bars
//	tcplp-bench -exp fig9 -seeds 5 -ci            # Student-t 95% CI cells
//	tcplp-bench -exp all -scale 0.1
//	tcplp-bench -exp ccvariants -window 8
//	tcplp-bench -scenario examples/scenarios/twinleaf_mixed.json
//	tcplp-bench -scenario examples/scenarios/interference.json   # TCP vs CoAP
//	tcplp-bench -scenario sweep.json -workers 8 -format csv > out.csv
//	tcplp-bench -scenario spec.json -duration 5s -warmup 1s  # smoke run
//
// Scale 1.0 runs the full published durations (the fig10/table8 day-long
// runs take a while); smaller scales shrink the measurement windows
// proportionally and are fine for checking shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tcplp/internal/experiments"
	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/scenario"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp/cc"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale    = flag.Float64("scale", 1.0, "duration scale factor (1.0 = full runs)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown")
		list     = flag.Bool("list", false, "list experiment ids")
		variant  = flag.String("variant", "", "congestion-control variant for all experiments (newreno|cubic|westwood|bbr|vegas)")
		window   = flag.Int("window", 0, "send/receive window in segments for all experiments (default 4)")
		seeds    = flag.Int("seeds", 0, "independent seeds per measurement point (experiments: mean ± σ tables; scenarios: overrides the spec's seed list)")
		ci       = flag.Bool("ci", false, "render multi-seed cells as mean ± Student-t 95% CI instead of mean ± σ")
		workers  = flag.Int("workers", 0, "worker pool size for the scenario runner (0 = all CPUs)")
		scenFile = flag.String("scenario", "", "run a JSON scenario spec file instead of an experiment")
		format   = flag.String("format", "summary", "scenario output: summary|csv|json")
		durFlag  = flag.String("duration", "", "override every scenario spec's measurement window (e.g. 5s)")
		warmFlag = flag.String("warmup", "", "override every scenario spec's warmup (e.g. 1s)")
		traceOut = flag.String("trace-out", "", "capture every 802.15.4 frame to this pcapng file (scenario runs)")
		evOut    = flag.String("events-out", "", "write the structured NDJSON event trace to this file (scenario runs)")
		evLayers = flag.String("events-layers", "", "filter -events-out to these comma-separated layers (phy,mac,sixlowpan,ip,tcp,coap,gateway,wan,journey)")
		evFlows  = flag.String("events-flow", "", "filter -events-out to these comma-separated flow labels' source nodes")
		jrny     = flag.Bool("journey", false, "reconstruct per-reading packet journeys and attach latency attribution to flow results (scenario runs)")
		jrnyOut  = flag.String("journey-out", "", "write per-reading span trees as Chrome trace events to this file (Perfetto-loadable; implies -journey)")
		metrIntv = flag.String("metrics-interval", "", "sample per-layer metrics into -events-out at this period (e.g. 10s)")
		stallWin = flag.String("flight-stall", "4s", "attach the flight recorder with this stall window (0 disables the stall checker; scenario runs)")
		delivThr = flag.Float64("flight-threshold", 0.5, "attach the flight recorder with this end-of-run delivery-ratio dump threshold (0 disables; scenario runs)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after GC) to this file")
	)
	flag.Parse()
	// The flight recorder is attached only on request: its stall checker
	// schedules engine events, which would shift a traced run's
	// Result.Events.
	flight := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "flight-stall" || f.Name == "flight-threshold" {
			flight = true
		}
	})

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *variant != "" {
		v, err := cc.Parse(*variant)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stack.DefaultVariant = v
		fmt.Fprintf(os.Stderr, "congestion control: %s\n", v)
	}
	if *window != 0 {
		if *window < 1 {
			fmt.Fprintf(os.Stderr, "-window must be >= 1 segment\n")
			os.Exit(1)
		}
		stack.DefaultWindowSegs = *window
		fmt.Fprintf(os.Stderr, "window: %d segments\n", *window)
	}
	if *seeds < 0 {
		fmt.Fprintln(os.Stderr, "-seeds must be >= 1 (omit or 0 for the single-seed default)")
		os.Exit(1)
	}

	if *scenFile != "" {
		// The experiment flags have no meaning for scenarios — a spec
		// carries its own absolute durations — so reject them rather
		// than silently run something other than what was asked for.
		if *exp != "" || *markdown || *scale != 1.0 {
			fmt.Fprintln(os.Stderr, "-scenario cannot be combined with -exp/-scale/-markdown; set durations and seeds in the spec file")
			os.Exit(1)
		}
		oc, finish := buildObsConfig(*traceOut, *evOut, *evLayers, *evFlows, *metrIntv, *jrny, *jrnyOut, flight, *stallWin, *delivThr)
		runScenario(*scenFile, *workers, *seeds, *format, *durFlag, *warmFlag, oc)
		finish()
		return
	}
	if *durFlag != "" || *warmFlag != "" {
		fmt.Fprintln(os.Stderr, "-duration/-warmup only apply to -scenario; use -scale for experiments")
		os.Exit(1)
	}
	if *traceOut != "" || *evOut != "" || *metrIntv != "" || *jrny || *jrnyOut != "" || flight {
		fmt.Fprintln(os.Stderr, "-trace-out/-events-out/-journey/-journey-out/-metrics-interval/-flight-* only apply to -scenario runs")
		os.Exit(1)
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %-10s %s\n", e.ID, e.Desc)
		}
		if *exp == "" {
			os.Exit(0)
		}
		return
	}

	if *ci && *seeds < 2 {
		fmt.Fprintln(os.Stderr, "note: -ci needs -seeds >= 2 to have anything to put an interval on")
	}
	opts := experiments.Opts{
		Scale:   experiments.Scale(*scale),
		Seeds:   *seeds,
		Workers: *workers,
		CI:      *ci,
	}
	run := func(e experiments.Experiment) {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Desc)
		if e.SweepsVariants && *variant != "" {
			fmt.Fprintf(os.Stderr, "note: %s sweeps all variants; -variant is ignored for it\n", e.ID)
		}
		if *seeds > 1 && !e.MultiSeed {
			fmt.Fprintf(os.Stderr, "note: %s does not run through the scenario runner; -seeds is ignored for it\n", e.ID)
		}
		for _, tab := range e.Run(opts) {
			if *markdown {
				fmt.Println(tab.Markdown())
			} else {
				fmt.Println(tab.String())
			}
		}
	}

	if *exp == "all" {
		for _, e := range experiments.Registry {
			run(e)
		}
		return
	}
	e, ok := experiments.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
	run(e)
}

// parseDur converts a -duration/-warmup override into a scenario
// duration.
func parseDur(flagName, s string) scenario.Duration {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		fmt.Fprintf(os.Stderr, "bad -%s %q: want a Go duration like 5s\n", flagName, s)
		os.Exit(1)
	}
	return scenario.Duration(d / time.Microsecond)
}

// buildObsConfig assembles the scenario runner's observability config
// from the CLI flags; nil when no capture was requested. The flight
// recorder is attached only when flight is set (a -flight-* flag was
// given), dumping stalled or low-delivery flow timelines to stderr. The
// returned finish func flushes deferred writers (the Chrome trace's
// closing bracket) and must run after the scenario completes.
func buildObsConfig(traceOut, evOut, evLayers, evFlows, metrIntv string, jrny bool, jrnyOut string, flight bool, stallWin string, delivThr float64) (*scenario.ObsConfig, func()) {
	finish := func() {}
	if traceOut == "" && evOut == "" && !jrny && jrnyOut == "" && !flight {
		if metrIntv != "" {
			fmt.Fprintln(os.Stderr, "-metrics-interval needs -events-out to write the samples to")
			os.Exit(1)
		}
		if evLayers != "" || evFlows != "" {
			fmt.Fprintln(os.Stderr, "-events-layers/-events-flow need -events-out to filter")
			os.Exit(1)
		}
		return nil, finish
	}
	oc := &scenario.ObsConfig{Journey: jrny}
	if evLayers != "" || evFlows != "" {
		if evOut == "" {
			fmt.Fprintln(os.Stderr, "-events-layers/-events-flow need -events-out to filter")
			os.Exit(1)
		}
		oc.EventLayers = splitList(evLayers)
		oc.EventFlows = splitList(evFlows)
	}
	if jrnyOut != "" {
		f, err := os.Create(jrnyOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cw := journey.NewChromeWriter(f)
		oc.JourneyOut = cw
		finish = func() {
			if err := cw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
	if evOut != "" {
		f, err := os.Create(evOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		oc.Events = obs.NewNDJSONWriter(f)
		if metrIntv != "" {
			oc.MetricsInterval = parseDur("metrics-interval", metrIntv).D()
		}
	} else if metrIntv != "" {
		fmt.Fprintln(os.Stderr, "-metrics-interval needs -events-out to write the samples to")
		os.Exit(1)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pw, err := obs.NewPcapWriter(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		oc.Pcap = pw
	}
	if flight {
		fc := &scenario.FlightConfig{
			DeliveryThreshold: delivThr,
			Out:               obs.NewDumpWriter(os.Stderr),
		}
		if stallWin != "" && stallWin != "0" {
			fc.StallWindow = parseDur("flight-stall", stallWin).D()
		}
		oc.Flight = fc
	}
	return oc, finish
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runScenario loads a spec file, applies schedule/seed overrides,
// expands sweeps, fans the cells out across the worker pool, and prints
// the results in the requested format.
func runScenario(path string, workers, seeds int, format, durOverride, warmOverride string, oc *scenario.ObsConfig) {
	switch format {
	case "summary", "csv", "json":
	default:
		// Fail before the sweep runs, not after: full-scale scenario
		// files can take a long time.
		fmt.Fprintf(os.Stderr, "unknown -format %q (have summary, csv, json)\n", format)
		os.Exit(1)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specs, err := scenario.ParseSpecs(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, s := range specs {
		if durOverride != "" {
			s.Duration = parseDur("duration", durOverride)
		}
		if warmOverride != "" {
			s.Warmup = parseDur("warmup", warmOverride)
		}
		if seeds > 0 {
			base := int64(1)
			if len(s.Seeds) > 0 {
				base = s.Seeds[0]
			}
			s.Seeds = make([]int64, seeds)
			for i := range s.Seeds {
				s.Seeds[i] = base + int64(i)
			}
		}
	}
	// Expand sweeps up front so the run count is honest; expansion is
	// idempotent, so handing the cells to RunAll changes nothing.
	var cells []*scenario.Spec
	for _, s := range specs {
		cells = append(cells, s.Expand()...)
	}
	nRuns := 0
	for _, s := range cells {
		n := len(s.Seeds)
		if n == 0 {
			n = 1
		}
		nRuns += n
	}
	fmt.Fprintf(os.Stderr, "running %d scenario cell(s), %d run(s)...\n", len(cells), nRuns)
	results, err := (&scenario.Runner{Workers: workers, Obs: oc}).RunAll(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	switch format {
	case "summary":
		for _, sr := range results {
			fmt.Print(sr.Summary())
		}
	case "csv":
		if err := scenario.WriteCSV(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "json":
		if err := scenario.WriteJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
