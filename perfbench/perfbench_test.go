package main

import (
	"bytes"
	"runtime/pprof"
	"testing"

	"tcplp/internal/scenario"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tcplp/internal/phy.(*Channel).endTx":            "phy",
		"tcplp/internal/tcplp/cc.(*NewReno).OnAck":       "tcplp",
		"tcplp/internal/obs/journey.Analyze":             "obs",
		"tcplp/internal/sim.(*Engine).RunFor.func1":      "sim",
		"tcplp/internal/scenario.(*Runner).RunAll.func1": "other",
		"tcplp/internal/ip6.Decode":                      "other",
		"runtime.mallocgc":                               "",
		"tcplp/perfbench.runPass":                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Every workload's generated specs must pass the simulator's own
// validation, and topologies() must list one constructor per run: the
// parent checks each pass against that count.
func TestWorkloadsMatchTheirTopologies(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, seed := range []int64{0, 1, 17} {
			specs, err := w.build(seed, "", "")
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			runs := 0
			for _, s := range specs {
				for _, cell := range s.Expand() {
					runs += len(cell.Seeds)
				}
			}
			if want := len(w.topologies(seed)); runs != want {
				t.Errorf("%s seed %d: specs expand to %d runs, topologies lists %d", name, seed, runs, want)
			}
		}
	}
}

// Profiling a real run and folding it must attribute samples to the
// simulator's layers: a bulk chain keeps the event engine and the MAC
// busy. (Under -race most samples land in the race runtime, which the
// profiler cannot unwind, so no share is asserted.)
func TestFoldProfileOfBulkChain(t *testing.T) {
	specs, err := workloads["bulk_chain"].build(0, "1s", "60s")
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	_, err = (&scenario.Runner{Workers: 1}).RunAll(specs)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, n := range cpu {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("fold produced unknown layer %q", l)
		}
		total += n
	}
	if total < 20 {
		t.Fatalf("only %d samples folded", total)
	}
	if cpu["sim"] == 0 || cpu["mac"] == 0 {
		t.Errorf("no samples in sim or mac (split %v)", cpu)
	}
}

func TestFoldRejectsTruncatedProfile(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0x05, 0x0a}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
