package phy_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// phyTrace runs scripted contending traffic over topo and returns a full
// delivery/collision trace: every decoded frame (receiver, size, time) plus
// each radio's sent/received/dropped counters. The per-link PER draw
// consumes the shared engine RNG, so the trace also proves the delivery
// *iteration order* matches — any reordering desynchronizes the stream.
func phyTrace(t *testing.T, topo mesh.Topology, seed int64, brute bool) string {
	t.Helper()
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(topo.TxRange, topo.SenseRange))
	if brute {
		ch.DisableIndex()
	} else if !ch.Indexed() {
		t.Fatal("unit-disk channel did not build a spatial index")
	}
	ch.PER = func(src, dst *phy.Radio) float64 { return 0.05 }
	var trace strings.Builder
	radios := make([]*phy.Radio, topo.N())
	for i, p := range topo.Positions {
		r := ch.AddRadio(i, p)
		r.SetListen(true)
		i := i
		r.OnReceive = func(data []byte) {
			fmt.Fprintf(&trace, "rx %d len %d at %d\n", i, len(data), eng.Now())
		}
		radios[i] = r
	}
	script := rand.New(rand.NewSource(seed + 99))
	for k := 0; k < 500; k++ {
		r := radios[script.Intn(len(radios))]
		at := sim.Time(script.Int63n(int64(2 * sim.Second)))
		size := 20 + script.Intn(80)
		eng.At(at, func() {
			if !r.Transmitting() {
				r.Transmit(make([]byte, size))
			}
		})
	}
	eng.Run()
	for i, r := range radios {
		fmt.Fprintf(&trace, "radio %d sent %d recv %d dropped %d\n",
			i, r.FramesSent(), r.FramesReceived(), r.ReceptionsDropped())
	}
	return trace.String()
}

// TestGridIndexMatchesBruteForce is the PHY-index equivalence regression:
// office, twinleaf, and a seeded random-geometric field must produce
// bit-identical delivery and collision traces under the spatial index and
// the retained all-pairs reference path.
func TestGridIndexMatchesBruteForce(t *testing.T) {
	topos := map[string]mesh.Topology{
		"office":   mesh.Office(),
		"twinleaf": mesh.TwinLeaf(4, 20),
		"random":   mesh.RandomGeometric(150, 8, 5),
	}
	for name, topo := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			grid := phyTrace(t, topo, seed, false)
			brute := phyTrace(t, topo, seed, true)
			if grid != brute {
				gl, bl := strings.Split(grid, "\n"), strings.Split(brute, "\n")
				for i := 0; i < len(gl) && i < len(bl); i++ {
					if gl[i] != bl[i] {
						t.Fatalf("%s seed %d: traces diverge at line %d:\n  grid:  %s\n  brute: %s",
							name, seed, i, gl[i], bl[i])
					}
				}
				t.Fatalf("%s seed %d: trace lengths differ (%d vs %d lines)", name, seed, len(gl), len(bl))
			}
		}
	}
}

// Moving a radio must invalidate cached neighbor sets: after SetPos the
// index and the brute-force path agree on the new geometry.
func TestGridIndexSetPosInvalidates(t *testing.T) {
	run := func(brute bool) string {
		eng := sim.NewEngine(1)
		ch := phy.NewChannel(eng, phy.NewUnitDisk(10, 13))
		if brute {
			ch.DisableIndex()
		}
		var trace strings.Builder
		a := ch.AddRadio(0, phy.Point{X: 0})
		b := ch.AddRadio(1, phy.Point{X: 100}) // out of range
		b.SetListen(true)
		a.SetListen(true)
		b.OnReceive = func(data []byte) { fmt.Fprintf(&trace, "b got %d at %d\n", len(data), eng.Now()) }
		eng.Schedule(10*sim.Millisecond, func() { a.Transmit(make([]byte, 30)) })
		// Walk b into range, then transmit again.
		eng.Schedule(100*sim.Millisecond, func() { b.SetPos(phy.Point{X: 8}) })
		eng.Schedule(200*sim.Millisecond, func() { a.Transmit(make([]byte, 40)) })
		eng.Run()
		fmt.Fprintf(&trace, "recv %d dropped %d\n", b.FramesReceived(), b.ReceptionsDropped())
		return trace.String()
	}
	grid, brute := run(false), run(true)
	if grid != brute {
		t.Fatalf("SetPos behavior diverged:\ngrid:\n%s\nbrute:\n%s", grid, brute)
	}
	if !strings.Contains(grid, "b got 40") {
		t.Fatalf("moved radio did not receive: %s", grid)
	}
}
