package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"tcplp/internal/mesh"
	"tcplp/internal/scenario"
)

// workload is one generated benchmark input: scenario specs built from
// the seed, plus the topologies those specs construct (timed on their
// own to split set-up between the mesh and stack layers).
type workload struct {
	name string
	// journey runs the workload with per-reading journey analysis on, as
	// users run it with tcplp-bench -journey.
	journey bool
	// specs renders the workload's spec documents. Set-up timing renders
	// the same documents with 1 ms windows.
	specs func(seed int64, warmup, duration string) []map[string]any
	// topologies lists one constructor call per (cell, seed) run, in run
	// order.
	topologies func(seed int64) []func() mesh.Topology
}

var workloads = map[string]workload{
	"metro":         {name: "metro", specs: metroSpecs, topologies: metroTopologies},
	"metro_journey": {name: "metro_journey", journey: true, specs: metroSpecs, topologies: metroTopologies},
	"bulk_chain":    {name: "bulk_chain", specs: bulkSpecs, topologies: bulkTopologies},
	"duty_fleet":    {name: "duty_fleet", specs: dutySpecs, topologies: dutyTopologies},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// build renders the workload's specs for seed and hands them to the
// simulator's own spec parser, so the program sees exactly what a user
// running the printed JSON with tcplp-bench -scenario would. Empty
// warmup/duration keep the workload's own measurement windows.
func (w workload) build(seed int64, warmup, duration string) ([]*scenario.Spec, error) {
	data, err := json.Marshal(w.specs(seed, warmup, duration))
	if err != nil {
		return nil, err
	}
	specs, err := scenario.ParseSpecs(data)
	if err != nil {
		return nil, fmt.Errorf("%s: generated spec rejected: %w", w.name, err)
	}
	return specs, nil
}

// window returns the override when set, else the workload default.
func window(override, def string) string {
	if override != "" {
		return override
	}
	return def
}

// Metro: the city_10k shape. 10,000 random-geometric nodes at mean
// degree 16 and 500 per-device anemometer flows (one reading every 30 s,
// open loop) to the gateway. Every seed explores city_10k's city
// (placement seed 1), as that spec does: the border router's
// neighbourhood is the bottleneck, so a new placement per seed moves
// modelled delivery by ±9% and allocations by ±4%, where a new channel
// moves them by ±3% and ±2%. The seed picks the channel: seed 0 is
// city_10k's, seed s uses channel seed s+1.
const (
	metroNodes     = 10000
	metroDensity   = 16
	metroPlacement = 1
)

func metroSpecs(seed int64, warmup, duration string) []map[string]any {
	return []map[string]any{{
		"name": "metro",
		"topology": map[string]any{
			"kind": "random_geometric", "nodes": metroNodes, "density": metroDensity, "seed": metroPlacement,
		},
		"gateway": map[string]any{
			"wan": map[string]any{"bandwidth_kbps": 256, "rtt": "50ms", "queue_cap": 256},
		},
		"flows": []map[string]any{{
			"label": "dev", "to": "gateway", "per_device": true, "stride": 20,
			"pattern": "anemometer", "interval": "30s",
		}},
		"warmup":   window(warmup, "30s"),
		"duration": window(duration, "60s"),
		"seeds":    []int64{seed + 1},
	}}
}

func metroTopologies(int64) []func() mesh.Topology {
	return []func() mesh.Topology{func() mesh.Topology {
		return mesh.RandomGeometric(metroNodes, metroDensity, metroPlacement)
	}}
}

// Bulk chain: the fig6_sweep shape. One saturating, ACK-clocked NewReno
// stream over a 1-hop and a 3-hop chain, sweeping the link-retry delay,
// three channel seeds per cell. Seed 0 starts from fig6_sweep's seeds
// (110 and 130).
var (
	bulkHops   = []int{1, 3}
	bulkDelays = []string{"0s", "5ms", "10ms", "20ms", "40ms", "100ms"}
)

const bulkSeedsPerCell = 3

func bulkSpecs(seed int64, warmup, duration string) []map[string]any {
	var docs []map[string]any
	for _, hops := range bulkHops {
		base := 90 + 20*int64(hops) + 1000*seed
		var seeds []int64
		for i := int64(0); i < bulkSeedsPerCell; i++ {
			seeds = append(seeds, base+100*i)
		}
		docs = append(docs, map[string]any{
			"name":     fmt.Sprintf("bulk-%dhop", hops),
			"topology": map[string]any{"kind": "chain", "nodes": hops + 1},
			"flows":    []map[string]any{{"from": "end", "to": 0}},
			"sweep":    map[string]any{"retry_delay": bulkDelays, "seed_step": 1},
			"warmup":   window(warmup, "15s"),
			"duration": window(duration, "120s"),
			"seeds":    seeds,
		})
	}
	return docs
}

func bulkTopologies(int64) []func() mesh.Topology {
	var out []func() mesh.Topology
	for _, hops := range bulkHops {
		n := hops + 1
		for i := 0; i < len(bulkDelays)*bulkSeedsPerCell; i++ {
			out = append(out, func() mesh.Topology { return mesh.Chain(n, 10) })
		}
	}
	return out
}

// Duty fleet: the gateway_capacity shape with the transport swept
// instead of the congestion controller. A star of sleepy devices
// (8 s polls) sends one anemometer reading every 500 ms through the
// gateway onto an 8 kb/s WAN, for 2..16 devices (past the WAN collapse
// point) over TCP and CoAP with the CoCoA RTO. Seed 0 is
// gateway_capacity's seed list.
var (
	dutyDevices   = []int{2, 4, 8, 16}
	dutyProtocols = []string{"tcp", "cocoa"}
)

const dutySeedsPerCell = 3

func dutySpecs(seed int64, warmup, duration string) []map[string]any {
	var seeds []int64
	for i := int64(0); i < dutySeedsPerCell; i++ {
		seeds = append(seeds, 800+99991*(i+dutySeedsPerCell*seed))
	}
	return []map[string]any{{
		"name":      "duty",
		"topology":  map[string]any{"kind": "star"},
		"all_nodes": map[string]any{"sleepy": true, "sleep_interval": "8s"},
		"gateway": map[string]any{
			"max_conns": 64,
			"wan":       map[string]any{"bandwidth_kbps": 8, "rtt": "100ms", "loss": 0.01, "queue_cap": 32},
		},
		"flows": []map[string]any{{
			"label": "dev", "to": "gateway", "per_device": true,
			"pattern": "anemometer", "interval": "500ms",
		}},
		"sweep": map[string]any{
			"devices": dutyDevices, "protocols": dutyProtocols, "seed_step": 7,
		},
		"warmup":   window(warmup, "1m"),
		"duration": window(duration, "10m"),
		"seeds":    seeds,
	}}
}

func dutyTopologies(int64) []func() mesh.Topology {
	var out []func() mesh.Topology
	for _, dev := range dutyDevices {
		n := dev + 1
		for i := 0; i < len(dutyProtocols)*dutySeedsPerCell; i++ {
			out = append(out, func() mesh.Topology { return mesh.Star(n, 10) })
		}
	}
	return out
}
