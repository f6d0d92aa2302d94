package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is the length of one measured run.
const runSeconds = 45

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json, with exactly its contract's keys.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []nameWhy       `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

// workloadsFile is perfbench/workloads.json: what BENCHMARK.json has no
// keys for — each workload's loop, rate, latency limit, seeds and inputs,
// every metric's definition, and the predictions.
type workloadsFile struct {
	SeedPool    string       `json:"seed_pool"`
	Workloads   []workload   `json:"workloads"`
	EndToEnd    []metric     `json:"end_to_end"`
	PerLayer    []metric     `json:"per_layer"`
	Predictions []prediction `json:"predictions"`
	NotReported []string     `json:"not_in_metrics"`
}

func writeManifest() error {
	bf := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Unlisted == "" {
			bf.Workloads = append(bf.Workloads, nameWhy{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		bf.EndToEnd = append(bf.EndToEnd, boundedMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		bf.PerLayer = append(bf.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	wf := workloadsFile{
		SeedPool: fmt.Sprintf("estimator seeds come from a fixed pool of %d (generator seed %#x); --seed picks a window of %d "+
			"consecutive entries; perfbench/digests stores the result digest of every pool entry", poolSize, poolBase, windowLen),
		Workloads:   workloads,
		EndToEnd:    endToEnd,
		PerLayer:    perLayer,
		Predictions: predictions,
		NotReported: []string{
			"fail_frac is failed/attempted of the result line, and is printed by name",
			"slo_miss_frac is 1 - slo_met_frac, printed by name; the result line carries slo_met_frac because a metric must never be 0",
		},
	}
	if err := writeJSON("BENCHMARK.json", bf); err != nil {
		return err
	}
	return writeJSON("perfbench/workloads.json", wf)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
