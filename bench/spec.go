package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the contract, and the only
// copy of it: the workloads' names and whys, and every metric's name,
// unit, direction and bound. This file keeps what the contract does not
// say: how each workload is run.

type workload struct {
	name     string
	daemons  bool // two quicksandd behind the SDK, else core.New in-process
	durable  bool
	replicas int
	mix      mix
	// rate is the seed's throughput on the reference box, in ops/s over
	// both workers. It turns --seconds into a fixed amount of work; nothing
	// is paced by it.
	rate int
}

var workloads = []workload{
	{name: "engine-guess", replicas: 3, rate: 16_000, mix: mix{pSync: 0.02, pRead: 0.02}},
	{name: "durable-commit", replicas: 3, durable: true, rate: 6_200, mix: mix{pSync: 0.02, pRead: 0.02}},
	{name: "net-submit", replicas: 2, daemons: true, rate: 9_200, mix: mix{pSync: 0.02, pRead: 0.02}},
	{name: "full-stack", replicas: 2, daemons: true, durable: true, rate: 2_400, mix: mix{pSync: 0.15, pRead: 0.15, zipf: 1.2}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening of the median
}

// contract is the part of BENCHMARK.json the benchmark itself reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadContract reads BENCHMARK.json from the repository root: the working
// directory of `go run ./bench`, the parent of `go test`'s.
func loadContract() (*contract, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		raw, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q where the benchmark runs %q", w.Name, workloads[i].name)
		}
	}
	return &c, nil
}
