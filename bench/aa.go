package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
)

// aaRow compares one metric of one workload between two sets of end-to-end
// runs of the same code. The benchmark is only as good as this table: a
// metric whose two medians differ by more than its bound, or whose runs
// spread wider than its bound, cannot resolve a regression of that size.
// A metric the contract lists per layer has no bound and is not judged;
// its row says what bound this box could have held.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	Diff     float64   `json:"diff"`   // (median_b − median_a) / median_a
	Spread   float64   `json:"spread"` // IQR/median over all runs of both sets
	Bound    float64   `json:"bound,omitempty"`
	OK       bool      `json:"ok"`
}

// runAA runs the whole set n times twice over, alternating the two sides
// run by run so that drift in the machine lands on both. Every run gets a
// seed of its own, as the driver's do.
func runAA(cfg config, n int) error {
	values := map[string]*[2][]float64{} // "workload/metric" → the two sides
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			c := cfg
			c.seed = cfg.seed + int64(2*i+side)
			for _, wl := range workloads {
				res, err := child(c, wl.name, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: an output check failed", wl.name)
				}
				for name, m := range res.Metrics {
					key := wl.name + "/" + name
					if values[key] == nil {
						values[key] = &[2][]float64{}
					}
					values[key][side] = append(values[key][side], m.Value)
				}
			}
		}
	}
	var rows []aaRow
	bad := 0
	fmt.Printf("\n%-15s %-17s %12s %12s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range slices.Concat(cfg.spec.EndToEnd, cfg.spec.PerLayer) {
			v := values[wl.name+"/"+d.Name]
			if v == nil {
				continue // a layer-pass metric: these runs were not traced
			}
			row := aaRow{Workload: wl.name, Metric: d.Name, Unit: d.Unit, A: v[0], B: v[1], Bound: d.Bound,
				MedianA: median(v[0]), MedianB: median(v[1]), Spread: spread(append(append([]float64{}, v[0]...), v[1]...))}
			row.Diff = (row.MedianB - row.MedianA) / row.MedianA
			// Both sides run the same code, so a difference either way is noise.
			// setup_s is judged on its medians alone, as the driver judges it.
			row.OK = d.Bound == 0 || math.Abs(row.Diff) <= d.Bound && (row.Spread <= d.Bound || d.Name == "setup_s")
			bound, mark := "-", ""
			if d.Bound != 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			if !row.OK {
				mark = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-15s %-17s %12.4f %12.4f %+8.3f %8.3f %6s%s\n",
				row.Workload, row.Metric, row.MedianA, row.MedianB, row.Diff, row.Spread, bound, mark)
			rows = append(rows, row)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "aa.json"), rows); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d metric pairs exceed their bound", bad, len(rows))
	}
	return nil
}
