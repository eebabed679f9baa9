// Command bench is the repository's one benchmark: four closed-loop
// workloads over the product's public functions and seams, the ten
// numbers a user pays measured with tracing off, and a traced layer pass
// that gives every module its own numbers. BENCHMARK.json at the
// repository root names every metric and says which are gated. See
// README.md.
//
//	go run ./bench                               every workload, end to end then its layer pass
//	go run ./bench -workload net-submit          one workload, end to end
//	go run ./bench -workload net-submit -trace 1 the same, then its layer pass
//	go run ./bench -aa 5                         two alternating sets of 5 runs, compared
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	spec, err := loadContract()
	if err != nil {
		fatal(err)
	}
	cfg := config{spec: spec}
	name := flag.String("workload", "", "run one workload in this process (default: each in a child process, traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated op streams")
	flag.Float64Var(&cfg.seconds, "seconds", float64(spec.RunSeconds), "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = the layer pass after the end-to-end run, and the per-layer metrics on the last line")
	aa := flag.Int("aa", 0, "run every workload N times twice over, alternating, and compare the two sets")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for results, spans and durable stores")
	flag.Parse()
	// Two workers on two cores: the reference box has nproc = 2, and a
	// fixed value keeps runs comparable across hosts.
	runtime.GOMAXPROCS(workers)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *aa > 0:
		err = runAA(cfg, *aa)
	case *name == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg, *name, *traced == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// line is the one-line result the driver parses: the last line of
// standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result: the
// end-to-end run, with nothing between the harness and the product, and
// when traced the layer pass after it.
func runOne(cfg config, name string, traced bool) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	h := fingerprint(cfg.outDir)
	h.print()
	ctx := context.Background()
	res, err := runEndToEnd(ctx, cfg, wl)
	if err != nil {
		return err
	}
	defs := cfg.spec.EndToEnd
	if traced {
		defs = cfg.spec.PerLayer
		if err := runLayers(ctx, cfg, wl, res); err != nil {
			return err
		}
	}
	if err := res.conform(cfg.spec, defs); err != nil {
		return err
	}
	res.print(cfg.spec)
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), report{Host: h, Runs: []*runResult{res}}); err != nil {
		return err
	}
	out := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = lineValue{res.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: an output check failed", name)
	}
	return nil
}

// conform stamps units and insists that the run measured every metric of
// defs, and nothing the contract does not name.
func (r *runResult) conform(spec *contract, defs []metricDef) error {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
	}
	for _, d := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		if m, ok := r.Metrics[d.Name]; ok {
			m.Unit = d.Unit
			r.Metrics[d.Name] = m
		}
	}
	for k, m := range r.Metrics {
		if m.Unit == "" {
			return fmt.Errorf("%s: metric %s is not in the contract", r.Workload, k)
		}
	}
	return nil
}

// print lists what the run measured, in the contract's order.
func (r *runResult) print(spec *contract) {
	kind := "end to end, tracing off"
	if r.Traced {
		kind += ", then the layer pass, spans on"
	}
	fmt.Printf("\n%s (seed %d, %g s, %s)\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, d := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-32s %14.4f %-8s", d.Name, m.Value, m.Unit)
		if d.Bound != 0 {
			fmt.Printf(" bound %.2f", d.Bound)
		}
		if m.Spread != 0 {
			fmt.Printf(" spread %.3f", m.Spread)
		}
		if m.N != 0 {
			fmt.Printf(" n=%d", m.N)
		}
		fmt.Println()
	}
	fmt.Printf("  ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
}

// report is the shape of result.json.
type report struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// child runs one workload in a process of its own — a fresh heap and its
// own peak RSS — echoes what it printed, and reads its result back.
func child(cfg config, name string, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	resultFile := filepath.Join(cfg.outDir, "result.json")
	os.Remove(resultFile)
	runErr := cmd.Run()
	// Everything but the last line, which is the driver's.
	text := strings.TrimRight(stdout.String(), "\n")
	fmt.Println(text[:max(strings.LastIndexByte(text, '\n'), 0)])
	var rep report
	b, err := os.ReadFile(resultFile)
	if err == nil {
		err = json.Unmarshal(b, &rep)
	}
	if err != nil || len(rep.Runs) != 1 {
		return nil, fmt.Errorf("%s: no result from the child: %v", name, errors.Join(runErr, err))
	}
	return rep.Runs[0], nil
}

// runAll runs every workload, one at a time, end to end and traced.
func runAll(cfg config) error {
	rep := report{Host: fingerprint(cfg.outDir)}
	var failed []string
	for _, wl := range workloads {
		res, err := child(cfg, wl.name, true)
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		if !res.Correct {
			failed = append(failed, wl.name+": an output check failed")
		}
		rep.Runs = append(rep.Runs, res)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), rep); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}
