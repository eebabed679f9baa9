package main

import (
	"context"
	"reflect"
	"regexp"
	"testing"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	m := mix{pSync: 0.15, pRead: 0.15, zipf: 1.2}
	a := genStreams(7, 2, 2, 5000, m)
	b := genStreams(7, 2, 2, 5000, m)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, genStreams(8, 2, 2, 5000, m)) {
		t.Fatal("different seeds, same streams")
	}
	if reflect.DeepEqual(a[0].ops, a[1].ops) {
		t.Fatal("both workers drew the same ops")
	}
	counts := map[class]int{}
	for w, st := range a {
		if st.route != w%2 {
			t.Fatalf("worker %d routed to entry %d", w, st.route)
		}
		for _, o := range st.ops {
			counts[o.kind.class()]++
			if o.kind != opRead && (o.amt < 1 || o.amt > maxAmount || o.key >= accounts) {
				t.Fatalf("op out of range: %+v", o)
			}
		}
	}
	for c, want := range map[class]float64{classGuess: 0.70, classSync: 0.15, classRead: 0.15} {
		if got := float64(counts[c]) / 10000; got < want-0.03 || got > want+0.03 {
			t.Errorf("class %d is %.3f of the stream, want about %.2f", c, got, want)
		}
	}
}

// Every workload runs, end to end and traced, emits exactly the metrics
// BENCHMARK.json names, each once and with its unit, and passes its
// output checks.
func TestEveryWorkloadEmitsTheContract(t *testing.T) {
	spec, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("BENCHMARK.json: bad or repeated name or unit: %q (%q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 0.25, outDir: t.TempDir(), spec: spec}
			res, err := runEndToEnd(ctx, cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.conform(spec, spec.EndToEnd); err != nil {
				t.Error(err)
			}
			cfg.seconds = 0.5 // the layer pass shares its time out over fewer, longer slices
			if err := runLayers(ctx, cfg, wl, res); err != nil {
				t.Fatal(err)
			}
			if err := res.conform(spec, spec.PerLayer); err != nil {
				t.Error(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s: %s", c.Name, c.Detail)
				}
			}
			if res.Attempted == 0 {
				t.Error("no op attempted")
			}
		})
	}
}
