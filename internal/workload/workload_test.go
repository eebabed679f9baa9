package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPoissonLoopRunsAllArrivals(t *testing.T) {
	s := sim.New(1)
	var got []int
	PoissonLoop(s, time.Millisecond, 50, func(i int) { got = append(got, i) })
	s.Run()
	if len(got) != 50 {
		t.Fatalf("arrivals = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatal("arrivals out of order")
		}
	}
	if s.Now() == 0 {
		t.Fatal("arrivals all at time zero")
	}
}

func TestExponentialMeanRoughlyRight(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Exponential(r, 10*time.Millisecond)
	}
	mean := float64(sum) / n
	if math.Abs(mean-float64(10*time.Millisecond)) > float64(time.Millisecond) {
		t.Fatalf("sample mean = %v, want ≈10ms", time.Duration(mean))
	}
}

func TestExponentialDegenerateMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if Exponential(r, 0) < time.Nanosecond {
		t.Fatal("zero mean must clamp to 1ns")
	}
}

func TestUniformKeysInRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := UniformKeys(r, "acct", 10)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		k := gen()
		if !strings.HasPrefix(k, "acct-") {
			t.Fatalf("key %q", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform over 10 keys hit %d", len(seen))
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := ZipfKeys(r, "k", 1.5, 100)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[gen()]++
	}
	if counts["k-0000"] < counts["k-0050"] {
		t.Fatal("zipf head not hotter than tail")
	}
}

func TestLogNormalCentsPositiveAndSkewed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := LogNormalCents(r, math.Log(50_00), 1.0) // median ≈ $50
	var below, above int
	for i := 0; i < 2000; i++ {
		v := gen()
		if v < 1 {
			t.Fatal("non-positive amount")
		}
		if v < 50_00 {
			below++
		} else {
			above++
		}
	}
	// Median near $50: both sides populated.
	if below < 600 || above < 600 {
		t.Fatalf("median off: %d below, %d above", below, above)
	}
}
