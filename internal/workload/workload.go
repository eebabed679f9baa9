// Package workload generates the synthetic traffic the experiments feed
// their systems: Poisson arrivals on the simulator, skewed and uniform key
// choices, and lognormal money amounts for check-clearing runs.
//
// All generators draw from explicitly seeded sources so every experiment
// table is reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// PoissonLoop schedules n sequential arrivals on s with exponentially
// distributed gaps of the given mean, calling fn(i) at each. The first
// arrival happens after one gap. It returns the expected total duration
// (n × mean) for sizing run horizons.
func PoissonLoop(s *sim.Sim, mean time.Duration, n int, fn func(i int)) time.Duration {
	var schedule func(i int)
	schedule = func(i int) {
		if i >= n {
			return
		}
		s.After(Exponential(s.Rand(), mean), func() {
			fn(i)
			schedule(i + 1)
		})
	}
	schedule(0)
	return time.Duration(n) * mean
}

// Exponential draws an exponentially distributed duration with the given
// mean, clamped to at least 1ns so event time always advances.
func Exponential(r *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return time.Nanosecond
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := time.Duration(-float64(mean) * math.Log(u))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// UniformKeys returns a generator of keys "prefix-0000".."prefix-(n-1)"
// chosen uniformly.
func UniformKeys(r *rand.Rand, prefix string, n int) func() string {
	return func() string { return fmt.Sprintf("%s-%04d", prefix, r.Intn(n)) }
}

// ZipfKeys returns a generator of keys with Zipfian skew s (> 1) over n
// distinct keys — a few hot keys take most traffic, as real inventories
// and accounts do.
func ZipfKeys(r *rand.Rand, prefix string, skew float64, n int) func() string {
	z := rand.NewZipf(r, skew, 1, uint64(n-1))
	return func() string { return fmt.Sprintf("%s-%04d", prefix, z.Uint64()) }
}

// LogNormalCents returns a generator of money amounts (in cents) with a
// lognormal distribution: median ≈ exp(mu), long right tail controlled by
// sigma. Amounts are clamped to at least 1 cent.
func LogNormalCents(r *rand.Rand, mu, sigma float64) func() int64 {
	return func() int64 {
		v := math.Exp(r.NormFloat64()*sigma + mu)
		if v < 1 {
			v = 1
		}
		if v > math.MaxInt64/2 {
			v = math.MaxInt64 / 2
		}
		return int64(v)
	}
}
