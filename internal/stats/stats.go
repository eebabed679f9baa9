// Package stats provides the measurement and reporting primitives used by
// the experiment harness: counters, sample histograms with percentile
// queries, and plain-text tables.
//
// Every experiment in this repository reduces to a stats.Table; the bench
// harness and cmd/quicksand-bench only differ in which tables they print.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram collects float64 samples and answers summary queries. It keeps
// the raw samples (experiments here are small enough for that to be cheap)
// so percentiles are exact rather than bucketed approximations. Histograms
// are safe for concurrent use: simulated systems never contend, but the
// live goroutine transport records latencies from many submitters at once.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// AddDur records a duration sample in nanoseconds.
func (h *Histogram) AddDur(d time.Duration) { h.Add(float64(d)) }

// Count reports the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sumLocked()
}

func (h *Histogram) sumLocked() float64 {
	s := 0.0
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.meanLocked()
}

func (h *Histogram) meanLocked() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sumLocked() / float64(len(h.samples))
}

// Stddev reports the population standard deviation, or 0 with fewer than
// two samples.
func (h *Histogram) Stddev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	m := h.meanLocked()
	ss := 0.0
	for _, v := range h.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[0]
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[len(h.samples)-1]
}

// Quantile reports the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples, or 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.sortLocked()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// P50 is Quantile(0.50).
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 is Quantile(0.95).
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// MeanDur interprets the mean as nanoseconds and returns it as a Duration.
func (h *Histogram) MeanDur() time.Duration { return time.Duration(h.Mean()) }

// Samples returns a copy of the raw samples, in insertion order if no
// quantile query has run yet (sorted otherwise).
func (h *Histogram) Samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.samples...)
}

// Merge folds all of o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	samples := o.Samples()
	h.mu.Lock()
	h.samples = append(h.samples, samples...)
	h.sorted = false
	h.mu.Unlock()
}

// QuantileDur interprets the q-quantile as nanoseconds.
func (h *Histogram) QuantileDur(q float64) time.Duration { return time.Duration(h.Quantile(q)) }

// Counter is a named monotonically increasing tally, safe for concurrent
// use.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.n, 1) }

// Addn adds delta, which may be negative for callers using Counter as a
// plain accumulator.
func (c *Counter) Addn(delta int64) { atomic.AddInt64(&c.n, delta) }

// Value reports the current tally.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.n) }

// Table is a titled grid of cells rendered as aligned text. It is the
// common output format for every experiment: one Table per paper claim.
type Table struct {
	Title   string
	Note    string // one-line description of the claim being tested
	Headers []string
	Rows    [][]string
}

// NewTable constructs a table with the given title, note, and column headers.
func NewTable(title, note string, headers ...string) *Table {
	return &Table{Title: title, Note: note, Headers: headers}
}

// AddRow appends one row; cells beyond the header count are kept as-is and
// widen the table.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as monospace-aligned text.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	line := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// F formats a float with prec decimal places.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a ratio as a percentage with two decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// Dur formats a float nanosecond quantity as a rounded duration string.
func Dur(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// Ratio divides a by b, returning 0 when b is 0. Convenience for rate
// columns in experiment tables.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
