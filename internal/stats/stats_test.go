package stats

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 5 {
		t.Fatalf("Quantile(0)/Quantile(1) = %v/%v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.P50() != 50 || h.P99() != 99 {
		t.Fatal("P50/P99 helpers disagree with Quantile")
	}
}

func TestHistogramAddAfterQuantile(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Quantile(0.5) // forces sort
	h.Add(1)
	if h.Quantile(0) != 1 {
		t.Fatal("Add after Quantile lost re-sort")
	}
}

func TestHistogramDurations(t *testing.T) {
	var h Histogram
	h.AddDur(time.Millisecond)
	h.AddDur(3 * time.Millisecond)
	if h.MeanDur() != 2*time.Millisecond {
		t.Fatalf("MeanDur = %v", h.MeanDur())
	}
	if h.QuantileDur(1) != 3*time.Millisecond {
		t.Fatalf("QuantileDur(1) = %v", h.QuantileDur(1))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Addn(3)
	c.Addn(-1)
	if c.Value() != 4 {
		t.Fatalf("Value = %d, want 4", c.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("T", "note line", "col", "value")
	tab.AddRow("a", "1")
	tab.AddRow("longer", "22")
	s := tab.String()
	for _, want := range []string{"== T ==", "note line", "col", "longer", "22", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title + note + header + separator + 2 rows
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), s)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("T", "", "a")
	tab.AddRow("x", "extra", "cells")
	s := tab.String()
	if !strings.Contains(s, "extra") || !strings.Contains(s, "cells") {
		t.Fatalf("ragged row dropped cells:\n%s", s)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Fatalf("F = %q", F(1.23456, 2))
	}
	if Pct(0.1234) != "12.34%" {
		t.Fatalf("Pct = %q", Pct(0.1234))
	}
	if Dur(float64(2*time.Second)) != "2.00s" {
		t.Fatalf("Dur(2s) = %q", Dur(float64(2*time.Second)))
	}
	if Dur(float64(3*time.Millisecond)) != "3.00ms" {
		t.Fatalf("Dur(3ms) = %q", Dur(float64(3*time.Millisecond)))
	}
	if Dur(float64(4*time.Microsecond)) != "4.0µs" {
		t.Fatalf("Dur(4µs) = %q", Dur(float64(4*time.Microsecond)))
	}
	if Dur(500) != "500ns" {
		t.Fatalf("Dur(500ns) = %q", Dur(500))
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
	if Ratio(1, 2) != 0.5 {
		t.Fatal("Ratio(1,2) != 0.5")
	}
}
