package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// Every value must land in a bucket whose lower bound does not exceed it
// and whose width is at most ~1/16 of it — the HDR accuracy contract.
func TestBucketMapping(t *testing.T) {
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000, 12345,
		1 << 20, (1 << 20) + 7, 1<<40 + 12345, 1<<62 + 999}
	for _, v := range values {
		idx := BucketOf(v)
		lo := BucketBound(idx)
		want := v
		if want < 1 {
			want = 1
		}
		if lo > want {
			t.Fatalf("BucketOf(%d)=%d has lower bound %d > value", v, idx, lo)
		}
		if idx+1 < HistBuckets {
			hi := BucketBound(idx + 1)
			if hi <= want {
				t.Fatalf("BucketOf(%d)=%d: next bucket starts at %d, value should be below it", v, idx, hi)
			}
			// Relative width bound: one sub-bucket is 1/16 of the octave.
			if want >= HistSub*2 && float64(hi-lo) > float64(want)/8 {
				t.Fatalf("bucket %d for value %d too wide: [%d,%d)", idx, v, lo, hi)
			}
		}
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(1); v < 1<<20; v = v*9/8 + 1 {
		idx := BucketOf(v)
		if idx < prev {
			t.Fatalf("BucketOf not monotonic at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestQuantiles(t *testing.T) {
	var h LatHist
	// 1000 samples of 1..1000: p50 ≈ 500, p99 ≈ 990, within bucket width.
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if n := h.Count(); n != 1000 {
		t.Fatalf("count = %d, want 1000", n)
	}
	p50 := h.Quantile(0.50)
	if p50 < 400 || p50 > 600 {
		t.Fatalf("p50 = %v, want ≈500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1000 {
		t.Fatalf("p99 = %v, want ≈990", p99)
	}
	if q := (&LatHist{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

// Window diffs: recording in two phases, the diff of snapshots holds
// exactly the second phase.
func TestSnapshotDiff(t *testing.T) {
	var h LatHist
	for i := 0; i < 100; i++ {
		h.Record(10)
	}
	snap1 := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Record(1000)
	}
	window := HistDiff(h.Snapshot(), snap1)
	if n := HistCount(window); n != 50 {
		t.Fatalf("window holds %d samples, want 50", n)
	}
	if q := QuantileOf(window, 0.5); q < 900 || q > 1100 {
		t.Fatalf("window p50 = %v, want ≈1000", q)
	}
}

// Concurrent recording must lose nothing (the histogram is the hot-path
// shared structure of the driver).
func TestConcurrentRecord(t *testing.T) {
	var h LatHist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Record(1 + r.Int63n(1<<30))
			}
		}(w)
	}
	wg.Wait()
	if n := h.Count(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
	if n := HistCount(h.Snapshot()); n != workers*per {
		t.Fatalf("bucket sum = %d, want %d", n, workers*per)
	}
}
