package wal

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := New(nil)
	if l.LastLSN() != 0 {
		t.Fatal("empty log LastLSN != 0")
	}
	a := l.Append(Record{Kind: KindWrite, Key: "k"})
	b := l.Append(Record{Kind: KindCommit})
	if a != 1 || b != 2 {
		t.Fatalf("LSNs = %d,%d", a, b)
	}
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d", l.LastLSN())
	}
}

func TestFlushAdvancesWatermarkAndFeedsSink(t *testing.T) {
	var shipped []Record
	l := New(func(rs []Record) { shipped = append(shipped, rs...) })
	l.Append(Record{Kind: KindWrite, Key: "a"})
	l.Append(Record{Kind: KindWrite, Key: "b"})
	if l.FlushedLSN() != 0 {
		t.Fatal("watermark moved before flush")
	}
	newly := l.Flush()
	if len(newly) != 2 || l.FlushedLSN() != 2 {
		t.Fatalf("Flush = %d records, watermark %d", len(newly), l.FlushedLSN())
	}
	if len(shipped) != 2 {
		t.Fatalf("sink saw %d records", len(shipped))
	}
	// Second flush with nothing new: sink must not be re-invoked.
	if n := l.Flush(); len(n) != 0 {
		t.Fatalf("empty flush returned %d records", len(n))
	}
	if len(shipped) != 2 {
		t.Fatal("sink re-invoked on empty flush")
	}
}

func TestUnflushedAndLoseTail(t *testing.T) {
	l := New(nil)
	l.Append(Record{Kind: KindWrite, Key: "a"})
	l.Flush()
	l.Append(Record{Kind: KindWrite, Key: "b"})
	l.Append(Record{Kind: KindWrite, Key: "c"})
	if got := l.Unflushed(); len(got) != 2 {
		t.Fatalf("Unflushed = %d", len(got))
	}
	lost := l.LoseTail()
	if len(lost) != 2 || lost[0].Key != "b" {
		t.Fatalf("LoseTail = %+v", lost)
	}
	if l.LastLSN() != 1 {
		t.Fatalf("LastLSN after crash = %d, want 1", l.LastLSN())
	}
	if len(l.Unflushed()) != 0 {
		t.Fatal("tail survived LoseTail")
	}
	// Appending after a lost tail reuses the LSNs, as a restarted process
	// rebuilding its log would.
	if lsn := l.Append(Record{Kind: KindWrite, Key: "d"}); lsn != 2 {
		t.Fatalf("post-crash append LSN = %d, want 2", lsn)
	}
}

func TestSinceReturnsOnlyDurableRecords(t *testing.T) {
	l := New(nil)
	l.Append(Record{Kind: KindWrite, Key: "a"})
	l.Append(Record{Kind: KindWrite, Key: "b"})
	l.Flush()
	l.Append(Record{Kind: KindWrite, Key: "c"}) // volatile
	got := l.Since(0)
	if len(got) != 2 {
		t.Fatalf("Since(0) = %d records, want 2 (volatile tail must not ship)", len(got))
	}
	if got := l.Since(1); len(got) != 1 || got[0].Key != "b" {
		t.Fatalf("Since(1) = %+v", got)
	}
	if l.Since(2) != nil {
		t.Fatal("Since(watermark) must be empty")
	}
	if l.Since(99) != nil {
		t.Fatal("Since past end must be empty")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindBegin: "begin", KindWrite: "write", KindCommit: "commit", KindAbort: "abort", Kind(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestGroupCommitImmediateMode(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{Interval: 0, FlushCost: time.Millisecond})
	var doneAt []time.Duration
	for i := 0; i < 3; i++ {
		l.Append(Record{Kind: KindCommit})
		g.Commit(func() { doneAt = append(doneAt, s.Now()) })
	}
	s.Run()
	// First commit flushes alone; the two that arrived during its flush
	// board the second departure together.
	if g.Flushes() != 2 {
		t.Fatalf("flushes = %d, want 2", g.Flushes())
	}
	if len(doneAt) != 3 {
		t.Fatalf("done callbacks = %d", len(doneAt))
	}
	if doneAt[0] != time.Millisecond || doneAt[2] != 2*time.Millisecond {
		t.Fatalf("doneAt = %v", doneAt)
	}
}

func TestGroupCommitTimerBatchesConcurrentCommits(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{Interval: 5 * time.Millisecond, FlushCost: time.Millisecond})
	done := 0
	// Ten commits arrive over 2ms — all before the 5ms departure.
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Duration(i*200*int(time.Microsecond)), func() {
			l.Append(Record{Kind: KindCommit})
			g.Commit(func() { done++ })
		})
	}
	s.Run()
	if g.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1 (the city bus)", g.Flushes())
	}
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if g.MeanBatch() != 10 {
		t.Fatalf("MeanBatch = %v", g.MeanBatch())
	}
}

func TestGroupCommitMaxBatchDepartsEarly(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{Interval: time.Hour, MaxBatch: 2, FlushCost: time.Millisecond})
	var doneAt []time.Duration
	for i := 0; i < 2; i++ {
		l.Append(Record{Kind: KindCommit})
		g.Commit(func() { doneAt = append(doneAt, s.Now()) })
	}
	s.RunUntil(time.Second)
	if len(doneAt) != 2 {
		t.Fatalf("batch of MaxBatch did not depart early: %v", doneAt)
	}
	if doneAt[0] != time.Millisecond {
		t.Fatalf("departed at %v, want 1ms", doneAt[0])
	}
}

func TestGroupCommitDurabilityBeforeCallback(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{Interval: 0, FlushCost: time.Millisecond})
	l.Append(Record{Kind: KindWrite, Key: "k"})
	l.Append(Record{Kind: KindCommit})
	g.Commit(func() {
		if l.FlushedLSN() != 2 {
			t.Errorf("callback ran with watermark %d, want 2", l.FlushedLSN())
		}
	})
	s.Run()
}

func TestGroupCommitLoneCommitWaitsFullInterval(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{Interval: 5 * time.Millisecond, FlushCost: time.Millisecond})
	var at time.Duration
	l.Append(Record{Kind: KindCommit})
	g.Commit(func() { at = s.Now() })
	s.Run()
	if at != 6*time.Millisecond {
		t.Fatalf("lone commit done at %v, want 6ms (5ms wait + 1ms flush)", at)
	}
}

func TestNoCoalesceSerializesOneFlushPerCommit(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{NoCoalesce: true, FlushCost: time.Millisecond})
	var doneAt []time.Duration
	for i := 0; i < 3; i++ {
		l.Append(Record{Kind: KindCommit})
		g.Commit(func() { doneAt = append(doneAt, s.Now()) })
	}
	s.Run()
	// Three commits at t=0: each waits behind the previous flush.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if g.Flushes() != 3 {
		t.Fatalf("flushes = %d, want 3 (one car per driver)", g.Flushes())
	}
	if g.MeanBatch() != 1 {
		t.Fatalf("MeanBatch = %v, want 1", g.MeanBatch())
	}
}

func TestNoCoalesceQueueGrowsUnderOverload(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{NoCoalesce: true, FlushCost: time.Millisecond})
	// 10 commits arrive every 0.5ms; the device does 1/ms: the last
	// commit waits ~the whole backlog.
	var last time.Duration
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Duration(i)*500*time.Microsecond, func() {
			l.Append(Record{Kind: KindCommit})
			g.Commit(func() { last = s.Now() })
		})
	}
	s.Run()
	if last != 10*time.Millisecond {
		t.Fatalf("last commit done at %v, want 10ms (full backlog)", last)
	}
}

func TestNoCoalesceDurabilityBeforeCallback(t *testing.T) {
	s := sim.New(1)
	l := New(nil)
	g := NewGroupCommitter(s, l, Config{NoCoalesce: true, FlushCost: time.Millisecond})
	lsn := l.Append(Record{Kind: KindCommit})
	g.Commit(func() {
		if l.FlushedLSN() < lsn {
			t.Errorf("callback before durability: flushed %d < %d", l.FlushedLSN(), lsn)
		}
	})
	s.Run()
}
