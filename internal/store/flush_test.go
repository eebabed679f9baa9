package store

import (
	"io/fs"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/testenv"
)

// gateFS is the real filesystem with a hook run at the top of every
// journal-segment fsync, so a test can hold a flush at the device.
type gateFS struct {
	faultfs.FS
	onSync func()
}

func (g gateFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return gateFile{f, g.onSync}, nil
}

type gateFile struct {
	faultfs.File
	onSync func()
}

func (f gateFile) Sync() error {
	f.onSync()
	return f.File.Sync()
}

// TestBurstBehindFlushDoesNotCancelNextHold: a full bus staged while a
// flush is already at the device rides that flush's drain loop, with no
// hold and no timer of its own. The early departure it earned must not
// survive to cancel the coalescing hold of the next, shallow, flush.
func TestBurstBehindFlushDoesNotCancelNextHold(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	fsys := gateFS{faultfs.OS, func() {
		if armed.Load() {
			entered <- struct{}{}
			<-release
		}
	}}
	s, _ := mustOpen(t, t.TempDir(), Options{FS: fsys})
	defer s.Close()
	commit := func(entries []oplog.Entry) chan bool {
		done := make(chan bool, 1)
		s.Commit(s.Stage(entries), func(ok bool) { done <- ok })
		return done
	}
	<-commit([]oplog.Entry{entry(0)}) // the segment exists; fsync cost is known

	// Hold flush #1 at the device and stage a full bus behind it.
	armed.Store(true)
	first := commit([]oplog.Entry{entry(1)})
	<-entered
	var burst []oplog.Entry
	for size := 0; size < 4*kneeBytes; size += recHdrLen + oplog.EntrySize(burst[len(burst)-1]) {
		burst = append(burst, entry(2+len(burst)))
	}
	s.Stage(burst)
	s.mu.Lock()
	full := len(s.stage.buf) >= 4*kneeBytes
	s.mu.Unlock()
	if !full {
		t.Error("the burst staged behind the in-flight flush does not fill the bus: the test exercises nothing")
	}
	release <- struct{}{}
	if !<-first {
		t.Fatal("first commit failed")
	}
	// The drain loop flushes the burst next, with no hold and no commit
	// waiting on it; once that flush lets go of flushMu, nothing re-arms.
	<-entered
	armed.Store(false)
	release <- struct{}{}
	s.flushMu.Lock()
	s.flushMu.Unlock()

	// A lone rider on a store whose recent flushes were big and slow earns
	// the full hold; a timer never fires early, so only a cancelled hold
	// can acknowledge sooner.
	s.ewmaFsync.Store(int64(time.Second))
	s.ewmaTook.Store(kneeBytes)
	began := time.Now()
	if !<-commit([]oplog.Entry{entry(2 + len(burst))}) {
		t.Fatal("lone commit failed")
	}
	if got := time.Since(began); got < maxWait {
		t.Fatalf("lone rider acknowledged after %v: the %v hold was cancelled by a stale early-departure token", got, maxWait)
	}
}

// TestHoldAllocatesNoTimer pins the flush's coalescing hold at no
// allocation of its own: the store re-arms one timer. A fresh timer per
// flush was about three allocations on every commit that waited for
// company. Counted process-wide, so the timer's goroutine is included; a
// held commit measured 2.0, the same as one that never held.
func TestHoldAllocatesNoTimer(t *testing.T) {
	testenv.SkipUnderRace(t)
	// A sync that takes a while is what teaches the store to hold at all.
	fsys := gateFS{faultfs.OS, func() { time.Sleep(50 * time.Microsecond) }}
	s, _ := mustOpen(t, t.TempDir(), Options{FS: fsys})
	defer s.Close()
	batch := []oplog.Entry{entry(0)}
	done := make(chan bool, 1)
	fn := func(ok bool) { done <- ok }
	commit := func() {
		s.Commit(s.Stage(batch), fn)
		if !<-done {
			t.Fatal("commit failed")
		}
	}
	for i := 0; i < 32; i++ { // the segment, the buffers and the fsync estimate first
		commit()
	}
	if s.ewmaFsync.Load() == 0 {
		t.Fatal("no fsync estimate after 32 commits: nothing would hold, and the test measures nothing")
	}
	const budget = 2
	if got := testing.AllocsPerRun(300, commit); got > budget {
		t.Errorf("a held commit allocates %.1f, budget %d: the hold allocates", got, budget)
	}
}

func TestAdaptiveCommitCallbacksOrderedExactlyOnce(t *testing.T) {
	// Stepped pin on the adaptive mode's commit contract: callbacks fire
	// exactly once, in commit order, whether a flush carries one commit or
	// several, and a post-crash commit fails — no assertion here depends
	// on timing, only on ordering.
	dir := t.TempDir()
	opt := stepped(Options{Mode: ModeAdaptive})
	clock := opt.Clock.(simClock)
	s, _ := mustOpen(t, dir, opt)
	const n = 100
	var fired []int
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		end := s.Stage([]oplog.Entry{entry(i)})
		s.Commit(end, func(ok bool) {
			if !ok {
				t.Errorf("commit to %d failed", end)
			}
			fired = append(fired, end)
			counts[end]++
		})
		if i%3 == 0 {
			clock.Run()
		}
	}
	clock.Run()
	if len(fired) != n {
		t.Fatalf("%d callbacks fired, want %d", len(fired), n)
	}
	for i, end := range fired {
		if end != i+1 {
			t.Fatalf("callback %d fired for end %d: reordered", i, end)
		}
		if counts[end] != 1 {
			t.Fatalf("end %d fired %d times", end, counts[end])
		}
	}
	s.Crash()
	got := make(chan bool, 1)
	s.Commit(n+1, func(ok bool) { got <- ok })
	if ok := <-got; ok {
		t.Fatal("post-crash commit reported durable")
	}
}

func TestAdaptiveBackgroundPreservesCommitOrder(t *testing.T) {
	// Same contract on the wall clock, where adaptive holds and early
	// departures actually run: whatever the flush timing, callbacks
	// observe commit order and each fires exactly once.
	dir := t.TempDir()
	opt := Options{Mode: ModeAdaptive}
	s, _ := mustOpen(t, dir, opt)
	const n = 400
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		end := s.Stage([]oplog.Entry{entry(i)})
		s.Commit(end, func(ok bool) {
			if !ok {
				t.Errorf("commit to %d failed", end)
			}
			results <- end
		})
	}
	prev := 0
	for i := 0; i < n; i++ {
		end := <-results
		if end <= prev {
			t.Fatalf("callback for end %d fired after end %d", end, prev)
		}
		prev = end
	}
	if st := s.Stats(); st.Fsyncs >= n {
		t.Fatalf("adaptive mode paid per-commit fsyncs: %d for %d commits", st.Fsyncs, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
