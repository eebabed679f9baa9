package store

import (
	"io/fs"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
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

// TestStaleFullTokenDoesNotCancelNextHold: an early-departure token
// deposited by a burst that staged while a flush was already at the
// device is spent — the drain loop flushes that burst without consulting
// it. It must not survive to cancel the coalescing hold of the next,
// shallow, flush.
func TestStaleFullTokenDoesNotCancelNextHold(t *testing.T) {
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
	if len(s.full) != 1 {
		t.Error("a full bus staged behind an in-flight flush left no early-departure token: the test exercises nothing")
	}
	release <- struct{}{}
	if !<-first {
		t.Fatal("first commit failed")
	}
	// The drain loop flushes the burst next, with no hold and no kick;
	// once that flush lets go of flushMu the flusher can only go idle.
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

// TestHoldAllocatesNoTimer pins the flusher's coalescing hold at no
// allocation of its own: the loop re-arms one timer. A fresh timer per
// flush was about three allocations on every commit that waited for
// company. Counted process-wide, so the flusher's goroutine is included,
// against the same commits with the hold switched off.
func TestHoldAllocatesNoTimer(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are pinned without -race: there sync.Pool drops Puts on purpose")
	}
	// A sync that takes a while is what teaches the store to hold at all.
	fsys := gateFS{faultfs.OS, func() { time.Sleep(50 * time.Microsecond) }}
	perCommit := func(mode Mode) float64 {
		s, _ := mustOpen(t, t.TempDir(), Options{FS: fsys, Mode: mode})
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
		return testing.AllocsPerRun(300, commit)
	}
	held, unheld := perCommit(ModeAdaptive), perCommit(ModeEveryOp)
	t.Logf("allocations per commit: %.1f with the hold, %.1f without", held, unheld)
	if held > unheld {
		t.Errorf("a held commit allocates %.1f, one that never holds %.1f: the hold allocates", held, unheld)
	}
}
