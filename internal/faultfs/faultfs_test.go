package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestPassthroughIsOSFile(t *testing.T) {
	dir := t.TempDir()
	f, err := OS.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(*os.File); !ok {
		t.Fatalf("passthrough hands out %T, want a bare *os.File", f)
	}
}

func TestCrashAfterKCountsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	inj := New(OS, 1, nil)
	inj.CrashAfter(2)                                                             // create + one write survive
	f, err := inj.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ab")); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("cd")); !errors.Is(err, ErrCrashed) { // op 3: dead
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash = %v, want ErrCrashed", err)
	}
	if _, err := inj.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash = %v, want ErrCrashed", err)
	}
	if !inj.Crashed() || inj.Ops() != 2 {
		t.Fatalf("crashed=%v ops=%d, want true/2", inj.Crashed(), inj.Ops())
	}
}

func TestTearDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	// Seed 0's first Intn(n+1) can keep a prefix; assert only the
	// invariants: synced bytes survive, the file never exceeds what was
	// written, and the surviving tail is a prefix of the unsynced bytes.
	inj := New(OS, 42, nil)
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable.")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "durable.volatile"
	if len(got) < len("durable.") || len(got) > len(want) || want[:len(got)] != string(got) {
		t.Fatalf("tear left %q, want a prefix of %q covering the synced part", got, want)
	}
}

func TestTearRevertsUnsyncedOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	inj := New(OS, 1, nil)
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("HEADER")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("header"), 0); err != nil { // unsynced overwrite
		t.Fatal(err)
	}
	f.Close()
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "HEADER" {
		t.Fatalf("tear kept an unsynced overwrite: %q", got)
	}
}

func TestScriptShortWriteAndENOSPC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	inj := New(OS, 1, func(op Op) Decision {
		if op.Kind == OpWrite {
			return Decision{Err: syscall.ENOSPC, Keep: 3}
		}
		return Decision{}
	})
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write = (%d, %v), want (3, ENOSPC)", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "abc" {
		t.Fatalf("disk holds %q after short write, want %q", got, "abc")
	}
}

func TestLyingSyncNeverAdvancesDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	inj := New(OS, 99, func(op Op) Decision {
		if op.Kind == OpSync {
			return Decision{LieSync: true}
		}
		return Decision{}
	})
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // reports success, holds nothing
		t.Fatal(err)
	}
	f.Close()
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if len(got) == len("gone") {
		// The seeded tail-keep may legitimately preserve a prefix, but a
		// lying sync must never guarantee the full content survives.
		// With seed 99 the first draw keeps less than everything.
		t.Fatalf("lying fsync preserved all %q", got)
	}
}

func TestRenameMovesMirror(t *testing.T) {
	dir := t.TempDir()
	oldp, newp := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")
	inj := New(OS, 5, nil)
	f, err := inj.OpenFile(oldp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := inj.Rename(oldp, newp); err != nil {
		t.Fatal(err)
	}
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(newp)
	if err != nil || string(got) != "payload" {
		t.Fatalf("renamed synced file = %q, %v; want full payload", got, err)
	}
}

// TestSyncDelayIsSleptOutsideTheLock: a scripted Decision.Delay stretches
// the sync it lands on, and only that sync — the sleep happens with the
// injector's lock released, so a write to another file completes while
// the slow sync is still in flight.
func TestSyncDelayIsSleptOutsideTheLock(t *testing.T) {
	const delay = 100 * time.Millisecond
	dir := t.TempDir()
	slow, fast := filepath.Join(dir, "slow"), filepath.Join(dir, "fast")
	admitted := make(chan struct{})
	inj := New(OS, 1, func(op Op) Decision {
		if op.Kind == OpSync && op.Path == slow {
			close(admitted)
			return Decision{Delay: delay}
		}
		return Decision{}
	})
	a, err := inj.OpenFile(slow, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := inj.OpenFile(fast, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	synced := make(chan time.Duration, 1)
	go func() {
		began := time.Now()
		if err := a.Sync(); err != nil {
			t.Error(err)
		}
		synced <- time.Since(began)
	}()
	<-admitted
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-synced:
		t.Fatal("a write to another file waited out the delayed sync")
	default:
	}
	if took := <-synced; took < delay {
		t.Fatalf("delayed sync returned after %v, want at least %v", took, delay)
	}
}
