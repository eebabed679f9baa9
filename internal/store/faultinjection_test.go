package store

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/oplog"
)

// ---- Crash-point enumeration ---------------------------------------------
//
// The generalization of the hand-picked torn-tail tests: run a fixed
// workload once to count its mutating syscalls (N), then once per k in
// [0, N] with "die after syscall k" — every later syscall fails, the
// store is crashed, the injector tears unsynced bytes the way a lost
// page cache would — and recovery at EVERY k must (a) keep every
// acknowledged op, (b) recover an exact prefix of the workload, and
// (c) after re-driving the lost suffix, land byte-identical to the
// never-crashed control.

// crashWorkloadEntries is the reference op stream.
func crashWorkloadEntries(total int) []oplog.Entry {
	all := make([]oplog.Entry, total)
	for i := range all {
		all[i] = entry(i)
	}
	return all
}

// driveCrashWorkload stages/commits all[from:] in fixed batches,
// cutting a snapshot and advancing the ack watermark on a fixed
// cadence. It returns the highest position a Commit acknowledged.
// Under an armed injector the later calls simply fail; the script is
// identical at every k, which is what makes the sweep deterministic.
func driveCrashWorkload(st *Store, all []oplog.Entry, from, batch, snapEvery int) (acked int) {
	acked = from
	for pos := from; pos < len(all); {
		hi := pos + batch
		if hi > len(all) {
			hi = len(all)
		}
		end := st.Stage(all[pos:hi])
		done := make(chan bool, 1)
		st.Commit(end, func(ok bool) { done <- ok })
		if <-done {
			acked = end
		}
		pos = hi
		if acked == pos && pos%snapEvery == 0 {
			if st.NextSnapshotIsFull() {
				st.WriteSnapshot(append([]oplog.Entry(nil), all[:pos]...), pos, all[pos-1].Mark())
			} else {
				st.WriteSnapshot(nil, pos, all[pos-1].Mark())
			}
			st.AckTo(pos)
		}
	}
	return acked
}

// recoveredSeq flattens a Recovery into the full position-ordered
// entry sequence [0, End): the snapshot chain covers [0, SnapshotPos),
// the journal [Base, End), and replay guarantees Base <= SnapshotPos.
func recoveredSeq(t *testing.T, rec Recovery) []oplog.Entry {
	t.Helper()
	if rec.Base > rec.SnapshotPos {
		t.Fatalf("recovery gap: journal base %d past snapshot pos %d", rec.Base, rec.SnapshotPos)
	}
	seq := append([]oplog.Entry(nil), rec.SnapshotEntries...)
	if skip := rec.SnapshotPos - rec.Base; skip <= len(rec.JournalEntries) {
		seq = append(seq, rec.JournalEntries[skip:]...)
	} else {
		t.Fatalf("recovery: journal [%d,%d) cannot reach snapshot pos %d", rec.Base, rec.End, rec.SnapshotPos)
	}
	if len(seq) != rec.End {
		t.Fatalf("recovered %d entries, End says %d", len(seq), rec.End)
	}
	return seq
}

// crashSweepStride picks how densely the sweep samples k: every point
// by default, sparser under -short or an explicit QS_CRASH_STRIDE (the
// CI smoke lever).
func crashSweepStride(t *testing.T) int {
	if env := os.Getenv("QS_CRASH_STRIDE"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 5
	}
	return 1
}

func TestCrashPointEnumeration(t *testing.T) {
	configs := []struct {
		name string
		opt  Options
	}{
		{"full-snapshots", Options{Inline: true, SegmentBytes: 512}},
		{"delta-chain", Options{Inline: true, SegmentBytes: 512, SnapshotChain: 3}},
	}
	const total, batch, snapEvery = 96, 3, 12
	all := crashWorkloadEntries(total)
	stride := crashSweepStride(t)
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			// Control: the same workload under a counting injector that
			// injects nothing, closed gracefully. Its syscall count is the
			// sweep's N; its recovered sequence is the byte-identical bar.
			ctlDir := t.TempDir()
			inj := faultfs.New(faultfs.OS, 1, nil)
			opt := cfg.opt
			opt.FS = inj
			st, _ := mustOpen(t, ctlDir, opt)
			if acked := driveCrashWorkload(st, all, 0, batch, snapEvery); acked != total {
				t.Fatalf("control run acked %d of %d", acked, total)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("control close: %v", err)
			}
			n := inj.Ops()
			ctl, rec := mustOpen(t, ctlDir, cfg.opt)
			ctl.Close()
			control := recoveredSeq(t, rec)
			if len(control) != total {
				t.Fatalf("control recovered %d entries, want %d", len(control), total)
			}
			t.Logf("workload performs %d mutating syscalls; sweeping k with stride %d", n, stride)

			for k := 0; k <= n; k += stride {
				dir := t.TempDir()
				inj := faultfs.New(faultfs.OS, int64(1000+k), nil)
				inj.CrashAfter(k)
				opt := cfg.opt
				opt.FS = inj
				var acked int
				st, _, err := Open(dir, opt)
				if err == nil {
					acked = driveCrashWorkload(st, all, 0, batch, snapEvery)
					st.Crash()
				}
				if err := inj.Tear(); err != nil {
					t.Fatalf("k=%d: tear: %v", k, err)
				}

				// Recovery must succeed at every k, keep every acked op,
				// and recover an exact workload prefix.
				st2, rec, err := Open(dir, cfg.opt)
				if err != nil {
					t.Fatalf("k=%d: recovery failed: %v", k, err)
				}
				seq := recoveredSeq(t, rec)
				if rec.End < acked {
					t.Fatalf("k=%d: recovered to %d but %d was acknowledged: lost accepted ops", k, rec.End, acked)
				}
				for i, e := range seq {
					if e != all[i] {
						t.Fatalf("k=%d: recovered entry %d = %+v, want %+v", k, i, e, all[i])
					}
				}

				// Re-drive the lost suffix and the end state must be
				// byte-identical to the never-crashed control.
				if acked := driveCrashWorkload(st2, all, rec.End, batch, snapEvery); acked != total {
					t.Fatalf("k=%d: re-drive acked %d of %d", k, acked, total)
				}
				if err := st2.Close(); err != nil {
					t.Fatalf("k=%d: close after re-drive: %v", k, err)
				}
				st3, rec3, err := Open(dir, cfg.opt)
				if err != nil {
					t.Fatalf("k=%d: final reopen: %v", k, err)
				}
				final := recoveredSeq(t, rec3)
				st3.Close()
				if len(final) != len(control) {
					t.Fatalf("k=%d: final state has %d entries, control %d", k, len(final), len(control))
				}
				for i := range final {
					if final[i] != control[i] {
						t.Fatalf("k=%d: final entry %d = %+v, control %+v", k, i, final[i], control[i])
					}
				}
			}
		})
	}
}

// ---- Scripted single-fault classes ---------------------------------------

// failOn builds a script failing the nth operation of one kind on
// paths containing substr.
func failOn(kind faultfs.OpKind, substr string, nth int, err error) faultfs.Script {
	seen := 0
	return func(op faultfs.Op) faultfs.Decision {
		if op.Kind != kind || !strings.Contains(op.Path, substr) {
			return faultfs.Decision{}
		}
		seen++
		if seen == nth {
			return faultfs.Decision{Err: err}
		}
		return faultfs.Decision{}
	}
}

// TestEIOFailsCommitAndSticks: an EIO on a journal write fails that
// commit with ok=false, the error is sticky (later commits fail too,
// Close reports it), and nothing acknowledged earlier is lost.
func TestEIOFailsCommitAndSticks(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS, 1, failOn(faultfs.OpWrite, "journal-", 3, syscall.EIO))
	opt := Options{Inline: true, FS: inj}
	st, _ := mustOpen(t, dir, opt)
	commitAll(t, st, []oplog.Entry{entry(0), entry(1)})
	commitAll(t, st, []oplog.Entry{entry(2)})

	end := st.Stage([]oplog.Entry{entry(3)})
	done := make(chan bool, 1)
	st.Commit(end, func(ok bool) { done <- ok })
	if <-done {
		t.Fatal("commit reported durable across an injected EIO")
	}
	end = st.Stage([]oplog.Entry{entry(4)})
	st.Commit(end, func(ok bool) { done <- ok })
	if <-done {
		t.Fatal("commit after a sticky I/O error must fail")
	}
	if err := st.Close(); err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after EIO = %v, want the sticky EIO", err)
	}

	st2, rec, err := Open(dir, Options{Inline: true})
	if err != nil {
		t.Fatalf("recovery after EIO: %v", err)
	}
	defer st2.Close()
	if rec.End < 3 {
		t.Fatalf("recovered to %d, the 3 acknowledged entries are lost", rec.End)
	}
}

// TestENOSPCOnSnapshotStallsWatermarkVisibly: a snapshot that cannot
// reach disk counts in SnapshotFailures and leaves the watermark put;
// commits keep succeeding.
func TestENOSPCOnSnapshotStallsWatermarkVisibly(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS, 1, failOn(faultfs.OpCreate, ".snap.tmp", 1, syscall.ENOSPC))
	st, _ := mustOpen(t, dir, Options{Inline: true, FS: inj})
	defer st.Close()
	all := crashWorkloadEntries(8)
	commitAll(t, st, all)
	st.WriteSnapshot(append([]oplog.Entry(nil), all...), len(all), all[len(all)-1].Mark())
	if got := st.Stats().SnapshotFailures; got != 1 {
		t.Fatalf("SnapshotFailures = %d, want 1", got)
	}
	if st.SnapshotPos() != 0 {
		t.Fatalf("snapshot watermark advanced to %d on a failed write", st.SnapshotPos())
	}
	commitAll(t, st, []oplog.Entry{entry(100)}) // the journal is unharmed
}

// TestShortWritePlusTearRecovers: a write that lands only half its
// bytes before EIO, followed by a crash-tear, is a torn tail —
// recovery truncates it and keeps the acknowledged prefix.
func TestShortWritePlusTearRecovers(t *testing.T) {
	dir := t.TempDir()
	nth := 0
	inj := faultfs.New(faultfs.OS, 7, func(op faultfs.Op) faultfs.Decision {
		if op.Kind != faultfs.OpWrite || !strings.Contains(op.Path, "journal-") {
			return faultfs.Decision{}
		}
		nth++
		if nth == 2 {
			return faultfs.Decision{Err: syscall.EIO, Keep: op.Size / 2}
		}
		return faultfs.Decision{}
	})
	st, _ := mustOpen(t, dir, Options{Inline: true, FS: inj})
	commitAll(t, st, []oplog.Entry{entry(0), entry(1)})
	end := st.Stage([]oplog.Entry{entry(2), entry(3)})
	done := make(chan bool, 1)
	st.Commit(end, func(ok bool) { done <- ok })
	if <-done {
		t.Fatal("commit over a short write reported durable")
	}
	st.Crash()
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Options{Inline: true})
	if err != nil {
		t.Fatalf("recovery after short write: %v", err)
	}
	defer st2.Close()
	if rec.End < 2 {
		t.Fatalf("recovered to %d, acknowledged prefix lost", rec.End)
	}
	for i, e := range rec.JournalEntries {
		if e != entry(i) {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
	}
}

// TestLyingFsyncLosesOnlyTheLie: fsyncs report success but hold
// nothing. After a tear, everything "durable" since the last honest
// sync is gone — and recovery still comes up clean on the honest
// prefix, which is precisely why accepted-means-fsynced can never be
// stronger than the disk's own honesty.
func TestLyingFsyncLosesOnlyTheLie(t *testing.T) {
	dir := t.TempDir()
	lying := false
	inj := faultfs.New(faultfs.OS, 3, func(op faultfs.Op) faultfs.Decision {
		if lying && op.Kind == faultfs.OpSync {
			return faultfs.Decision{LieSync: true}
		}
		return faultfs.Decision{}
	})
	st, _ := mustOpen(t, dir, Options{Inline: true, FS: inj})
	commitAll(t, st, []oplog.Entry{entry(0), entry(1)}) // honest
	lying = true
	commitAll(t, st, []oplog.Entry{entry(2), entry(3)}) // "durable", dropped
	st.Crash()
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Options{Inline: true})
	if err != nil {
		t.Fatalf("recovery after lying fsync: %v", err)
	}
	defer st2.Close()
	if rec.End < 2 {
		t.Fatalf("honest prefix lost: recovered to %d", rec.End)
	}
	for i, e := range rec.JournalEntries[:2] {
		if e != entry(i) {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
	}
}

// ---- Mid-segment bit-rot --------------------------------------------------

// TestSealedSegmentBitRotIsErrCorrupt: a flipped byte inside a sealed
// segment is damage no torn write explains. Open must refuse with
// ErrCorrupt and name the offending segment — never silently truncate.
func TestSealedSegmentBitRotIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Inline: true, SegmentBytes: 256}
	st, _ := mustOpen(t, dir, opt)
	for i := 0; i < 40; i++ {
		commitAll(t, st, []oplog.Entry{entry(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	// Rot a payload byte in the FIRST (sealed) segment, through the seam.
	victim := segs[0]
	f, err := faultfs.OS.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(segHdrV2 + recHdrLen + 2)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(dir, opt)
	if err == nil {
		t.Fatal("Open recovered from mid-segment bit-rot without complaint")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(victim)) {
		t.Fatalf("error %q does not name the rotten segment %s", err, filepath.Base(victim))
	}
	// And it stayed refusal, not silent truncation: the bytes are intact.
	if fi, err := os.Stat(victim); err != nil || fi.Size() == 0 {
		t.Fatalf("segment was truncated or removed: %v %v", fi, err)
	}
}
