package tandem

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// TestPropCommittedNeverLostUnderRandomChaos is the E2 audit as a
// property: for any seed-driven schedule of crashes and restarts, across
// both disk-process generations, an acknowledged commit is never lost.
// The only allowed casualties are in-flight transactions (DP2) — the
// §3.3 "acceptable erosion".
func TestPropCommittedNeverLostUnderRandomChaos(t *testing.T) {
	f := func(seed int64) bool {
		for _, mode := range []Mode{DP1, DP2} {
			s := sim.New(seed)
			sys := New(s, Config{Mode: mode, NumDP: 2})
			r := s.Rand()
			committed := map[string]string{}
			// A process pair tolerates ONE failure at a time — that is
			// its hardware contract. The chaos schedule respects each
			// pair's repair window, like the physical world the paper's
			// §2.2 fail-fast model assumes.
			downUntil := [2]time.Duration{}

			const txns = 120
			var launch func(i int)
			launch = func(i int) {
				if i == txns {
					return
				}
				key, val := fmt.Sprintf("key-%04d", i), fmt.Sprintf("v%d", i)
				writes := []kv{{key, val}}
				if r.Intn(3) == 0 { // some multi-write transactions
					writes = append(writes, kv{key + "-b", val})
				}
				runTxn(sys, writes, func(ok bool) {
					if ok {
						committed[key] = val
					}
					launch(i + 1)
				})
				// Random chaos: crash a random pair at a random nearby
				// moment, restart a random time later — but never while
				// the pair is still repairing the previous fault.
				if r.Intn(12) == 0 {
					pair := r.Intn(2)
					crashAt := s.Now() + time.Duration(r.Intn(5))*time.Millisecond
					if crashAt > downUntil[pair] {
						repairAt := crashAt + 5*time.Millisecond + time.Duration(r.Intn(40))*time.Millisecond
						downUntil[pair] = repairAt + 5*time.Millisecond
						s.At(crashAt, func() { sys.CrashPrimary(pair) })
						s.At(repairAt, func() { sys.RestartBackup(pair) })
					}
				}
			}
			launch(0)
			s.Run()

			if len(committed) == 0 {
				continue // pathological seed: nothing committed, nothing to audit
			}
			lost := 0
			for key, want := range committed {
				k, w := key, want
				sys.Read(k, func(v string, ok bool) {
					if !ok || v != w {
						lost++
					}
				})
			}
			s.Run()
			if lost != 0 {
				t.Logf("mode=%v seed=%d lost=%d of %d", mode, seed, lost, len(committed))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
