package experiment

// These tests pin the qualitative shape of every experiment — the
// reproduction's actual claims — into `go test`. Each parses its table
// back out of the stats.Table rows and asserts the relation the paper
// states. If an implementation change flips a verdict, the suite fails.

import (
	"strconv"
	"strings"
	"testing"
)

// cell returns row r, column named col.
func cell(t *testing.T, tab *tableT, r int, col string) string {
	t.Helper()
	for i, h := range tab.Headers {
		if h == col {
			return tab.Rows[r][i]
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Headers)
	return ""
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func run(t *testing.T, id string) *tableT {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab := e.Run(1)
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced an empty table", id)
	}
	return tab
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 19 {
		t.Fatalf("expected 19 experiments, have %d", len(seen))
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID accepted an unknown id")
	}
}

func TestE1Shape(t *testing.T) {
	tab := run(t, "E1")
	// Rows 0-3 DP1 (writes 1,2,4,8), rows 4-7 DP2.
	for i := 0; i < 4; i++ {
		dp1Write := cell(t, tab, i, "write p50")
		dp2Write := cell(t, tab, i+4, "write p50")
		if dp1Write != "400.0µs" || dp2Write != "200.0µs" {
			t.Fatalf("write latency rows: dp1=%s dp2=%s", dp1Write, dp2Write)
		}
		if num(t, cell(t, tab, i+4, "write-ckpts/txn")) != 0 {
			t.Fatal("DP2 has per-write checkpoints")
		}
		if num(t, cell(t, tab, i, "write-ckpts/txn")) == 0 {
			t.Fatal("DP1 has no per-write checkpoints")
		}
	}
}

func TestE2NoCommittedLost(t *testing.T) {
	tab := run(t, "E2")
	for r := range tab.Rows {
		if got := num(t, cell(t, tab, r, "committed lost")); got != 0 {
			t.Fatalf("row %d lost %v committed txns", r, got)
		}
	}
	// DP1 transparent (0 failover aborts); DP2 aborts some.
	if num(t, cell(t, tab, 0, "failover aborts")) != 0 {
		t.Fatal("DP1 failovers were not transparent")
	}
	if num(t, cell(t, tab, 1, "failover aborts")) == 0 {
		t.Fatal("DP2 failovers aborted nothing in-flight")
	}
}

func TestE3AsyncFlatSyncScalesWithDistance(t *testing.T) {
	tab := run(t, "E3")
	// Async rows (even indices) flat; sync rows grow with WAN.
	var lastSync float64
	for r := 0; r < len(tab.Rows); r += 2 {
		asyncP50 := cell(t, tab, r, "commit p50")
		if asyncP50 != "1.50ms" {
			t.Fatalf("async commit latency varies with distance: %s", asyncP50)
		}
		syncP50 := strings.TrimSuffix(cell(t, tab, r+1, "commit p50"), "ms")
		v := num(t, syncP50)
		if v <= lastSync {
			t.Fatalf("sync latency not increasing with WAN: %v after %v", v, lastSync)
		}
		lastSync = v
	}
}

func TestE4LossGrowsWithLagAndSyncLosesNothing(t *testing.T) {
	tab := run(t, "E4")
	var last float64 = -1
	for r := 0; r < len(tab.Rows)-1; r++ {
		v := num(t, cell(t, tab, r, "mean lost/takeover"))
		if v < last {
			t.Fatalf("loss not monotonic in lag: %v after %v", v, last)
		}
		last = v
		if num(t, cell(t, tab, r, "audit errors")) != 0 {
			t.Fatal("unaccounted loss")
		}
	}
	if last == 0 {
		t.Fatal("largest lag lost nothing; window invisible")
	}
	syncRow := len(tab.Rows) - 1
	if num(t, cell(t, tab, syncRow, "mean lost/takeover")) != 0 {
		t.Fatal("sync mode lost acked work")
	}
}

func TestE5NoLostAddsEvenUnderChurn(t *testing.T) {
	tab := run(t, "E5")
	for r := range tab.Rows {
		if num(t, cell(t, tab, r, "lost adds")) != 0 {
			t.Fatalf("op-centric cart lost adds in row %d", r)
		}
		if num(t, cell(t, tab, r, "resurrected deletes")) != 0 {
			t.Fatalf("op-centric cart resurrected deletes in row %d", r)
		}
		if num(t, cell(t, tab, r, "sibling merges")) == 0 {
			t.Fatal("no siblings at all; the workload is not concurrent enough to test the claim")
		}
	}
}

func TestE6ConvergesAndRiskGrowsWithLag(t *testing.T) {
	tab := run(t, "E6")
	for r := range tab.Rows {
		if cell(t, tab, r, "balances equal") != "true" {
			t.Fatalf("row %d did not converge to equal balances", r)
		}
	}
	// Within each replica group (3 rows), bounce rate rises with gossip
	// interval.
	for g := 0; g < len(tab.Rows); g += 3 {
		fast := num(t, cell(t, tab, g, "bounce rate"))
		slow := num(t, cell(t, tab, g+2, "bounce rate"))
		if slow <= fast {
			t.Fatalf("bounce rate did not grow with gossip lag: %v -> %v", fast, slow)
		}
	}
}

func TestE7EscrowScalesExclusiveDoesNot(t *testing.T) {
	tab := run(t, "E7")
	// Rows alternate escrow/exclusive per client count; last pair is 32
	// clients.
	last := len(tab.Rows) - 2
	escrow := num(t, cell(t, tab, last, "txns/sec"))
	exclusive := num(t, cell(t, tab, last+1, "txns/sec"))
	if escrow < exclusive*16 {
		t.Fatalf("escrow %v vs exclusive %v at 32 clients; expected ~32x", escrow, exclusive)
	}
	if num(t, cell(t, tab, last, "waits/conflicts")) != 0 {
		t.Fatal("escrow conflicted on commutative ops within bounds")
	}
}

func TestE8SlideTradesDeclinesForApologies(t *testing.T) {
	tab := run(t, "E8")
	first, last := 0, len(tab.Rows)-1
	if num(t, cell(t, tab, first, "apologies")) != 0 {
		t.Fatal("strict provisioning apologized")
	}
	if num(t, cell(t, tab, first, "declined w/ stock idle")) == 0 {
		t.Fatal("strict provisioning declined nothing while stock idled; demand skew missing")
	}
	if num(t, cell(t, tab, last, "apologies")) == 0 {
		t.Fatal("heavy over-booking never apologized")
	}
	if num(t, cell(t, tab, last, "accepted")) <= num(t, cell(t, tab, first, "accepted")) {
		t.Fatal("over-booking did not accept more business")
	}
}

func TestE9UnboundedHoldsStarveBuyers(t *testing.T) {
	tab := run(t, "E9")
	if num(t, cell(t, tab, 0, "prime sold to buyers")) != 0 {
		t.Fatal("buyers got seats despite unbounded scalper holds")
	}
	if num(t, cell(t, tab, 1, "prime sold to buyers")) == 0 {
		t.Fatal("TTL did not restore liveness")
	}
}

func TestE10DialMovesExposure(t *testing.T) {
	tab := run(t, "E10")
	allSync, allAsync := 0, len(tab.Rows)-1
	if cell(t, tab, allSync, "%sync") != "100.00%" {
		t.Fatalf("all-sync row %%sync = %s", cell(t, tab, allSync, "%sync"))
	}
	if cell(t, tab, allAsync, "%sync") != "0.00%" {
		t.Fatalf("all-async row %%sync = %s", cell(t, tab, allAsync, "%sync"))
	}
	if cell(t, tab, allSync, "guessed $ exposure") != "$0" {
		t.Fatal("all-sync row had guessed exposure")
	}
	// Exposure monotonically rises as the threshold loosens.
	var last float64 = -1
	for r := range tab.Rows {
		v := num(t, strings.TrimPrefix(cell(t, tab, r, "guessed $ exposure"), "$"))
		if v < last {
			t.Fatalf("exposure not monotonic at row %d", r)
		}
		last = v
	}
}

func TestE11DedupEliminatesDuplicates(t *testing.T) {
	tab := run(t, "E11")
	for r := range tab.Rows {
		dupes := num(t, cell(t, tab, r, "duplicate shipments"))
		if cell(t, tab, r, "dedup") == "true" {
			if dupes != 0 {
				t.Fatalf("dedup row %d shipped %v duplicates", r, dupes)
			}
		} else if dupes == 0 {
			t.Fatalf("no-dedup row %d shipped no duplicates; retries invisible", r)
		}
	}
}

func TestE12GossipBeats2PC(t *testing.T) {
	tab := run(t, "E12")
	twoPC := num(t, cell(t, tab, 0, "availability"))
	gossip := num(t, cell(t, tab, 1, "availability"))
	if gossip <= twoPC {
		t.Fatalf("gossip availability %v%% <= 2PC %v%%", gossip, twoPC)
	}
	if gossip < 90 {
		t.Fatalf("gossip availability %v%% unexpectedly low", gossip)
	}
	if cell(t, tab, 1, "converged after heal") != "true" {
		t.Fatal("gossip cluster did not converge after churn")
	}
}

func TestE13CheckpointedFoldBeatsRefoldTenfold(t *testing.T) {
	tab := run(t, "E13")
	// Rows come in (checkpointed, full refold) pairs per ledger size.
	for r := 0; r < len(tab.Rows); r += 2 {
		if cell(t, tab, r, "states equal") != "true" {
			t.Fatalf("row %d: engines derived different states", r)
		}
		perSubmit := num(t, cell(t, tab, r, "steps/submit"))
		if perSubmit > 3 {
			t.Fatalf("checkpointed fold costs %.2f steps/submit; not O(new entries)", perSubmit)
		}
	}
	// The checkpointed steps/submit must NOT grow with the ledger while
	// the full refold's does — that is the whole point.
	firstFull := num(t, cell(t, tab, 1, "steps/submit"))
	lastFull := num(t, cell(t, tab, len(tab.Rows)-1, "steps/submit"))
	if lastFull < 4*firstFull {
		t.Fatalf("full refold cost did not scale with ledger size: %.1f -> %.1f", firstFull, lastFull)
	}
	// Acceptance bar: ≥10× on the 10k-op rule-checked workload.
	last := len(tab.Rows) - 2
	if tab.Rows[last][0] != "10000" {
		t.Fatalf("last pair is not the 10k workload: %v", tab.Rows[last])
	}
	speedup := num(t, strings.TrimSuffix(cell(t, tab, last, "refold speedup"), "×"))
	if speedup < 10 {
		t.Fatalf("10k-op speedup = %.1f×, want ≥10×", speedup)
	}
}

func TestE14ShardingPreservesPerKeyOutcomes(t *testing.T) {
	tab := run(t, "E14")
	// Row 0 is the unsharded arm (a single shard carrying everything);
	// the remaining rows are the sharded arm, one per shard. (E14 itself
	// panics if the two arms accept different ops or apologize
	// differently, so a returned table already proves equivalence.)
	if got := cell(t, tab, 0, "shards"); got != "1" {
		t.Fatalf("first row is not the unsharded arm: %q", got)
	}
	if got := cell(t, tab, 0, "op share"); got != "100%" {
		t.Fatalf("unsharded arm op share = %q, want 100%%", got)
	}
	baseOps := num(t, cell(t, tab, 0, "ops"))
	baseApologies := num(t, cell(t, tab, 0, "apologies"))
	if baseApologies == 0 {
		t.Fatal("the skewed storm produced no apologies; the workload is not stressing guesses")
	}
	var shardOps, shardApologies, maxShare float64
	apologyShards := 0
	for r := 1; r < len(tab.Rows); r++ {
		shardOps += num(t, cell(t, tab, r, "ops"))
		a := num(t, cell(t, tab, r, "apologies"))
		shardApologies += a
		if a > 0 {
			apologyShards++
		}
		if share := num(t, cell(t, tab, r, "op share")); share > maxShare {
			maxShare = share
		}
	}
	if shardOps != baseOps {
		t.Fatalf("sharded arm accepted %v ops, unsharded %v — sharding changed admission", shardOps, baseOps)
	}
	if shardApologies != baseApologies {
		t.Fatalf("sharded arm apologized %v times, unsharded %v", shardApologies, baseApologies)
	}
	// The hot key skews load onto its shard but pins every apology there:
	// the other shards run clean.
	if apologyShards != 1 {
		t.Fatalf("apologies landed on %d shards, want exactly the hot one", apologyShards)
	}
	if maxShare <= 100/float64(len(tab.Rows)-1) {
		t.Fatalf("max shard share %v%% shows no skew across %d shards", maxShare, len(tab.Rows)-1)
	}
	if maxShare >= 100 {
		t.Fatal("one shard carried everything; sharding did not spread the workload")
	}
}

func TestA1StrawmanShowsAnomaliesOpCartDoesNot(t *testing.T) {
	tab := run(t, "A1")
	if num(t, cell(t, tab, 0, "lost adds")) != 0 || num(t, cell(t, tab, 0, "resurrected deletes")) != 0 {
		t.Fatal("op-centric cart shows anomalies")
	}
	if num(t, cell(t, tab, 1, "lost adds")) == 0 {
		t.Fatal("state-merge cart lost nothing; §6.4's anomaly not reproduced")
	}
	if num(t, cell(t, tab, 1, "resurrected deletes")) == 0 {
		t.Fatal("state-merge cart resurrected nothing; §6.1's observed anomaly not reproduced")
	}
}

func TestA2BusBeatsCarUnderOverload(t *testing.T) {
	tab := run(t, "A2")
	// Last three rows are the overload arrival rate: car, coalescing,
	// timer.
	n := len(tab.Rows)
	carP99 := durMS(t, cell(t, tab, n-3, "commit p99"))
	busP99 := durMS(t, cell(t, tab, n-2, "commit p99"))
	if carP99 < busP99*10 {
		t.Fatalf("car p99 %vms vs bus p99 %vms; queueing collapse not visible", carP99, busP99)
	}
}

func TestA3QuorumOverlapEliminatesStaleness(t *testing.T) {
	tab := run(t, "A3")
	for r := range tab.Rows {
		rw := cell(t, tab, r, "R/W")
		stale := num(t, cell(t, tab, r, "stale reads"))
		overlap := rw == "R=2 W=2" || rw == "R=3 W=1" || rw == "R=3 W=3"
		if overlap && stale != 0 {
			t.Fatalf("%s: stale reads despite R+W>N", rw)
		}
		if rw == "R=1 W=1" && stale == 0 {
			t.Fatal("R=1 W=1 saw no staleness under churn; trade invisible")
		}
	}
}

// durMS parses "1.23ms" / "189.20ms" / "4.5µs" / "2.00s" into milliseconds.
func durMS(t *testing.T, s string) float64 {
	t.Helper()
	switch {
	case strings.HasSuffix(s, "µs"):
		return num(t, strings.TrimSuffix(s, "µs")) / 1000
	case strings.HasSuffix(s, "ms"):
		return num(t, strings.TrimSuffix(s, "ms"))
	case strings.HasSuffix(s, "ns"):
		return num(t, strings.TrimSuffix(s, "ns")) / 1e6
	case strings.HasSuffix(s, "s"):
		return num(t, strings.TrimSuffix(s, "s")) * 1000
	default:
		t.Fatalf("unparseable duration %q", s)
		return 0
	}
}

func TestE15RecoveryChangesNothing(t *testing.T) {
	tab := run(t, "E15")
	// Row 0 control, row 1 kill+recover. (E15 itself panics if the arms
	// diverge in ops, apologies, or balance, so a returned table already
	// proves the differential; these checks pin the shape.)
	if got := cell(t, tab, 0, "arm"); got != "control" {
		t.Fatalf("first row is %q, want control", got)
	}
	if got := cell(t, tab, 1, "arm"); got != "kill+recover" {
		t.Fatalf("second row is %q, want kill+recover", got)
	}
	for r := 0; r < 2; r++ {
		if cell(t, tab, r, "converged") != "true" {
			t.Fatalf("row %d did not converge", r)
		}
	}
	if num(t, cell(t, tab, 0, "ops")) != num(t, cell(t, tab, 1, "ops")) {
		t.Fatal("arms accepted different op counts")
	}
	if num(t, cell(t, tab, 0, "apologies")) == 0 {
		t.Fatal("workload produced no apologies; the differential is vacuous")
	}
	recovered := num(t, cell(t, tab, 1, "r1 ops at recovery"))
	killed := num(t, cell(t, tab, 1, "r1 ops at kill"))
	if recovered == 0 || recovered != killed {
		t.Fatalf("disk recovery rebuilt %v ops, %v were durable at the kill", recovered, killed)
	}
}

func TestA4MerkleMovesOnlyDivergence(t *testing.T) {
	tab := run(t, "A4")
	// Rows come in (whole-store, merkle) pairs per divergence level.
	for r := 0; r < len(tab.Rows); r += 2 {
		full := num(t, cell(t, tab, r, "versions moved"))
		mk := num(t, cell(t, tab, r+1, "versions moved"))
		if mk*5 > full {
			t.Fatalf("divergence row %d: merkle moved %v vs whole-store %v; expected >5x savings", r, mk, full)
		}
		if cell(t, tab, r, "rounds to in-sync") == "0" || cell(t, tab, r+1, "rounds to in-sync") == "0" {
			t.Fatal("no repair needed; divergence injection broken")
		}
	}
}
