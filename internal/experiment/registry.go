// Package experiment holds the derived evaluation suite of this
// reproduction. Building on Quicksand has no tables or figures, so each
// experiment here operationalizes one falsifiable claim from the paper's
// prose (quoted in Claim) and regenerates one table; cmd/quicksand-bench
// prints them and this package's tests assert them.
package experiment

import (
	"fmt"

	"repro/internal/stats"
)

// Experiment is one runnable claim-check.
type Experiment struct {
	ID    string // E1..E15, A1..A4
	Title string
	Claim string // the paper text this experiment tests, with section
	Run   func(seed int64) *stats.Table
}

// All returns the full suite in presentation order.
func All() []Experiment {
	return []Experiment{
		E1TandemCheckpointCost(),
		E2TandemFailover(),
		E3LogShipLatency(),
		E4LogShipLoss(),
		E5CartReconciliation(),
		E6BankClearing(),
		E7Escrow(),
		E8Allocation(),
		E9Seats(),
		E10RiskPolicy(),
		E11Idempotence(),
		E12CAPAvailability(),
		E13IncrementalFold(),
		E14ShardedHotKey(),
		E15DurableRecovery(),
		A1OpVsStateMerge(),
		A2GroupCommit(),
		A3QuorumSweep(),
		A4MerkleAntiEntropy(),
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}

// tableT aliases the stats table for test helpers.
type tableT = stats.Table
