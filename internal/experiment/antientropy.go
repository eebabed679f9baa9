package experiment

import (
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// A4MerkleAntiEntropy compares whole-store anti-entropy against
// Merkle-tree anti-entropy: same divergence, same convergence, very
// different transfer bills.
func A4MerkleAntiEntropy() Experiment {
	return Experiment{
		ID:    "A4",
		Title: "Ablation: anti-entropy transfer cost — whole-store exchange vs Merkle trees",
		Claim: `§7.6: "as disconnected replicas work independently, they accumulate operations ... when the work flows together, a new, more accurate answer is created." The Dynamo design the paper builds on does this flowing with Merkle trees so only divergent ranges travel.`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("A4 — 400 keys in sync, D keys silently lost on one replica, repair cost to reconverge",
				"5 nodes; versions moved counts every record on the wire; digests counts Merkle hashes compared.",
				"divergent keys", "protocol", "rounds to in-sync", "versions moved", "digests compared")
			for _, divergent := range []int{1, 10, 50} {
				for _, useMerkle := range []bool{false, true} {
					s := sim.New(seed)
					cl := dynamo.New(s, dynamo.Config{
						Nodes: 5, N: 3, R: 2, W: 3,
						MerkleSync: useMerkle,
					})
					// Populate and fully converge.
					for i := 0; i < 400; i++ {
						cl.Put(fmt.Sprintf("key-%04d", i), "v", vclock.New(), "loader", func(bool) {})
					}
					s.Run()
					for r := 0; r < 6 && !cl.InSync(); r++ {
						cl.AntiEntropyRound()
						s.Run()
					}
					if !cl.InSync() {
						panic("A4: baseline never converged")
					}
					// Silent divergence: one replica loses D keys.
					victim := "n0"
					for i := 0; i < divergent; i++ {
						cl.ForgetKey(victim, fmt.Sprintf("key-%04d", i))
					}
					cl.M.SyncVersions = stats.Counter{}
					cl.M.SyncDigests = stats.Counter{}
					rounds := 0
					for ; rounds < 10 && !cl.InSync(); rounds++ {
						cl.AntiEntropyRound()
						s.Run()
					}
					if !cl.InSync() {
						panic("A4: repair never converged")
					}
					name := "whole-store"
					if useMerkle {
						name = "merkle"
					}
					tab.AddRow(fmt.Sprint(divergent), name, fmt.Sprint(rounds),
						fmt.Sprint(cl.M.SyncVersions.Value()),
						fmt.Sprint(cl.M.SyncDigests.Value()))
				}
			}
			return tab
		},
	}
}
