package daemon

import (
	"repro/internal/core"
)

// Accounts is the daemon's application state: per-key balances in cents.
// quicksandd fixes the application (the paper's running example —
// accounts that must not go negative) so that every daemon in a cluster
// folds the same way; richer applications embed the engine directly.
type Accounts map[string]int64

// AccountsApp folds deposit/withdraw operations. Step mutates the
// accumulator in place; the Snapshotter implementation keeps states the
// engine has handed out stable regardless. Its operations commute — each
// adds to one balance, in wrapping int64 arithmetic, and every other kind
// folds as nothing — so it declares itself order-free (core.Commutative)
// and a replica folds late gossip in place, with no rewind and no
// checkpoint. FuzzAccountsCommute holds it to that declaration.
type AccountsApp struct{}

// Init returns the empty ledger.
func (AccountsApp) Init() Accounts { return make(Accounts) }

// Step applies one operation. Unknown kinds fold as no-ops, so a newer
// client talking to an older daemon degrades instead of diverging.
func (AccountsApp) Step(s Accounts, op core.Op) Accounts {
	switch op.Kind {
	case "deposit":
		s[op.Key] += op.Arg
	case "withdraw":
		s[op.Key] -= op.Arg
	}
	return s
}

// Commutes declares the operations order-free (core.Commutative).
func (AccountsApp) Commutes() {}

// Snapshot deep-copies the ledger (Snapshotter contract).
func (AccountsApp) Snapshot(s Accounts) Accounts {
	ns := make(Accounts, len(s))
	for k, v := range s {
		ns[k] = v
	}
	return ns
}

// NoOverdraft is the daemon's probabilistically enforced rule (§5.2):
// withdrawals are admitted against the local guess, and balances that
// later merge below zero become apologies. The violation detail is
// deliberately amount-free — "overdraft K" — so the same overdraft
// discovered at different replicas (or at different depths of the merge)
// dedupes to exactly one apology, making apology counts comparable
// across processes.
func NoOverdraft() core.Rule[Accounts] {
	return core.Rule[Accounts]{
		Name: "no-overdraft",
		Admit: func(s Accounts, op core.Op) bool {
			if op.Kind != "withdraw" {
				return true
			}
			return s[op.Key] >= op.Arg
		},
		Violated: func(s Accounts) []core.Violation {
			var out []core.Violation
			for k, v := range s {
				if v < 0 {
					out = append(out, core.Violation{
						Detail: "overdraft " + k,
						Key:    k,
						Amount: -v,
					})
				}
			}
			return out
		},
	}
}
