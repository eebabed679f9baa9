// Package bank implements the paper's Example 5 (§6.2): bank accounts and
// ledgers on operation-centric eventual consistency.
//
// Checks carry check numbers — "the check numbers (combined with the
// bank-id and account-number) provide a unique identifier" — so clearing
// is idempotent no matter how many replicas handle the same check. Debits
// and credits commute, so replicas clear checks independently and their
// ledgers flow together; "replicas that have seen the same work see the
// same result." The no-overdraft rule is enforced probabilistically: each
// replica guesses from its local balance, and when the merged truth shows
// a check cleared against insufficient funds, a bounce-fee compensation is
// issued automatically — the bank's designed apology.
//
// Monthly statements reproduce §6.2's ledger discipline: a statement is
// immutable once issued; an op that arrives late ("some check floating on
// midnight of the 31st") lands in the next statement rather than mutating
// the last one.
package bank

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/apology"
	"repro/internal/core"
	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uniq"
)

// Operation kinds.
const (
	KindDeposit   = "deposit"
	KindClear     = "clear-check"
	KindBounceFee = "bounce-fee"
)

// RuleName is the business rule the bank enforces probabilistically.
const RuleName = "no-overdraft"

// Uncovered records a check that cleared against insufficient funds in
// the canonical history.
type Uncovered struct {
	CheckID uniq.ID
	Account string
	Amount  int64
}

// Accounts is the state derived from the operation ledger.
type Accounts struct {
	Bal       map[string]int64
	Uncovered []Uncovered
}

// Balance returns an account's balance in cents.
func (a *Accounts) Balance(account string) int64 { return a.Bal[account] }

// App folds banking operations; it implements core.App.
type App struct{}

// Init returns empty accounts.
func (App) Init() *Accounts { return &Accounts{Bal: make(map[string]int64)} }

// Step applies one operation. Deposits and debits commute; the Uncovered
// list depends on canonical order, which oplog fixes identically at every
// replica.
func (App) Step(s *Accounts, op oplog.Entry) *Accounts {
	switch op.Kind {
	case KindDeposit:
		s.Bal[op.Key] += op.Arg
	case KindClear:
		if s.Bal[op.Key] < op.Arg {
			s.Uncovered = append(s.Uncovered, Uncovered{CheckID: op.ID, Account: op.Key, Amount: op.Arg})
		}
		s.Bal[op.Key] -= op.Arg
	case KindBounceFee:
		s.Bal[op.Key] -= op.Arg
	}
	return s
}

// Snapshot returns an independent deep copy of the accounts. Implementing
// core.Snapshotter lets replicas advance their balance fold from a
// checkpoint instead of replaying the whole ledger on every admission
// check.
func (App) Snapshot(s *Accounts) *Accounts {
	return &Accounts{Bal: maps.Clone(s.Bal), Uncovered: slices.Clone(s.Uncovered)}
}

// NoOverdraft is the probabilistically enforced business rule: "there is
// an expressed business rule that the account balance will not drop below
// zero ... it is a business decision on the part of the bank to allow this
// risk."
func NoOverdraft() core.Rule[*Accounts] {
	return core.Rule[*Accounts]{
		Name: RuleName,
		Admit: func(s *Accounts, op oplog.Entry) bool {
			if op.Kind != KindClear {
				return true
			}
			return s.Bal[op.Key] >= op.Arg
		},
		Violated: func(s *Accounts) []core.Violation {
			out := make([]core.Violation, 0, len(s.Uncovered))
			for _, u := range s.Uncovered {
				out = append(out, core.Violation{
					Detail: fmt.Sprintf("check %s for %d¢ cleared against insufficient funds on %s", u.CheckID, u.Amount, u.Account),
					Key:    u.Account,
					Amount: u.Amount,
				})
			}
			return out
		},
	}
}

// Statement is one immutable monthly account statement.
type Statement struct {
	Account  string
	Seq      int
	Opening  int64
	Closing  int64
	Lines    []oplog.Entry
	CutoffAt time.Duration
	IssuedAt time.Duration
}

// Bank wires a core.Cluster to banking semantics: check numbering,
// automatic bounce-fee compensation, and per-replica statement books.
type Bank struct {
	C   *core.Cluster[*Accounts]
	fee int64

	checkSeq map[string]int
	// statement bookkeeping, per replica then per account
	stmts  []map[string][]Statement
	onStmt []map[uniq.ID]bool

	Bounced stats.Counter // bounce fees issued
}

// New builds a bank over a fresh core cluster. feeCents is the overdraft
// fee charged per uncovered check; opts configure the underlying cluster
// (replica count, transport, gossip cadence, ...).
func New(feeCents int64, opts ...core.Option) *Bank {
	b := &Bank{
		fee:      feeCents,
		checkSeq: make(map[string]int),
	}
	b.C = core.New[*Accounts](App{}, []core.Rule[*Accounts]{NoOverdraft()}, opts...)
	for i := 0; i < b.C.Replicas(); i++ {
		b.stmts = append(b.stmts, make(map[string][]Statement))
		b.onStmt = append(b.onStmt, make(map[uniq.ID]bool))
	}
	// The designed apology (§5.6): business-specific compensation code
	// that charges the fee, with no human in the loop.
	b.C.Apologies.AddHandler(func(a apology.Apology) bool {
		if a.Rule != RuleName {
			return false
		}
		b.Bounced.Inc()
		op := core.NewOp(KindBounceFee, a.Key, b.fee)
		op.Note = "overdraft fee for " + a.Detail
		b.C.SubmitAsync(0, op, nil, core.WithPolicy(policy.AlwaysAsync()))
		return true
	})
	return b
}

// Deposit credits cents to account at replica rep. done may be nil.
func (b *Bank) Deposit(rep int, account string, cents int64, done func(core.Result)) {
	b.C.SubmitAsync(rep, core.NewOp(KindDeposit, account, cents), done,
		core.WithPolicy(policy.AlwaysAsync()))
}

// ClearCheck presents a numbered check at replica rep. The check number
// is the uniquifier: presenting the same check at two replicas debits the
// account once. pol decides whether this check clears on local knowledge
// or coordinates (the $10,000 rule). done may be nil.
func (b *Bank) ClearCheck(rep int, account string, checkNo int, cents int64, pol policy.Policy, done func(core.Result)) {
	op := oplogEntry(account, checkNo, cents, b.C.Now())
	b.C.SubmitAsync(rep, op, done, core.WithPolicy(pol))
}

// NextCheckNo hands out the next check number for an account's checkbook.
func (b *Bank) NextCheckNo(account string) int {
	b.checkSeq[account]++
	return b.checkSeq[account]
}

func oplogEntry(account string, checkNo int, cents int64, at time.Duration) oplog.Entry {
	return oplog.Entry{
		ID:   uniq.CheckNumber("quicksand-bank", account, checkNo),
		Kind: KindClear,
		Key:  account,
		Arg:  cents,
		At:   at,
	}
}

// Balance reads an account's balance as replica rep currently knows it —
// a guess, not the truth (§5.1).
func (b *Bank) Balance(rep int, account string) int64 {
	return b.C.Replica(rep).State().Balance(account)
}

// IssueStatement closes the books for account at replica rep: every
// operation this replica has seen, dated at or before cutoff and not on a
// previous statement, becomes one immutable statement. Late-arriving
// operations — even ones dated inside an already-issued statement's
// window — land on the next statement, never a reprint.
func (b *Bank) IssueStatement(rep int, account string, cutoff time.Duration) Statement {
	seen := b.onStmt[rep]
	var lines []oplog.Entry
	for _, e := range b.C.Replica(rep).Ops().Entries() {
		if e.Key != account || e.At > cutoff || seen[e.ID] {
			continue
		}
		lines = append(lines, e)
	}
	prev := b.stmts[rep][account]
	opening := int64(0)
	if len(prev) > 0 {
		opening = prev[len(prev)-1].Closing
	}
	closing := opening
	for _, e := range lines {
		closing += opEffect(e)
		seen[e.ID] = true
	}
	st := Statement{
		Account:  account,
		Seq:      len(prev) + 1,
		Opening:  opening,
		Closing:  closing,
		Lines:    lines,
		CutoffAt: cutoff,
		IssuedAt: b.C.Now(),
	}
	b.stmts[rep][account] = append(prev, st)
	return st
}

// Statements returns the issued statements for account at replica rep.
func (b *Bank) Statements(rep int, account string) []Statement {
	return append([]Statement(nil), b.stmts[rep][account]...)
}

func opEffect(e oplog.Entry) int64 {
	switch e.Kind {
	case KindDeposit:
		return e.Arg
	default: // clear-check, bounce-fee
		return -e.Arg
	}
}
