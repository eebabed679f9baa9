package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The op stream is generated from -seed before the clock starts; the
// product only ever sees the ops. Same seed ⇒ byte-identical stream per
// worker (kind, key, amount, and the worker's route).

const (
	accounts  = 1024 // small state everywhere: a whole-state read stays cheap
	prefund   = 1000 // every account is funded in set-up, so withdrawals rarely decline
	maxAmount = 100  // amounts are 1..maxAmount
	pDeposit  = 0.8  // deposit:withdraw 0.8:0.2 keeps balances drifting upward
)

type opKind uint8

const (
	opDeposit opKind = iota
	opWithdraw
	opSyncDeposit
	opSyncWithdraw
	opRead
)

// class groups op kinds by the end-to-end metric that times them.
type class uint8

const (
	classGuess class = iota
	classSync
	classRead
	numClasses
)

func (k opKind) class() class {
	switch k {
	case opDeposit, opWithdraw:
		return classGuess
	case opRead:
		return classRead
	}
	return classSync
}

// kindNames is what the product sees: sync is a property of the submit,
// not of the op.
var kindNames = [...]string{opDeposit: "deposit", opWithdraw: "withdraw", opSyncDeposit: "deposit", opSyncWithdraw: "withdraw"}

func (k opKind) withdraw() bool { return k == opWithdraw || k == opSyncWithdraw }

// op is one pre-generated operation: 4 bytes, so a million-op stream per
// worker costs the harness 4 MB and no allocation while the clock runs.
type op struct {
	kind opKind
	amt  uint8
	key  uint16
}

// stream is one worker's ops and the entry point it sends them to.
type stream struct {
	route int
	ops   []op
}

// mix is a workload's traffic shape.
type mix struct {
	pSync float64 // share of ops submitted under AlwaysSync / sync=true
	pRead float64 // share of ops that read the whole state
	zipf  float64 // key skew exponent; 0 = uniform
}

// mixBlock is the run of ops over which the mix is exact: every seed's
// stream holds the same share of reads and coordinated submits, in
// another order. A read costs ten guesses' allocations, so a share left to
// chance would move allocs_per_op by a percent from seed to seed.
const mixBlock = 100

// genStreams builds one stream per worker. Worker w enters at entry
// w mod entries. Each worker draws from its own generator, so adding a
// worker never perturbs the others' ops.
func genStreams(seed int64, workers, entries, n int, m mix) []stream {
	out := make([]stream, workers)
	for w := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
		var z *rand.Zipf
		if m.zipf > 0 {
			z = rand.NewZipf(r, m.zipf, 1, accounts-1)
		}
		reads, syncs := int(math.Round(m.pRead*mixBlock)), int(math.Round(m.pSync*mixBlock))
		kinds := make([]opKind, mixBlock) // opDeposit, but for the reads and syncs in front
		for j := 0; j < reads+syncs; j++ {
			kinds[j] = opSyncDeposit
			if j < reads {
				kinds[j] = opRead
			}
		}
		ops := make([]op, n)
		for i := range ops {
			if i%mixBlock == 0 {
				r.Shuffle(mixBlock, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
			}
			o := op{kind: kinds[i%mixBlock]}
			if o.kind != opRead {
				if r.Float64() >= pDeposit {
					o.kind++ // the withdraw sibling of either deposit kind
				}
				if z != nil {
					o.key = uint16(z.Uint64())
				} else {
					o.key = uint16(r.Intn(accounts))
				}
				o.amt = uint8(1 + r.Intn(maxAmount))
			}
			ops[i] = o
		}
		out[w] = stream{route: w % entries, ops: ops}
	}
	return out
}

// keyNames is built once so the hot loop never formats a key.
var keyNames = func() []string {
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct-%04d", i)
	}
	return names
}()
