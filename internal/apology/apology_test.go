package apology

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestLedgerCountsByKind(t *testing.T) {
	var l Ledger
	l.Record(0, Memory, "r1", "saw op", "op-1")
	l.Record(1, Guess, "r1", "cleared check", "op-1")
	l.Record(2, Regret, "r1", "overdraft", "ap-1")
	l.Record(3, Memory, "r1", "saw op", "op-2")
	if l.Count(Memory) != 2 || l.Count(Guess) != 1 || l.Count(Regret) != 1 {
		t.Fatalf("counts = %d/%d/%d", l.Count(Memory), l.Count(Guess), l.Count(Regret))
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	es := l.Entries()
	if len(es) != 4 || es[0].What != "saw op" || es[2].At != sim.Time(2) {
		t.Fatalf("entries = %+v", es)
	}
	// Tallied memories and guesses count like recorded ones and store no line.
	l.Tally(Memory, 1000)
	l.Tally(Guess, 10)
	if l.Count(Memory) != 1002 || l.Count(Guess) != 11 || l.Count(Regret) != 1 || l.Len() != 1014 {
		t.Fatalf("after Tally: counts = %d/%d/%d, Len = %d", l.Count(Memory), l.Count(Guess), l.Count(Regret), l.Len())
	}
	if len(l.Entries()) != 4 {
		t.Fatalf("Tally stored lines: %d entries, want 4", len(l.Entries()))
	}
	l.Reset()
	if l.Len() != 0 || l.Count(Memory) != 0 || len(l.Entries()) != 0 {
		t.Fatal("Reset left something behind")
	}
}

func TestKindString(t *testing.T) {
	if Memory.String() != "memory" || Guess.String() != "guess" || Regret.String() != "apology" {
		t.Fatal("kind names wrong")
	}
}

func TestApologyIDDerivedFromContent(t *testing.T) {
	a := NewApology("no-overdraft", "acct-1 overdrawn", 500, "r1")
	b := NewApology("no-overdraft", "acct-1 overdrawn", 500, "r2") // other replica, same violation
	if a.ID != b.ID {
		t.Fatal("same violation must produce the same apology ID")
	}
	c := NewApology("no-overdraft", "acct-2 overdrawn", 500, "r1")
	if a.ID == c.ID {
		t.Fatal("different violations collided")
	}
}

func TestQueueRoutesToHandlerThenHuman(t *testing.T) {
	q := NewQueue()
	var handled []Apology
	q.AddHandler(func(a Apology) bool {
		if a.Amount <= 1000 {
			handled = append(handled, a)
			return true // small stuff compensates automatically
		}
		return false
	})
	q.Submit(NewApology("rule", "small mess", 500, "r1"))
	q.Submit(NewApology("rule", "big mess", 50_000, "r1"))
	if len(q.Automated()) != 1 || len(q.Human()) != 1 {
		t.Fatalf("automated=%d human=%d", len(q.Automated()), len(q.Human()))
	}
	if q.Human()[0].Detail != "big mess" {
		t.Fatal("wrong apology escalated")
	}
	if q.Total() != 2 {
		t.Fatalf("Total = %d", q.Total())
	}
}

func TestQueueDedupes(t *testing.T) {
	q := NewQueue()
	a := NewApology("rule", "same mess", 0, "r1")
	if !q.Submit(a) {
		t.Fatal("first submit rejected")
	}
	if q.Submit(NewApology("rule", "same mess", 0, "r2")) {
		t.Fatal("duplicate violation accepted twice")
	}
	if q.Total() != 1 {
		t.Fatalf("Total = %d", q.Total())
	}
}

func TestQueueNoHandlersEscalatesEverything(t *testing.T) {
	q := NewQueue()
	q.Submit(NewApology("rule", "mess", 0, "r1"))
	if len(q.Human()) != 1 {
		t.Fatal("handlerless queue must escalate to humans")
	}
	if !strings.Contains(q.String(), "1 escalated") {
		t.Fatalf("String() = %q", q.String())
	}
}

func TestHandlersRunInOrder(t *testing.T) {
	q := NewQueue()
	order := []string{}
	q.AddHandler(func(a Apology) bool { order = append(order, "first"); return false })
	q.AddHandler(func(a Apology) bool { order = append(order, "second"); return true })
	q.Submit(NewApology("r", "d", 0, "x"))
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}
