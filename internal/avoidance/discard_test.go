package avoidance

import (
	"testing"

	"dimmunix/internal/calib"
)

// TestDiscardObsoleteSignature exercises the §8 auto-discard: a signature
// whose completed calibration ladder shows a 100% FP rate at its chosen
// depth is removed from the history.
func TestDiscardObsoleteSignature(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull, DiscardObsolete: true})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	sig := e.addSig(2, sa, sb)
	sig.Calib = calib.NewState(2, 1, 1000) // tiny ladder: 2 rungs, NA=1

	holder := e.c.NewThread(1, "holder")
	requester := e.c.NewThread(2, "req")
	lb := e.c.NewLock()
	la := e.c.NewLock()

	if dec := e.c.Request(holder, lb, sb); !dec.Go {
		t.Fatal("holder must GO")
	}
	e.c.Acquired(holder, lb)

	// Two avoidances complete the ladder (NA=1 per rung).
	var lastDec Decision
	for i := 0; i < 2; i++ {
		dec := e.c.Request(requester, la, sa)
		if dec.Go {
			t.Fatalf("avoidance %d did not yield", i)
		}
		lastDec = dec
		e.c.Cancel(requester, la) // roll back; we only need the avoidance
	}
	if sig.Calib.Active() {
		t.Fatal("ladder should have completed")
	}
	if sig.Calib.Chosen != 1 {
		t.Fatalf("chosen depth = %d, want 1 (no FP data yet => smallest)", sig.Calib.Chosen)
	}

	// A 100%-FP verdict at the chosen depth triggers the discard.
	recs := []BindingRecord{{TID: 1, LID: lastDec.Causes[0].L.ID, Stack: lastDec.Causes[0].St, SigIdx: lastDec.Causes[0].SigIdx}}
	e.c.RecordOutcome(sig.ID, 1, true, sa, lastDec.YielderIdx, recs)

	if e.hist.Get(sig.ID) != nil {
		t.Fatal("obsolete signature must be discarded from the history (§8)")
	}
	// And the pattern is no longer avoided.
	if dec := e.c.Request(requester, la, sa); !dec.Go {
		t.Fatal("discarded signature must not be avoided")
	}
}

// TestNoDiscardWhenDisabled checks the flag gates the behavior.
func TestNoDiscardWhenDisabled(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull}) // DiscardObsolete off
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	sig := e.addSig(2, sa, sb)
	sig.Calib = calib.NewState(2, 1, 1000)

	holder := e.c.NewThread(1, "holder")
	requester := e.c.NewThread(2, "req")
	lb := e.c.NewLock()
	la := e.c.NewLock()
	e.c.Request(holder, lb, sb)
	e.c.Acquired(holder, lb)
	var lastDec Decision
	for i := 0; i < 2; i++ {
		lastDec = e.c.Request(requester, la, sa)
		e.c.Cancel(requester, la)
	}
	recs := []BindingRecord{{TID: 1, LID: lb.ID, Stack: sb, SigIdx: lastDec.Causes[0].SigIdx}}
	e.c.RecordOutcome(sig.ID, 1, true, sa, lastDec.YielderIdx, recs)
	if e.hist.Get(sig.ID) == nil {
		t.Fatal("signature must be kept when DiscardObsolete is off")
	}
}

func TestLastAvoidedTracking(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	if e.c.LastAvoided() != nil {
		t.Fatal("LastAvoided must start nil")
	}
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	sig := e.addSig(2, sa, sb)
	holder := e.c.NewThread(1, "holder")
	requester := e.c.NewThread(2, "req")
	lb := e.c.NewLock()
	la := e.c.NewLock()
	e.c.Request(holder, lb, sb)
	e.c.Acquired(holder, lb)
	if dec := e.c.Request(requester, la, sa); dec.Go {
		t.Fatal("expected yield")
	}
	if e.c.LastAvoided() != sig {
		t.Fatal("LastAvoided not recorded")
	}
}
