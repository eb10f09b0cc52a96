// Differential and race tests for the lock-free fast tier: the fast path
// must never bypass a stack that can match an enabled signature, under
// any effective depth, including immediately after a history mutation
// (ReloadHistory's ReplaceAll, SetDisabled, Add) observed under race.
package avoidance

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dimmunix/internal/calib"
	"dimmunix/internal/event"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// assertNeverBypasses fails if some interned stack the fast tier deems
// safe matches any enabled signature stack at a depth that signature can
// actually assume — the exact property that makes skipping the guarded
// protocol sound. A fixed-depth signature only ever matches at its
// effective depth (the per-depth danger index exploits exactly that); a
// calibration-capable signature's depth can move without a history
// mutation (rung advances, NT re-arms), so for those every depth
// 1..maxDepth must be covered.
func assertNeverBypasses(t *testing.T, c *Cache, hist *signature.History, probes []*stack.Interned, maxDepth int) {
	t.Helper()
	for _, in := range probes {
		if !c.classifySafe(in) {
			continue
		}
		for _, sig := range hist.Snapshot() {
			if sig.Disabled {
				continue
			}
			depths := []int{sig.EffectiveDepth()}
			if sig.Calib.On || sig.Calib.MaxDepth > 0 {
				for d := 1; d <= maxDepth; d++ {
					depths = append(depths, d)
				}
			}
			for j, ss := range sig.Stacks {
				for _, d := range depths {
					if in.S.MatchesAtDepth(ss, d) {
						t.Fatalf("fast tier bypassed stack %q which matches enabled sig %s position %d at depth %d (calib=%v)",
							in.S, sig.ID, j, d, sig.Calib.On)
					}
				}
			}
		}
	}
}

// TestFastPathDifferentialRandom fuzzes histories and probe stacks built
// from a small shared frame pool (to force overlaps) and asserts the
// never-bypass property, then cross-checks decisions against the full
// guarded path.
func TestFastPathDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := make([]stack.Frame, 12)
	for i := range pool {
		pool[i] = stack.Frame{Func: fmt.Sprintf("fn%d", i), File: "pool.go", Line: i + 1}
	}
	randStack := func(depth int) stack.Stack {
		s := make(stack.Stack, depth)
		for i := range s {
			s[i] = pool[rng.Intn(len(pool))]
		}
		return s
	}

	for round := 0; round < 50; round++ {
		e := newEnv(Config{Mode: ModeFull})
		for i := 0; i < 1+rng.Intn(3); i++ {
			nStacks := 2 + rng.Intn(2)
			raw := make([]stack.Stack, nStacks)
			for j := range raw {
				raw[j] = randStack(1 + rng.Intn(5))
			}
			sig := signature.New(signature.Deadlock, raw, 1+rng.Intn(5))
			sig.Disabled = rng.Intn(4) == 0
			if rng.Intn(3) == 0 {
				// Calibration-capable: the danger index must fall back to
				// the depth-independent innermost-frame bucket for these.
				sig.Calib = calib.NewState(1+rng.Intn(5), 2, 4)
			}
			e.hist.Add(sig)
		}
		var probes []*stack.Interned
		for i := 0; i < 30; i++ {
			probes = append(probes, e.in.Intern(randStack(1+rng.Intn(6))))
		}
		assertNeverBypasses(t, e.c, e.hist, probes, 8)

		// Differential check: when the fast tier says GO, the guarded
		// protocol must agree (its decision for a safe stack is always
		// GO, whatever the adversarially chosen entry state is).
		th := e.c.NewThread(1, "probe")
		adv := e.c.NewThread(2, "adversary")
		for i, in := range probes {
			l := e.c.NewLock()
			// Adversarial entries: the adversary holds a lock at every
			// probe stack, maximizing cover opportunities for dangerous
			// requests.
			if i%3 == 0 {
				al := e.c.NewLock()
				if e.c.Request(adv, al, in).Go {
					e.c.Acquired(adv, al)
				}
			}
			fast := e.c.fastOK && e.c.classifySafe(in)
			dec := e.c.Request(th, l, in)
			if fast && !dec.Go {
				t.Fatalf("round %d: fast tier would GO but guarded path yields on %q (sig %v)", round, in.S, dec.Sig)
			}
			if dec.Go {
				e.c.Cancel(th, l)
			}
		}
	}
}

// TestFastPathYieldsAgreeOnPaperExample pins the §4 scenario: the
// dangerous request must be rejected by the fast tier (so it reaches the
// guarded path and yields), while an unrelated safe stack keeps the fast
// tier even with dangerous entries present.
func TestFastPathYieldsAgreeOnPaperExample(t *testing.T) {
	e, tl, a, s13, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Sig == nil {
		t.Fatal("guarded path must yield on the paper example")
	}
	if e.c.FastEligible(s13) {
		t.Fatal("fast tier accepted a stack that instantiates a signature")
	}
	// A stack sharing the signature's innermost frame but diverging
	// within its depth-3 matching window can never instantiate it, and
	// the per-depth danger index proves that: it keeps the fast tier.
	// (The old depth-1 over-approximation sent it to the guarded path.)
	nearMiss := e.stk("lock", "elsewhere", "main:other")
	if !e.c.FastEligible(nearMiss) {
		t.Fatal("stack diverging inside the matching window must keep the fast tier")
	}
	safe := e.stk("lockC", "elsewhere", "main:other")
	if !e.c.FastEligible(safe) {
		t.Fatal("fast tier rejected a provably safe stack")
	}
	e.c.FastBlocking(tl, a, safe)
	e.c.FastCancel(tl, a)
}

// TestFastMarkerInvalidatesOnHistoryMutation asserts the epoch protocol
// sequentially: a safe verdict cached before AddSignature / SetDisabled /
// ReplaceAll must not survive the mutation.
func TestFastMarkerInvalidatesOnHistoryMutation(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	s := e.stk("lock", "handler", "main")
	other := e.stk("lock", "other", "main")

	if !e.c.classifySafe(s) {
		t.Fatal("empty history: everything is safe")
	}

	// Add: the stack's innermost frame joins the danger set.
	sig := e.addSig(2, s, other)
	if e.c.classifySafe(s) {
		t.Fatal("classification survived AddSignature")
	}

	// Disable: the signature no longer counts.
	e.hist.SetDisabled(sig.ID, true)
	if !e.c.classifySafe(s) {
		t.Fatal("disabled signature still poisons the fast tier")
	}
	e.hist.SetDisabled(sig.ID, false)
	if e.c.classifySafe(s) {
		t.Fatal("re-enabled signature not seen by the fast tier")
	}

	// ReplaceAll (the ReloadHistory §8 path): swap in an empty set, then
	// one matching again.
	e.hist.ReplaceAll(signature.NewHistory())
	if !e.c.classifySafe(s) {
		t.Fatal("ReplaceAll(empty) did not clear the danger index")
	}
	fresh := signature.NewHistory()
	fresh.Add(signature.New(signature.Deadlock, []stack.Stack{s.S, other.S}, 3))
	e.hist.ReplaceAll(fresh)
	if e.c.classifySafe(s) {
		t.Fatal("ReplaceAll(matching) not observed by the fast tier")
	}
}

// TestFastPathReloadUnderRace hammers FastRequest from many goroutines
// while the history is concurrently reloaded, and asserts the ordering
// guarantee: once a mutation returns, the next classification — from the
// mutating goroutine or one synchronized with it — reflects it. The
// -race build additionally proves the marker/epoch protocol is clean.
func TestFastPathReloadUnderRace(t *testing.T) {
	hist := signature.NewHistory()
	interner := stack.NewInterner()
	c := NewCache(Config{Mode: ModeFull}, interner, hist, &Stats{}, func(event.Event) {})

	danger := interner.Intern(stack.Stack{
		{Func: "lock", File: "t.go", Line: 1},
		{Func: "handler", File: "t.go", Line: 2},
	})
	safe := interner.Intern(stack.Stack{
		{Func: "lock2", File: "t.go", Line: 1},
		{Func: "other", File: "t.go", Line: 2},
	})
	withSig := signature.NewHistory()
	withSig.Add(signature.New(signature.Deadlock, []stack.Stack{
		danger.S,
		{{Func: "lock3", File: "t.go", Line: 9}},
	}, 2))
	empty := signature.NewHistory()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := c.NewThread(int32(10+i), "hammer")
			l := c.NewLock()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.FastEligible(danger) {
					c.FastAcquiredImmediate(th, l, danger, false)
					c.FastRelease(th, l)
				}
				if c.FastEligible(safe) {
					c.FastAcquiredImmediate(th, l, safe, false)
					c.FastRelease(th, l)
				}
			}
		}(i)
	}

	syncCh := make(chan bool)
	ackCh := make(chan struct{})
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		for enabled := range syncCh {
			// Receiving establishes happens-after the mutation below;
			// the mutator waits for the ack before mutating again.
			if got := c.classifySafe(danger); got != !enabled {
				t.Errorf("after reload(enabled=%v): classifySafe(danger) = %v", enabled, got)
				return
			}
			if !c.classifySafe(safe) {
				t.Error("safe stack misclassified after reload")
				return
			}
			ackCh <- struct{}{}
		}
	}()

	for i := 0; i < 400; i++ {
		enabled := i%2 == 0
		if enabled {
			hist.ReplaceAll(withSig)
		} else {
			hist.ReplaceAll(empty)
		}
		// Sequential guarantee on the mutating goroutine itself.
		if got := c.classifySafe(danger); got != !enabled {
			t.Fatalf("iteration %d: classification did not track ReplaceAll (enabled=%v, safe=%v)", i, enabled, got)
		}
		select {
		case syncCh <- enabled:
		case <-checkerDone:
			t.FailNow()
		}
		select {
		case <-ackCh:
		case <-checkerDone:
			t.FailNow()
		}
	}
	close(syncCh)
	<-checkerDone
	close(stop)
	wg.Wait()
}

// TestReentrantFastTierPairing checks the ReentrantAcquired contract: a
// safe reentrant stack reports fast (caller must FastRelease) and the
// hold accounting balances across mixed tiers.
func TestReentrantFastTierPairing(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	th := e.c.NewThread(1, "t1")
	l := e.c.NewLock()
	outer := e.stk("lock", "outer")
	inner := e.stk("lock", "inner")

	if !e.c.FastEligible(outer) {
		t.Fatal("empty history: outer acquisition should be fast")
	}
	e.c.FastAcquiredImmediate(th, l, outer, false)
	if got := th.LiveHolds(); got != 1 {
		t.Fatalf("LiveHolds = %d, want 1", got)
	}
	if !e.c.ReentrantAcquired(th, l, inner) {
		t.Fatal("safe reentrant stack should take the fast tier")
	}
	if got := th.LiveHolds(); got != 2 {
		t.Fatalf("LiveHolds = %d, want 2", got)
	}
	e.c.FastRelease(th, l)
	e.c.FastRelease(th, l)
	if got := th.LiveHolds(); got != 0 {
		t.Fatalf("LiveHolds = %d, want 0", got)
	}

	// With a matching signature the reentrant stack must take the
	// guarded tier and leave a removable entry.
	e.addSig(2, inner, e.stk("lock", "elsewhere"))
	if e.c.ReentrantAcquired(th, l, inner) {
		t.Fatal("dangerous reentrant stack must not take the fast tier")
	}
	e.c.Release(th, l)
	if got := th.LiveHolds(); got != 0 {
		t.Fatalf("LiveHolds = %d, want 0 after guarded release", got)
	}
}

// TestFastPathDisabled checks the DisableFastPath escape hatch used by
// benchmark baselines.
func TestFastPathDisabled(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull, DisableFastPath: true})
	th := e.c.NewThread(1, "t1")
	l := e.c.NewLock()
	s := e.stk("lock", "main")
	if e.c.FastEligible(s) {
		t.Fatal("DisableFastPath must force the guarded path")
	}
	if !e.c.Request(th, l, s).Go {
		t.Fatal("guarded path should GO")
	}
	e.c.Cancel(th, l)
	if e.c.Stats().FastGos.Load() != 0 {
		t.Fatal("no fast GOs expected")
	}
}

// TestPaperExampleUnrelatedBookkeeping runs the paper example to its
// yield, then checks that unrelated stacks still GO and that their
// acquire/release bookkeeping balances alongside the live instance.
func TestPaperExampleUnrelatedBookkeeping(t *testing.T) {
	e, _, _, _, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Sig == nil {
		t.Fatal("yield expected on the paper example")
	}
	th := e.c.NewThread(7, "w")
	for i := 0; i < 10; i++ {
		l := e.c.NewLock()
		s := e.stk("lock", fmt.Sprintf("site%d", i))
		if !e.c.Request(th, l, s).Go {
			t.Fatal("unrelated stack must GO")
		}
		e.c.Acquired(th, l)
		e.c.Release(th, l)
	}
	if got := th.LiveHolds(); got != 0 {
		t.Fatalf("LiveHolds = %d", got)
	}
}

// reconcileScenario drives the soundness remainder of the fast-hold log:
// T1 takes a fast-tier hold on lock A (history empty, everything safe);
// then mutate bumps the danger-index epoch with a signature {sA, sB};
// then T2 requests lock B via sB. Reconciliation must have folded T1's
// outstanding fast hold into the Allowed sets by decision time, so the
// request yields — avoidance engages on the very next acquisition after
// the epoch bump, not after T1's release.
func reconcileScenario(t *testing.T, shared bool, mutate func(e *env, sA, sB *stack.Interned)) {
	t.Helper()
	e := newEnv(Config{Mode: ModeFull})
	t1 := e.c.NewThread(1, "T1")
	t2 := e.c.NewThread(2, "T2")
	a, b := e.c.NewLock(), e.c.NewLock()
	sA := e.stk("lockA", "holder", "main")
	sB := e.stk("lockB", "requester", "main")

	if !e.c.FastEligible(sA) {
		t.Fatal("empty history: sA must be fast-eligible")
	}
	e.c.FastAcquiredImmediate(t1, a, sA, shared)
	e.c.NoteFastHold(t1, a, sA, shared)

	mutate(e, sA, sB) // epoch bump carrying {sA, sB}

	dec := e.c.Request(t2, b, sB)
	if dec.Go || dec.Sig == nil {
		t.Fatal("epoch bump must reconcile the outstanding fast hold: the very next dangerous acquisition has to yield against it")
	}

	// The hold must have moved from the fast-hold log into the guarded
	// Allowed sets, so its release routes through the guarded protocol.
	if takeFastHold(t1, a) {
		t.Fatal("adopted hold still sits in the fast-hold log")
	}
	e.c.Release(t1, a)
	if got := t1.LiveHolds(); got != 0 {
		t.Fatalf("LiveHolds after release = %d", got)
	}
}

// TestEpochBumpReconcilesOutstandingFastHolds covers every epoch source
// the runtime exercises: a local archive (Add), a fleet sync pull
// (Merge), and a predicted-signature push (ReplaceAll, the §8 hot-patch
// path), plus a shared (reader) hold through the merge path.
func TestEpochBumpReconcilesOutstandingFastHolds(t *testing.T) {
	remoteWith := func(sA, sB *stack.Interned, source string) *signature.History {
		remote := signature.NewHistory()
		sig := signature.New(signature.Deadlock, []stack.Stack{sA.S, sB.S}, 2)
		sig.Rev = 1
		sig.Source = source
		remote.Add(sig)
		return remote
	}
	t.Run("local-archive", func(t *testing.T) {
		reconcileScenario(t, false, func(e *env, sA, sB *stack.Interned) {
			e.addSig(2, sA, sB)
		})
	})
	t.Run("sync-pull-merge", func(t *testing.T) {
		reconcileScenario(t, false, func(e *env, sA, sB *stack.Interned) {
			e.hist.Merge(remoteWith(sA, sB, ""))
		})
	})
	t.Run("predicted-push-replaceall", func(t *testing.T) {
		reconcileScenario(t, false, func(e *env, sA, sB *stack.Interned) {
			e.hist.ReplaceAll(remoteWith(sA, sB, signature.SourcePredicted))
		})
	})
	t.Run("shared-hold", func(t *testing.T) {
		reconcileScenario(t, true, func(e *env, sA, sB *stack.Interned) {
			e.hist.Merge(remoteWith(sA, sB, ""))
		})
	})
}

// TestNoteFastHoldSelfAdoptsAfterEpochBump pins the classify->log race:
// a hold classified safe before an epoch bump but logged after it would
// miss the bump's adoption pass, so NoteFastHold re-classifies and adopts
// the hold itself.
func TestNoteFastHoldSelfAdoptsAfterEpochBump(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	t1 := e.c.NewThread(1, "T1")
	t2 := e.c.NewThread(2, "T2")
	a, b := e.c.NewLock(), e.c.NewLock()
	sA := e.stk("lockA", "holder", "main")
	sB := e.stk("lockB", "requester", "main")

	// The grant happened while sA was still safe...
	if !e.c.FastEligible(sA) {
		t.Fatal("empty history: sA must be fast-eligible")
	}
	e.c.FastAcquiredImmediate(t1, a, sA, false)
	// ...but the epoch moves before the hold reaches the log.
	e.addSig(2, sA, sB)
	e.c.NoteFastHold(t1, a, sA, false)

	if takeFastHold(t1, a) {
		t.Fatal("NoteFastHold must self-adopt a hold that is dangerous under the live index")
	}
	if dec := e.c.Request(t2, b, sB); dec.Go || dec.Sig == nil {
		t.Fatal("self-adopted hold invisible to matching")
	}
	e.c.Release(t1, a)
}
