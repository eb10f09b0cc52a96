package monitor

import (
	"testing"
	"time"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/event"
	"dimmunix/internal/queue"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

type fixture struct {
	m        *Monitor
	q        *queue.MPSC[event.Event]
	hist     *signature.History
	cache    *avoidance.Cache
	interner *stack.Interner
	threads  map[int32]*avoidance.ThreadState
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	f := &fixture{
		q:        queue.New[event.Event](),
		hist:     signature.NewHistory(),
		interner: stack.NewInterner(),
		threads:  make(map[int32]*avoidance.ThreadState),
	}
	f.cache = avoidance.NewCache(avoidance.Config{}, f.interner, f.hist, &avoidance.Stats{}, func(event.Event) {})
	f.m = New(cfg, f.q, f.hist, f.cache, func(id int32) *avoidance.ThreadState {
		return f.threads[id]
	})
	return f
}

func (f *fixture) thread(id int32) *avoidance.ThreadState {
	ts := f.threads[id]
	if ts == nil {
		ts = f.cache.NewThread(id, "t")
		f.threads[id] = ts
	}
	return ts
}

func (f *fixture) st(seed uint64) *stack.Interned {
	return f.interner.Intern(stack.Synthetic(seed, 4))
}

func (f *fixture) push(evs ...event.Event) {
	for _, ev := range evs {
		f.q.Push(ev)
	}
}

func deadlockEvents(f *fixture) []event.Event {
	return []event.Event{
		{Kind: event.Acquired, TID: 1, LID: 1, Stack: f.st(1)},
		{Kind: event.Acquired, TID: 2, LID: 2, Stack: f.st(2)},
		{Kind: event.Request, TID: 1, LID: 2, Stack: f.st(3)},
		{Kind: event.Go, TID: 1, LID: 2, Stack: f.st(3)},
		{Kind: event.Request, TID: 2, LID: 1, Stack: f.st(4)},
		{Kind: event.Go, TID: 2, LID: 1, Stack: f.st(4)},
	}
}

func TestDeadlockDetectionArchivesSignature(t *testing.T) {
	var got []DeadlockInfo
	f := newFixture(t, Config{
		OnDeadlock: func(info DeadlockInfo) { got = append(got, info) },
	})
	f.thread(1)
	f.thread(2)
	f.push(deadlockEvents(f)...)
	f.m.Pass()

	if len(got) != 1 {
		t.Fatalf("deadlock hooks = %d, want 1", len(got))
	}
	if !got[0].New {
		t.Error("first occurrence must be flagged new")
	}
	if f.hist.Len() != 1 {
		t.Fatalf("history len = %d", f.hist.Len())
	}
	sig := f.hist.Snapshot()[0]
	if sig.Kind != signature.Deadlock || sig.Size() != 2 {
		t.Errorf("sig = %v", sig)
	}
	if f.m.Counters.DeadlocksDetected.Load() != 1 {
		t.Error("counter not bumped")
	}
}

func TestDuplicateCycleSuppressed(t *testing.T) {
	calls := 0
	f := newFixture(t, Config{
		SuppressTicks: 100,
		OnDeadlock:    func(DeadlockInfo) { calls++ },
	})
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	// Re-inject the same cycle (as if the same threads re-blocked).
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	if calls != 1 {
		t.Fatalf("hook calls = %d, want 1 (suppressed)", calls)
	}
}

func TestSuppressionExpires(t *testing.T) {
	calls := 0
	f := newFixture(t, Config{
		SuppressTicks: 2,
		OnDeadlock:    func(DeadlockInfo) { calls++ },
	})
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	f.m.Pass()
	f.m.Pass() // suppression expired
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	if calls != 2 {
		t.Fatalf("hook calls = %d, want 2", calls)
	}
}

func TestCalibrationArmedOnNewSignatures(t *testing.T) {
	f := newFixture(t, Config{Calibrate: true, CalibMaxDepth: 6})
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	sig := f.hist.Snapshot()[0]
	if !sig.Calib.Active() || sig.Calib.MaxDepth != 6 {
		t.Errorf("calibration not armed: %+v", sig.Calib)
	}
}

func starvationEvents(f *fixture) []event.Event {
	// T1 yields (cause: T2 holds L5); T2 allowed on L7 held by T1.
	return []event.Event{
		{Kind: event.Acquired, TID: 1, LID: 7, Stack: f.st(70)},
		{Kind: event.Acquired, TID: 2, LID: 5, Stack: f.st(50)},
		{Kind: event.Request, TID: 2, LID: 7, Stack: f.st(51)},
		{Kind: event.Go, TID: 2, LID: 7, Stack: f.st(51)},
		{Kind: event.Yield, TID: 1, LID: 3, Stack: f.st(71), SigID: "x",
			Causes: []event.Cause{{TID: 2, LID: 5, Stack: f.st(50)}}},
	}
}

func TestStarvationBrokenWeak(t *testing.T) {
	var infos []StarvationInfo
	f := newFixture(t, Config{
		OnStarvation: func(info StarvationInfo) { infos = append(infos, info) },
	})
	t1 := f.thread(1)
	f.thread(2)
	f.push(starvationEvents(f)...)
	f.m.Pass()

	if len(infos) != 1 {
		t.Fatalf("starvation hooks = %d", len(infos))
	}
	if infos[0].VictimTID != 1 {
		t.Errorf("victim = %d, want the yielding thread 1", infos[0].VictimTID)
	}
	if f.m.Counters.StarvationsBroken.Load() != 1 {
		t.Error("break not counted")
	}
	// The victim must have been woken.
	select {
	case <-t1.Wake:
	default:
		t.Error("victim not woken")
	}
	// A starvation signature must be archived.
	found := false
	for _, s := range f.hist.Snapshot() {
		if s.Kind == signature.Starvation {
			found = true
		}
	}
	if !found {
		t.Error("starvation signature missing")
	}
}

func TestStarvationStrongModeDoesNotBreak(t *testing.T) {
	restarts := 0
	f := newFixture(t, Config{
		Strong:       true,
		OnStarvation: func(StarvationInfo) { restarts++ },
	})
	f.thread(1)
	f.thread(2)
	f.push(starvationEvents(f)...)
	f.m.Pass()
	if restarts != 1 {
		t.Fatalf("restart hook calls = %d", restarts)
	}
	if f.m.Counters.StarvationsBroken.Load() != 0 {
		t.Error("strong mode must not break the cycle")
	}
}

// mutualStarvationEvents builds a cycle where BOTH T1 and T4 are yielding
// (T1 on cause T2, T4 on cause T3), T2 waits on a lock held by T4 and T3
// waits on a lock held by T1 — so either yielder is a valid break victim.
func mutualStarvationEvents(f *fixture) []event.Event {
	return []event.Event{
		{Kind: event.Acquired, TID: 1, LID: 11, Stack: f.st(11)}, // T1 holds L11
		{Kind: event.Acquired, TID: 4, LID: 44, Stack: f.st(44)}, // T4 holds L44
		{Kind: event.Acquired, TID: 2, LID: 22, Stack: f.st(22)}, // T2 holds L22 (T1's cause)
		{Kind: event.Acquired, TID: 3, LID: 33, Stack: f.st(33)}, // T3 holds L33 (T4's cause)
		// T2 blocks on T4's lock, T3 blocks on T1's lock.
		{Kind: event.Request, TID: 2, LID: 44, Stack: f.st(24)},
		{Kind: event.Go, TID: 2, LID: 44, Stack: f.st(24)},
		{Kind: event.Request, TID: 3, LID: 11, Stack: f.st(31)},
		{Kind: event.Go, TID: 3, LID: 11, Stack: f.st(31)},
		// T1 and T4 yield on their causes.
		{Kind: event.Yield, TID: 1, LID: 99, Stack: f.st(19), SigID: "s",
			Causes: []event.Cause{{TID: 2, LID: 22, Stack: f.st(22)}}},
		{Kind: event.Yield, TID: 4, LID: 98, Stack: f.st(49), SigID: "s",
			Causes: []event.Cause{{TID: 3, LID: 33, Stack: f.st(33)}}},
	}
}

func TestStarvationVictimPrefersHighPriority(t *testing.T) {
	var infos []StarvationInfo
	f := newFixture(t, Config{
		OnStarvation: func(info StarvationInfo) { infos = append(infos, info) },
	})
	f.thread(1)
	f.thread(2)
	f.thread(3)
	t4 := f.thread(4)
	t4.Priority.Store(5) // §8 extension: high-priority thread freed first
	f.push(mutualStarvationEvents(f)...)
	f.m.Pass()
	if len(infos) != 1 {
		t.Fatalf("starvations = %d", len(infos))
	}
	if infos[0].VictimTID != 4 {
		t.Fatalf("victim = %d, want high-priority thread 4", infos[0].VictimTID)
	}
}

func TestStarvationVictimTieBreaksOnHolds(t *testing.T) {
	var infos []StarvationInfo
	f := newFixture(t, Config{
		OnStarvation: func(info StarvationInfo) { infos = append(infos, info) },
	})
	for i := int32(1); i <= 4; i++ {
		f.thread(i)
	}
	evs := mutualStarvationEvents(f)
	// Give T1 an extra held lock: equal priorities, T1 holds more.
	evs = append([]event.Event{{Kind: event.Acquired, TID: 1, LID: 77, Stack: f.st(77)}}, evs...)
	f.push(evs...)
	f.m.Pass()
	if len(infos) != 1 {
		t.Fatalf("starvations = %d", len(infos))
	}
	if infos[0].VictimTID != 1 {
		t.Fatalf("victim = %d, want most-holding thread 1 (§3)", infos[0].VictimTID)
	}
}

func TestEpisodeLifecycleTruePositive(t *testing.T) {
	f := newFixture(t, Config{EpisodeOpLimit: 8})
	// Seed a signature so RecordOutcome has a target.
	sig := signature.New(signature.Deadlock, []stack.Stack{f.st(1).S, f.st(2).S}, 4)
	f.hist.Add(sig)

	f.push(event.Event{
		Kind: event.Yield, TID: 1, LID: 9, Stack: f.st(1), SigID: sig.ID, Depth: 4,
		Causes: []event.Cause{{TID: 2, LID: 5, Stack: f.st(2), SigIdx: 1}},
	})
	f.m.Pass()
	if f.m.PendingEpisodes() != 1 {
		t.Fatalf("episodes = %d", f.m.PendingEpisodes())
	}
	// Feed an inversion by the watched threads: 1 takes A then B; 2
	// takes B then A.
	f.push(
		event.Event{Kind: event.Acquired, TID: 1, LID: 100},
		event.Event{Kind: event.Acquired, TID: 1, LID: 200},
		event.Event{Kind: event.Release, TID: 1, LID: 200},
		event.Event{Kind: event.Release, TID: 1, LID: 100},
		event.Event{Kind: event.Acquired, TID: 2, LID: 200},
		event.Event{Kind: event.Acquired, TID: 2, LID: 100},
		event.Event{Kind: event.Release, TID: 2, LID: 100},
		event.Event{Kind: event.Release, TID: 2, LID: 200},
	)
	f.m.Pass()
	if f.m.PendingEpisodes() != 0 {
		t.Fatalf("episode not concluded")
	}
	if f.m.Counters.TruePositives.Load() != 1 {
		t.Errorf("TP = %d FP = %d", f.m.Counters.TruePositives.Load(), f.m.Counters.FalsePositives.Load())
	}
	if sig.TPCount != 1 {
		t.Errorf("sig TPCount = %d", sig.TPCount)
	}
}

func TestEpisodeAgesOutAsFalsePositive(t *testing.T) {
	f := newFixture(t, Config{EpisodeMaxTicks: 2})
	sig := signature.New(signature.Deadlock, []stack.Stack{f.st(1).S, f.st(2).S}, 4)
	f.hist.Add(sig)
	f.push(event.Event{
		Kind: event.Yield, TID: 1, LID: 9, Stack: f.st(1), SigID: sig.ID, Depth: 4,
		Causes: []event.Cause{{TID: 2, LID: 5, Stack: f.st(2), SigIdx: 1}},
	})
	f.m.Pass()
	f.m.Pass()
	f.m.Pass()
	if f.m.PendingEpisodes() != 0 {
		t.Fatal("episode should have aged out")
	}
	if f.m.Counters.FalsePositives.Load() != 1 {
		t.Errorf("FP = %d (no inversion observed => false positive)", f.m.Counters.FalsePositives.Load())
	}
	if sig.FPCount != 1 {
		t.Errorf("sig FPCount = %d", sig.FPCount)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	f := newFixture(t, Config{Tau: time.Millisecond})
	f.m.Start()
	f.m.Start() // idempotent
	f.push(deadlockEvents(f)...)
	f.m.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for f.hist.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	f.m.Stop()
	f.m.Stop() // idempotent
	if f.hist.Len() != 1 {
		t.Fatalf("history len = %d", f.hist.Len())
	}
}

func TestFinalPassOnStop(t *testing.T) {
	f := newFixture(t, Config{Tau: time.Hour}) // loop would never tick
	f.m.Start()
	f.push(deadlockEvents(f)...)
	f.m.Stop() // must drain before exiting
	if f.hist.Len() != 1 {
		t.Fatalf("final pass did not run: history len = %d", f.hist.Len())
	}
}

func TestCountersAccumulate(t *testing.T) {
	f := newFixture(t, Config{})
	f.push(deadlockEvents(f)...)
	f.m.Pass()
	if f.m.Counters.Passes.Load() != 1 {
		t.Error("passes")
	}
	if f.m.Counters.EventsProcessed.Load() != 6 {
		t.Errorf("events = %d", f.m.Counters.EventsProcessed.Load())
	}
	if f.m.Counters.SignaturesSaved.Load() != 1 {
		t.Error("signatures saved")
	}
}
