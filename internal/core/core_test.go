//lint:file-ignore unlockcheck deliberate non-owner/double unlocks exercising the runtime error paths
package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix/internal/monitor"
	"dimmunix/internal/signature"
)

func testConfig() Config {
	return Config{
		Tau:      2 * time.Millisecond,
		MaxYield: 5 * time.Second,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// lockA and lockB are the two distinct first-lock call sites of the §4
// example program (the s1/s2 statements). Signatures captured through them
// are portable across every test that locks through them.
//
//go:noinline
func lockA(t *Thread, m *Mutex) error { return m.LockT(t) }

//go:noinline
func lockB(t *Thread, m *Mutex) error { return m.LockT(t) }

// forceDeadlock drives the §4 example with the paper's timing-loop
// methodology: each thread takes its first lock, holds it for hold, then
// crosses over. With an empty history this deadlocks deterministically;
// with the signature archived, Dimmunix yields one thread instead.
func forceDeadlock(rt *Runtime, a, b *Mutex, hold time.Duration) (error, error) {
	return forceDeadlockVia(rt, a, b, lockA, lockB, hold)
}

// forceDeadlockVia parametrizes the first-lock call sites, so signatures
// can be recorded through arbitrary acquisition paths (e.g. trylock).
func forceDeadlockVia(rt *Runtime, a, b *Mutex, first1, first2 func(*Thread, *Mutex) error, hold time.Duration) (error, error) {
	t1 := rt.RegisterThread("T1")
	t2 := rt.RegisterThread("T2")
	defer t1.Close()
	defer t2.Close()

	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e := first1(t1, a); e != nil {
			err1 = e
			return
		}
		time.Sleep(hold)
		//lint:ignore lockorder deliberate inversion: this harness exists to deadlock
		if e := b.LockT(t1); e != nil {
			_ = a.UnlockT(t1)
			err1 = e
			return
		}
		_ = b.UnlockT(t1)
		_ = a.UnlockT(t1)
	}()
	go func() {
		defer wg.Done()
		if e := first2(t2, b); e != nil {
			err2 = e
			return
		}
		time.Sleep(hold)
		if e := a.LockT(t2); e != nil {
			_ = b.UnlockT(t2)
			err2 = e
			return
		}
		_ = a.UnlockT(t2)
		_ = b.UnlockT(t2)
	}()
	wg.Wait()
	return err1, err2
}

const holdTime = 60 * time.Millisecond

func TestFirstRunDeadlockDetectedAndRecovered(t *testing.T) {
	var detected atomic.Int32
	var rt *Runtime
	cfg := testConfig()
	cfg.MatchDepth = 2
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) {
		detected.Add(1)
		rt.AbortThreads(info.ThreadIDs...)
	}
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	err1, err2 := forceDeadlock(rt, a, b, holdTime)

	if detected.Load() == 0 {
		t.Fatal("deadlock not detected")
	}
	recovered := 0
	for _, err := range []error{err1, err2} {
		if errors.Is(err, ErrDeadlockRecovered) {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatalf("no worker saw recovery: err1=%v err2=%v", err1, err2)
	}
	if rt.History().Len() != 1 {
		t.Fatalf("history has %d signatures, want 1", rt.History().Len())
	}
	sig := rt.History().Snapshot()[0]
	if sig.Kind != signature.Deadlock || sig.Size() != 2 {
		t.Errorf("signature = %v", sig)
	}
	if a.Holder() != 0 || b.Holder() != 0 {
		t.Errorf("locks leaked: a=%d b=%d", a.Holder(), b.Holder())
	}
}

func TestSecondRunAvoidsDeadlock(t *testing.T) {
	dir := t.TempDir()
	histPath := filepath.Join(dir, "hist.json")

	// Run 1: contract the deadlock, record the signature, "restart".
	{
		var rt *Runtime
		cfg := testConfig()
		cfg.MatchDepth = 2
		cfg.HistoryPath = histPath
		cfg.OnDeadlock = func(info monitor.DeadlockInfo) {
			rt.AbortThreads(info.ThreadIDs...)
		}
		rt = MustNew(cfg)
		a, b := rt.NewMutex(), rt.NewMutex()
		forceDeadlock(rt, a, b, holdTime)
		if err := rt.Stop(); err != nil {
			t.Fatal(err)
		}
	}

	// Run 2: same program shape; Dimmunix must avoid the pattern.
	cfg := testConfig()
	cfg.MatchDepth = 2
	cfg.HistoryPath = histPath
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) {
		t.Errorf("deadlock reoccurred despite immunity")
	}
	rt := MustNew(cfg)
	defer rt.Stop()
	if rt.History().Len() != 1 {
		t.Fatalf("history not loaded: %d sigs", rt.History().Len())
	}

	a, b := rt.NewMutex(), rt.NewMutex()
	err1, err2 := forceDeadlock(rt, a, b, holdTime)
	if err1 != nil || err2 != nil {
		t.Fatalf("immunized run failed: %v / %v", err1, err2)
	}
	if rt.Stats().Yields == 0 {
		t.Error("avoidance should have yielded at least once")
	}
}

func TestImmunityWithinSameRun(t *testing.T) {
	var rt *Runtime
	cfg := testConfig()
	cfg.MatchDepth = 2
	var deadlocks atomic.Int32
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) {
		deadlocks.Add(1)
		rt.AbortThreads(info.ThreadIDs...)
	}
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	forceDeadlock(rt, a, b, holdTime)
	if deadlocks.Load() != 1 {
		t.Fatalf("deadlocks = %d, want 1", deadlocks.Load())
	}
	for i := 0; i < 5; i++ {
		err1, err2 := forceDeadlock(rt, a, b, 5*time.Millisecond)
		if err1 != nil || err2 != nil {
			t.Fatalf("retry %d failed: %v / %v", i, err1, err2)
		}
	}
	if deadlocks.Load() != 1 {
		t.Errorf("deadlock reoccurred: %d", deadlocks.Load())
	}
}

// seedSignature contracts the lockA/lockB deadlock once (with recovery) so
// the history holds the {lockA, lockB} signature at the given depth.
func seedSignature(t *testing.T, rt *Runtime, a, b *Mutex) {
	t.Helper()
	seedSignatureVia(t, rt, a, b, lockA, lockB)
}

func seedSignatureVia(t *testing.T, rt *Runtime, a, b *Mutex, first1, first2 func(*Thread, *Mutex) error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		forceDeadlockVia(rt, a, b, first1, first2, holdTime)
	}()
	waitFor(t, "deadlock detection", func() bool { return rt.History().Len() >= 1 })
	// Abort all live threads so the workers unwind.
	rt.AbortThreads(rt.LiveThreadIDs()...)
	<-done
	waitFor(t, "locks released", func() bool { return a.Holder() == 0 && b.Holder() == 0 })
}

func TestInducedStarvationBrokenWeakImmunity(t *testing.T) {
	// Build a yield cycle: Tl yields at lockA (cause: Tk holds b via
	// lockB); Tk blocks on c held by Tl. Weak immunity must detect the
	// starvation, save its signature, and force Tl onward.
	cfg := testConfig()
	cfg.MatchDepth = 1 // portable across call sites in this test
	cfg.MaxYield = 30 * time.Second
	var starved atomic.Int32
	cfg.OnStarvation = func(info monitor.StarvationInfo) { starved.Add(1) }
	rt := MustNew(cfg)
	defer rt.Stop()

	a, b, c := rt.NewMutex(), rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()

	if err := c.LockT(tl); err != nil { // Tl holds c
		t.Fatal(err)
	}
	if err := lockB(tk, b); err != nil { // Tk holds b (signature binding)
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // Tk: block on c (held by Tl)
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // let Tl reach its yield first
		if err := c.LockT(tk); err == nil {
			_ = c.UnlockT(tk)
		}
		_ = b.UnlockT(tk)
	}()
	go func() { // Tl: request a via the signature path -> yield -> starve
		defer wg.Done()
		if err := lockA(tl, a); err != nil {
			t.Errorf("Tl lock a: %v", err)
		} else {
			_ = a.UnlockT(tl)
		}
		_ = c.UnlockT(tl)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("starvation was not broken")
	}
	if starved.Load() == 0 {
		t.Fatal("starvation not detected")
	}
	found := false
	for _, s := range rt.History().Snapshot() {
		if s.Kind == signature.Starvation {
			found = true
		}
	}
	if !found {
		t.Error("starvation signature not archived")
	}
	if rt.MonitorCounters().StarvationsBroken.Load() == 0 {
		t.Error("weak immunity must break the starvation")
	}
}

func TestStrongImmunityInvokesRestartHook(t *testing.T) {
	var rt *Runtime
	cfg := testConfig()
	cfg.MatchDepth = 1
	cfg.Immunity = StrongImmunity
	cfg.MaxYield = 30 * time.Second
	restart := make(chan monitor.StarvationInfo, 1)
	cfg.OnStarvation = func(info monitor.StarvationInfo) {
		select {
		case restart <- info:
		default:
		}
		// Emulate the restart by aborting everyone involved.
		rt.AbortThreads(info.ThreadIDs...)
	}
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b, c := rt.NewMutex(), rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()

	if err := c.LockT(tl); err != nil {
		t.Fatal(err)
	}
	if err := lockB(tk, b); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		if err := c.LockT(tk); err == nil {
			_ = c.UnlockT(tk)
		}
		_ = b.UnlockT(tk)
	}()
	go func() {
		defer wg.Done()
		if err := lockA(tl, a); err == nil {
			_ = a.UnlockT(tl)
		}
		_ = c.UnlockT(tl)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("strong-immunity run hung")
	}
	select {
	case <-restart:
	default:
		t.Fatal("restart hook not invoked")
	}
	if rt.MonitorCounters().StarvationsBroken.Load() != 0 {
		t.Error("strong immunity must not break cycles itself")
	}
}

func TestMaxYieldBoundReleasesThread(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 1
	cfg.MaxYield = 10 * time.Millisecond
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()

	if err := lockB(tk, b); err != nil {
		t.Fatal(err)
	}
	// Tl requests a: matches the signature, yields, then the max-yield
	// bound releases it even though Tk never unlocks b.
	start := time.Now()
	if err := lockA(tl, a); err != nil {
		t.Fatalf("lock a: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("max-yield bound did not release the thread promptly")
	}
	_ = a.UnlockT(tl)
	_ = b.UnlockT(tk)
	if rt.Stats().Aborts == 0 {
		t.Error("abort not counted")
	}
}

func TestAbortThresholdDisablesSignature(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 1
	cfg.MaxYield = 5 * time.Millisecond
	cfg.AbortDisableThreshold = 2
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)
	sig := rt.History().Snapshot()[0]

	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()

	if err := lockB(tk, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lockA(tl, a); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		_ = a.UnlockT(tl)
	}
	if !sig.Disabled {
		t.Error("signature should auto-disable after repeated aborts (§5.7)")
	}
	_ = b.UnlockT(tk)
}

func TestTryLockRefusedByAvoidance(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 1
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	// The signature is recorded from a deadlock whose first acquisition
	// of a went through the trylock call site (trylock on a free lock
	// succeeds and produces a hold edge like any other acquisition).
	seedSignatureVia(t, rt, a, b, tryAcquireA, lockB)

	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()
	if err := lockB(tk, b); err != nil {
		t.Fatal(err)
	}
	// a is free, but taking it through the signature path would
	// instantiate the pattern: TryLock must refuse rather than wait.
	ok, err := tryLockA(tl, a)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("trylock must refuse a move matching a deadlock signature")
	}
	_ = b.UnlockT(tk)
}

//go:noinline
func tryLockA(t *Thread, m *Mutex) (bool, error) { return m.TryLockT(t) }

// tryAcquireA adapts tryLockA for the deadlock driver; the innermost
// frame is tryLockA's TryLockT call site either way.
func tryAcquireA(t *Thread, m *Mutex) error {
	ok, err := tryLockA(t, m)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("busy")
	}
	return nil
}

func TestRecursiveMutex(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("t")
	defer th.Close()
	m := rt.NewMutexKind(Recursive)
	for i := 0; i < 3; i++ {
		if err := m.LockT(th); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
	}
	if m.Holder() != th.ID() {
		t.Error("holder wrong")
	}
	for i := 0; i < 3; i++ {
		if err := m.UnlockT(th); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if m.Holder() != 0 {
		t.Error("must be free after balanced unlocks")
	}
	if rt.Stats().Reentries != 2 {
		t.Errorf("reentries = %d, want 2", rt.Stats().Reentries)
	}
}

func TestErrorCheckMutexSelfDeadlock(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("t")
	defer th.Close()
	m := rt.NewMutexKind(ErrorCheck)
	if err := m.LockT(th); err != nil {
		t.Fatal(err)
	}
	if err := m.LockT(th); !errors.Is(err, ErrSelfDeadlock) {
		t.Fatalf("relock: %v, want ErrSelfDeadlock", err)
	}
	if err := m.UnlockT(th); err != nil {
		t.Fatal(err)
	}
}

func TestUnlockNotOwner(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	t1 := rt.RegisterThread("t1")
	t2 := rt.RegisterThread("t2")
	defer t1.Close()
	defer t2.Close()
	m := rt.NewMutex()
	if err := m.UnlockT(t1); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("unlock free mutex: %v", err)
	}
	if err := m.LockT(t1); err != nil {
		t.Fatal(err)
	}
	if err := m.UnlockT(t2); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("unlock by non-owner: %v", err)
	}
	_ = m.UnlockT(t1)
}

func TestTryLock(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	t1 := rt.RegisterThread("t1")
	t2 := rt.RegisterThread("t2")
	defer t1.Close()
	defer t2.Close()
	m := rt.NewMutex()
	ok, err := m.TryLockT(t1)
	if !ok || err != nil {
		t.Fatalf("trylock free: %v %v", ok, err)
	}
	ok, err = m.TryLockT(t2)
	if ok || err != nil {
		t.Fatalf("trylock held: %v %v", ok, err)
	}
	_ = m.UnlockT(t1)
	if rt.Stats().Cancels == 0 {
		t.Error("failed trylock must emit cancel (§6)")
	}
}

func TestLockTimeout(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	t1 := rt.RegisterThread("t1")
	t2 := rt.RegisterThread("t2")
	defer t1.Close()
	defer t2.Close()
	m := rt.NewMutex()
	if err := m.LockT(t1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.LockTimeoutT(t2, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("returned before the deadline")
	}
	_ = m.UnlockT(t1)
	if err := m.LockTimeoutT(t2, 100*time.Millisecond); err != nil {
		t.Fatalf("timed lock of free mutex: %v", err)
	}
	_ = m.UnlockT(t2)
	if err := m.LockTimeoutT(t2, 0); !errors.Is(err, ErrTimeout) {
		t.Error("non-positive timeout must fail immediately")
	}
}

func TestImplicitGoroutineAPI(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	m := rt.NewMutex()
	if err := m.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
	if rt.CurrentThread() != rt.CurrentThread() {
		t.Error("CurrentThread not cached")
	}
	var other *Thread
	done := make(chan struct{})
	go func() { other = rt.CurrentThread(); close(done) }()
	<-done
	if other == rt.CurrentThread() {
		t.Error("distinct goroutines must get distinct threads")
	}
}

func TestModeOffIsRawMutex(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeOff
	rt := MustNew(cfg)
	defer rt.Stop()
	th := rt.RegisterThread("t")
	defer th.Close()
	m := rt.NewMutex()
	for i := 0; i < 100; i++ {
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		if err := m.UnlockT(th); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Stats().Requests != 0 {
		t.Error("ModeOff must not run the avoidance path")
	}
}

func TestReloadHistoryLivePatch(t *testing.T) {
	dir := t.TempDir()
	histPath := filepath.Join(dir, "hist.json")

	{
		var rt *Runtime
		cfg := testConfig()
		cfg.MatchDepth = 2
		cfg.HistoryPath = histPath
		cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
		rt = MustNew(cfg)
		a, b := rt.NewMutex(), rt.NewMutex()
		forceDeadlock(rt, a, b, holdTime)
		rt.Stop()
	}

	cfg := testConfig()
	cfg.HistoryPath = histPath
	rt := MustNew(cfg)
	defer rt.Stop()
	rt.History().ReplaceAll(signature.NewHistory())
	if rt.History().Len() != 0 {
		t.Fatal("precondition failed")
	}
	if err := rt.ReloadHistory(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rt.History().Len() != 1 {
		t.Fatalf("reload did not pick up signatures: %d", rt.History().Len())
	}
}

func TestConcurrentStressNoYieldWithEmptyHistory(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	locks := make([]*Mutex, 4)
	for i := range locks {
		locks[i] = rt.NewMutex()
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := rt.RegisterThread("w")
			defer th.Close()
			for i := 0; i < 200; i++ {
				l := locks[(g+i)%len(locks)]
				if err := l.LockT(th); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				_ = l.UnlockT(th)
			}
		}(g)
	}
	wg.Wait()
	if y := rt.Stats().Yields; y != 0 {
		t.Errorf("yields = %d with empty history", y)
	}
}

func TestStopIdempotentAndSaves(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.HistoryPath = filepath.Join(dir, "h.json")
	rt := MustNew(cfg)
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadCloseUnregisters(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	for i := 0; i < 10; i++ {
		th := rt.RegisterThread("t")
		m := rt.NewMutex()
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		_ = m.UnlockT(th)
		th.Close()
	}
	if rt.NumThreads() != 0 {
		t.Errorf("NumThreads = %d", rt.NumThreads())
	}
}
