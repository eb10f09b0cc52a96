// bench_test.go provides testing.B counterparts for every table and
// figure of the paper's evaluation. The wall-clock sweeps that regenerate
// the actual rows/series live in cmd/dimmunix-bench (internal/bench);
// these benchmarks measure the per-operation costs underlying them.
package dimmunix_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/gatelock"
	"dimmunix/internal/simapp"
	"dimmunix/internal/workload"
)

func newRT(b *testing.B, cfg dimmunix.Config) *dimmunix.Runtime {
	b.Helper()
	if cfg.Tau == 0 {
		cfg.Tau = 50 * time.Millisecond
	}
	var rt *dimmunix.Runtime
	if cfg.OnDeadlock == nil {
		cfg.OnDeadlock = func(info dimmunix.DeadlockInfo) {
			rt.AbortThreads(info.ThreadIDs...)
		}
	}
	rt = dimmunix.MustNew(cfg)
	b.Cleanup(func() { rt.Stop() })
	return rt
}

// withHistory populates rt with h synthesized two-stack signatures drawn
// from a short workload warmup.
func withHistory(b *testing.B, rt *dimmunix.Runtime, r *workload.Runner, h, depth int) {
	b.Helper()
	r.Warmup(100 * time.Millisecond)
	hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), h, 2, depth, 7)
	if err != nil {
		b.Fatal(err)
	}
	rt.History().Merge(hist)
}

// lockOpBench measures single-threaded lock+unlock through a runtime in
// the given configuration with h signatures in history.
func lockOpBench(b *testing.B, cfg dimmunix.Config, h int) {
	rt := newRT(b, cfg)
	r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
	if h > 0 && cfg.Mode != dimmunix.ModeOff {
		withHistory(b, rt, r, h, 4)
	}
	th := rt.RegisterThread("bench")
	defer th.Close()
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.LockT(th); err != nil {
			b.Fatal(err)
		}
		_ = m.UnlockT(th)
	}
}

// --- Table 1: immunized trial cost per bug -------------------------------

func BenchmarkTable1_MySQLImmunizedTrial(b *testing.B) {
	rt := newRT(b, dimmunix.Config{Tau: 2 * time.Millisecond})
	bug := simapp.Bugs()[0] // MySQL 37080
	app := bug.New(rt)      // dimmunix.Runtime is an alias of core.Runtime
	// Contract the pattern once.
	for i := 0; i < 6; i++ {
		errs := app.Exploit(30 * time.Millisecond)
		if rt.History().Len() >= 1 && simapp.Clean(errs) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := app.Exploit(time.Millisecond); !simapp.Clean(errs) {
			b.Fatal("immunized trial deadlocked")
		}
	}
}

// --- Table 2: immunized invitation cost ----------------------------------

func BenchmarkTable2_VectorImmunizedRun(b *testing.B) {
	rt := newRT(b, dimmunix.Config{Tau: 2 * time.Millisecond, MatchDepth: 2})
	inv := collectionsVectorRunner(rt)
	inv(30 * time.Millisecond) // first exposure: deadlock + archive
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv(0)
	}
}

// collectionsVectorRunner avoids importing the collections package's
// internals here: a local two-vector addAll exploit in the same shape.
func collectionsVectorRunner(rt *dimmunix.Runtime) func(hold time.Duration) {
	a, bm := rt.NewMutexKind(dimmunix.Recursive), rt.NewMutexKind(dimmunix.Recursive)
	addAll := func(t *dimmunix.Thread, first, second *dimmunix.CoreMutex, hold time.Duration) {
		if first.LockT(t) != nil {
			return
		}
		time.Sleep(hold)
		if second.LockT(t) == nil {
			_ = second.UnlockT(t)
		}
		_ = first.UnlockT(t)
	}
	return func(hold time.Duration) {
		done := make(chan struct{}, 2)
		go func() {
			t := rt.RegisterThread("v1")
			defer t.Close()
			addAll(t, a, bm, hold)
			done <- struct{}{}
		}()
		go func() {
			t := rt.RegisterThread("v2")
			defer t.Close()
			addAll(t, bm, a, hold)
			done <- struct{}{}
		}()
		<-done
		<-done
	}
}

// --- Fig 4: end-to-end request cost (server simulator) -------------------

func BenchmarkFig4_RequestBaseline(b *testing.B) { fig4Request(b, dimmunix.ModeOff, 0) }
func BenchmarkFig4_RequestDimmunix32(b *testing.B) {
	fig4Request(b, dimmunix.ModeFull, 32)
}
func BenchmarkFig4_RequestDimmunix128(b *testing.B) {
	fig4Request(b, dimmunix.ModeFull, 128)
}

func fig4Request(b *testing.B, mode dimmunix.Mode, h int) {
	rt := newRT(b, dimmunix.Config{Mode: mode})
	// A single-worker slice of the server loop: 6 ops per request over
	// striped locks.
	locks := make([]*dimmunix.CoreMutex, 16)
	for i := range locks {
		locks[i] = rt.NewMutex()
	}
	th := rt.RegisterThread("srv")
	defer th.Close()
	if h > 0 && mode != dimmunix.ModeOff {
		r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
		withHistory(b, rt, r, h, 4)
	}
	var x atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for op := 0; op < 6; op++ {
			m := locks[(i*7+op*3)%len(locks)]
			if m.LockT(th) == nil {
				x.Add(1)
				_ = m.UnlockT(th)
			}
		}
	}
}

// --- Fig 5: lock op cost, baseline vs Dimmunix ---------------------------

func BenchmarkFig5_LockOpBaseline(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeOff}, 0)
}

func BenchmarkFig5_LockOpDimmunix64Sigs(b *testing.B) {
	lockOpBench(b, dimmunix.Config{}, 64)
}

// --- Fig 6: lock op cost with in-critical-section work -------------------

func BenchmarkFig6_DinSweep(b *testing.B) {
	for _, din := range []time.Duration{0, time.Microsecond, 10 * time.Microsecond} {
		b.Run(fmt.Sprintf("din=%s", din), func(b *testing.B) {
			rt := newRT(b, dimmunix.Config{})
			r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
			withHistory(b, rt, r, 64, 4)
			th := rt.RegisterThread("bench")
			defer th.Close()
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.LockT(th)
				spinFor(din)
				_ = m.UnlockT(th)
			}
		})
	}
}

func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// --- Fig 7: lock op cost vs history size ---------------------------------

func BenchmarkFig7_HistorySize(b *testing.B) {
	for _, h := range []int{2, 64, 256} {
		b.Run(fmt.Sprintf("sigs=%d", h), func(b *testing.B) {
			lockOpBench(b, dimmunix.Config{}, h)
		})
	}
}

func BenchmarkFig7_MatchDepth(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			rt := newRT(b, dimmunix.Config{MatchDepth: d, StackDepth: 12})
			r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
			withHistory(b, rt, r, 64, d)
			th := rt.RegisterThread("bench")
			defer th.Close()
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.LockT(th)
				_ = m.UnlockT(th)
			}
		})
	}
}

// --- Fig 8: overhead breakdown -------------------------------------------

func BenchmarkFig8_Instrumentation(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeInstrument}, 0)
}

func BenchmarkFig8_DataStructures(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeDataStructs}, 0)
}

func BenchmarkFig8_FullAvoidance(b *testing.B) {
	lockOpBench(b, dimmunix.Config{}, 64)
}

// --- Fig 9: matching depth + gate locks ----------------------------------

func BenchmarkFig9_MatchDepth1(b *testing.B)  { fig9Depth(b, 1) }
func BenchmarkFig9_MatchDepth10(b *testing.B) { fig9Depth(b, 10) }

func fig9Depth(b *testing.B, depth int) {
	rt := newRT(b, dimmunix.Config{MatchDepth: depth, StackDepth: 12, ProbeDepth: 10, MaxYield: time.Millisecond})
	r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
	withHistory(b, rt, r, 64, depth)
	th := rt.RegisterThread("bench")
	defer th.Close()
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LockT(th)
		_ = m.UnlockT(th)
	}
}

func BenchmarkFig9_GateLockEnterExit(b *testing.B) {
	mgr := gatelock.NewManager()
	site := gatelock.Site{Func: "w.lockOp", File: "w.go", Line: 1}
	mgr.AddDeadlock([]gatelock.Site{site, {Func: "w.lockOp", File: "w.go", Line: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := mgr.Enter(site)
		mgr.Exit(tok)
	}
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationThreadIDExplicit(b *testing.B) {
	rt := newRT(b, dimmunix.Config{})
	th := rt.RegisterThread("bench")
	defer th.Close()
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LockT(th)
		_ = m.UnlockT(th)
	}
}

func BenchmarkAblationThreadIDImplicit(b *testing.B) {
	rt := newRT(b, dimmunix.Config{})
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Lock()
		_ = m.Unlock()
	}
}

func BenchmarkAblationCalibrationOn(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Calibrate: true}, 64)
}

// --- Drop-in surface ------------------------------------------------------
// The zero-value path = implicit thread identity + one facade indirection
// over the explicit LockT fast path measured above.

func initDefaultBench(b *testing.B) {
	b.Helper()
	_ = dimmunix.Shutdown()
	if err := dimmunix.Init(dimmunix.WithTau(50 * time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dimmunix.Shutdown() })
}

func BenchmarkDropInMutex(b *testing.B) {
	initDefaultBench(b)
	var mu dimmunix.Mutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock()
	}
}

func BenchmarkDropInRWMutexWrite(b *testing.B) {
	initDefaultBench(b)
	var rw dimmunix.RWMutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Lock()
		rw.Unlock()
	}
}

func BenchmarkDropInRWMutexRead(b *testing.B) {
	initDefaultBench(b)
	var rw dimmunix.RWMutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.RLock()
		rw.RUnlock()
	}
}

// --- Fast-path parallel contention suite ---------------------------------
//
// The two-tier refactor's target workload: many goroutines, each on its
// own (uncontended) mutex, so the only contention is the instrumentation
// path itself. The *Guarded variants disable the lock-free safe-stack
// bypass, measuring the pre-refactor global-guard protocol on identical
// hardware — the ns/op ratio at 8+ goroutines is the acceptance metric.
// "Populated" variants carry 32 non-matching signatures, proving the fast
// tier's classification holds up with a live danger index.

var parallelLadder = []int{1, 2, 8, 32, 128}

func benchLockParallel(b *testing.B, cfg dimmunix.Config, hsigs, g int) {
	rt := newRT(b, cfg)
	if hsigs > 0 && cfg.Mode != dimmunix.ModeOff {
		r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
		withHistory(b, rt, r, hsigs, 4)
	}
	ths := make([]*dimmunix.Thread, g)
	ms := make([]*dimmunix.CoreMutex, g)
	for i := range ths {
		ths[i] = rt.RegisterThread("bench")
		ms[i] = rt.NewMutex()
	}
	b.Cleanup(func() {
		for _, th := range ths {
			th.Close()
		}
	})
	per := b.N / g
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(th *dimmunix.Thread, m *dimmunix.CoreMutex) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := m.LockT(th); err != nil {
					b.Error(err)
					return
				}
				if err := m.UnlockT(th); err != nil {
					b.Error(err)
					return
				}
			}
		}(ths[i], ms[i])
	}
	wg.Wait()
	b.StopTimer()
	if !cfg.DisableFastPath && cfg.Mode == dimmunix.ModeFull && rt.Stats().FastGos == 0 {
		b.Fatal("fast-path benchmark never took the fast tier")
	}
	if cfg.DisableFastPath && rt.Stats().FastGos != 0 {
		b.Fatal("guarded baseline leaked onto the fast tier")
	}
}

func runParallelLadder(b *testing.B, cfg dimmunix.Config, hsigs int) {
	for _, g := range parallelLadder {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			benchLockParallel(b, cfg, hsigs, g)
		})
	}
}

// BenchmarkLockUncontendedParallel is the tentpole metric: empty history,
// lock-free fast tier on.
func BenchmarkLockUncontendedParallel(b *testing.B) {
	runParallelLadder(b, dimmunix.Config{Mode: dimmunix.ModeFull}, 0)
}

// BenchmarkLockUncontendedParallelGuarded is the pre-refactor path: every
// request runs the guarded §5.4 protocol.
func BenchmarkLockUncontendedParallelGuarded(b *testing.B) {
	runParallelLadder(b, dimmunix.Config{Mode: dimmunix.ModeFull, DisableFastPath: true}, 0)
}

// BenchmarkLockUncontendedParallelPopulated keeps 32 signatures in the
// history; the bench call sites match none of them, so the fast tier
// still applies (one marker check against the live danger index).
func BenchmarkLockUncontendedParallelPopulated(b *testing.B) {
	runParallelLadder(b, dimmunix.Config{Mode: dimmunix.ModeFull}, 32)
}

// BenchmarkLockUncontendedParallelGuardedPopulated: pre-refactor path
// with 32 signatures (index refresh + reverse-index lookups under the
// global guard).
func BenchmarkLockUncontendedParallelGuardedPopulated(b *testing.B) {
	runParallelLadder(b, dimmunix.Config{Mode: dimmunix.ModeFull, DisableFastPath: true}, 32)
}

// BenchmarkLockUncontendedParallelTraced: fast tier on with trace mode
// journaling every acquisition for the offline predictor. The recorder
// hangs off the monitor's drain loop, so the caller-visible cost must
// stay at fast-tier level; the acceptance cap is the guarded baseline —
// if tracing ever costs more than the pre-refactor protocol, it is not
// an always-on-capable canary mode.
func BenchmarkLockUncontendedParallelTraced(b *testing.B) {
	for _, g := range parallelLadder {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			benchLockParallel(b, dimmunix.Config{
				Mode:      dimmunix.ModeFull,
				TracePath: filepath.Join(b.TempDir(), "bench.trace"),
			}, 0, g)
		})
	}
}

// BenchmarkLockBareMutexParallel is the uninstrumented floor: the same
// goroutine/mutex ladder as BenchmarkLockUncontendedParallel over bare
// sync.Mutex. The gap between this and the fast tier is the total cost
// of immunity on the uncontended path (stack walk, classification,
// buffered bookkeeping).
func BenchmarkLockBareMutexParallel(b *testing.B) {
	for _, g := range parallelLadder {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			ms := make([]*sync.Mutex, g)
			for i := range ms {
				ms[i] = new(sync.Mutex)
			}
			per := b.N / g
			if per == 0 {
				per = 1
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(m *sync.Mutex) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						m.Lock()
						m.Unlock() //nolint:staticcheck // empty critical section is the point
					}
				}(ms[i])
			}
			wg.Wait()
		})
	}
}

// BenchmarkLockDataStructs measures the data-structs ablation, whose
// every acquisition updates the Allowed sets under the avoidance guard.
func BenchmarkLockDataStructs(b *testing.B) {
	benchLockParallel(b, dimmunix.Config{Mode: dimmunix.ModeDataStructs}, 0, 8)
}
