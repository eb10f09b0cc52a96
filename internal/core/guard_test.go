package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix/internal/histstore"
)

// lockC and lockD are the first-lock call sites of a second signature,
// distinct from lockA/lockB so the starvation scenario below binds only
// against its own threads.
//
//go:noinline
func lockC(t *Thread, m *Mutex) error { return m.LockT(t) }

//go:noinline
func lockD(t *Thread, m *Mutex) error { return m.LockT(t) }

// exclusive is a critical-section probe: plain fields, touched only while
// the owning dimmunix mutex is held, so a mutual-exclusion failure shows
// as a data race under -race and as a wrong occupancy otherwise.
type exclusive struct {
	inside int
	total  int
}

func (x *exclusive) enter(t *testing.T) {
	x.inside++
	if x.inside != 1 {
		t.Errorf("mutual exclusion violated: %d holders", x.inside)
	}
	x.total++
	x.inside--
}

// TestGuardDomainsConcurrent runs every user of the avoidance guard at
// once: guarded lock traffic that yields (fast path off, matching
// history), monitor passes that break an induced starvation with ForceGo
// and conclude FP episodes, SyncNow rounds against a directory store,
// and HistorySummary reads. Every call must return, every critical
// section must stay exclusive, and no deadlock may occur.
func TestGuardDomainsConcurrent(t *testing.T) {
	store, err := histstore.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.HistoryStore = store
	cfg.SyncInterval = -1 // SyncNow below is the only sync domain
	cfg.DisableFastPath = true
	cfg.MatchDepth = 1 // portable across the call sites below
	cfg.MaxYield = 30 * time.Second
	cfg.RecoverAborts = true // a deadlock fails the test instead of hanging it
	rt := MustNew(cfg)
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	a2, b2, c2 := rt.NewMutex(), rt.NewMutex(), rt.NewMutex()
	forceDeadlock(rt, a, b, holdTime)
	forceDeadlockVia(rt, a2, b2, lockC, lockD, holdTime)
	if n := rt.History().Len(); n != 2 {
		t.Fatalf("seeded %d signatures, want 2", n)
	}
	before := rt.Stats()

	var xa, xb, xa2, xc2 exclusive
	var traffic, side sync.WaitGroup
	stop := make(chan struct{})

	// Guarded traffic on the §4 pattern: each request for a first lock
	// while the peer holds the other one matches {lockA, lockB} and yields.
	for p := 0; p < 2; p++ {
		traffic.Add(2)
		go func() {
			defer traffic.Done()
			th := rt.RegisterThread("T1")
			defer th.Close()
			for i := 0; i < 40; i++ {
				if err := lockA(th, a); err != nil {
					t.Errorf("T1 lock a: %v", err)
					return
				}
				xa.enter(t)
				time.Sleep(100 * time.Microsecond)
				if err := b.LockT(th); err != nil {
					t.Errorf("T1 lock b: %v", err)
					_ = a.UnlockT(th)
					return
				}
				xb.enter(t)
				_ = b.UnlockT(th)
				_ = a.UnlockT(th)
			}
		}()
		go func() {
			defer traffic.Done()
			th := rt.RegisterThread("T2")
			defer th.Close()
			for i := 0; i < 40; i++ {
				if err := lockB(th, b); err != nil {
					t.Errorf("T2 lock b: %v", err)
					return
				}
				xb.enter(t)
				time.Sleep(100 * time.Microsecond)
				if err := a.LockT(th); err != nil {
					t.Errorf("T2 lock a: %v", err)
					_ = b.UnlockT(th)
					return
				}
				xa.enter(t)
				_ = a.UnlockT(th)
				_ = b.UnlockT(th)
			}
		}()
	}

	// Induced starvation: Tl holds c2 and yields at a2 (Tk holds b2 via
	// lockD); Tk then blocks on c2. The monitor must ForceGo Tl.
	tk := rt.RegisterThread("Tk")
	tl := rt.RegisterThread("Tl")
	defer tk.Close()
	defer tl.Close()
	if err := c2.LockT(tl); err != nil {
		t.Fatal(err)
	}
	if err := lockD(tk, b2); err != nil {
		t.Fatal(err)
	}
	traffic.Add(2)
	go func() {
		defer traffic.Done()
		time.Sleep(20 * time.Millisecond) // let Tl reach its yield first
		if err := c2.LockT(tk); err == nil {
			xc2.enter(t)
			_ = c2.UnlockT(tk)
		}
		_ = b2.UnlockT(tk)
	}()
	go func() {
		defer traffic.Done()
		if err := lockC(tl, a2); err != nil {
			t.Errorf("Tl lock a2: %v", err)
		} else {
			xa2.enter(t)
			_ = a2.UnlockT(tl)
		}
		_ = c2.UnlockT(tl)
	}()

	var syncs, summaries atomic.Int64
	side.Add(2)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := rt.SyncNow(ctx)
			cancel()
			if err != nil {
				t.Errorf("SyncNow: %v", err)
				return
			}
			syncs.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(rt.HistorySummary().Signatures); n < 2 {
				t.Errorf("HistorySummary lists %d signatures, want >= 2", n)
				return
			}
			summaries.Add(1)
		}
	}()

	done := make(chan struct{})
	go func() {
		traffic.Wait()
		close(stop)
		side.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a guard domain did not return")
	}

	after := rt.Stats()
	if d := after.DeadlocksDetected - before.DeadlocksDetected; d != 0 {
		t.Errorf("%d deadlocks detected under avoidance", d)
	}
	if after.StarvationsBroken == before.StarvationsBroken {
		t.Error("the monitor did not break the induced starvation")
	}
	if after.Yields == before.Yields {
		t.Error("no request yielded")
	}
	if after.FastGos != before.FastGos {
		t.Errorf("fast tier used with the fast path disabled: %d", after.FastGos-before.FastGos)
	}
	if syncs.Load() == 0 || summaries.Load() == 0 {
		t.Errorf("side domains idle: syncs=%d summaries=%d", syncs.Load(), summaries.Load())
	}
	if xa.total == 0 || xb.total == 0 || xa2.total != 1 || xc2.total != 1 {
		t.Errorf("critical sections: a=%d b=%d a2=%d c2=%d", xa.total, xb.total, xa2.total, xc2.total)
	}
}
