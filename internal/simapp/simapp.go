// Package simapp reproduces the locking skeletons of the real deadlock
// bugs evaluated in Table 1 of the Dimmunix paper (§7.1.1). The original
// systems (MySQL, SQLite, HawkNL, MySQL JDBC, Limewire/HsqlDB, ActiveMQ)
// are not reproducible inside this repository, so each bug is distilled to
// the thread/lock structure that made it deadlock — the same thread count,
// the same lock-order inversion, the same nesting depth — driven by the
// paper's own methodology of timing loops that turn the race into a
// deterministic "exploit".
package simapp

import (
	"time"

	"dimmunix/internal/core"
)

// Bug describes one Table 1 row.
type Bug struct {
	// System and BugID match the paper's row ("MySQL 6.0.4", "37080").
	System string
	BugID  string
	// Desc is the paper's "Deadlock Between ..." column.
	Desc string
	// Patterns is the number of distinct deadlock patterns the bug can
	// generate (the paper's "# " column); ReproduciblePatterns is how
	// many the exploit reproduces (ActiveMQ 575 reproduces 1 of 3, like
	// the authors).
	Patterns             int
	ReproduciblePatterns int
	// Depth is the paper's reported pattern depth(s).
	Depth []int
	// ExpectedYields is the paper's yields-per-trial (min, avg, max)
	// for the immunized run; large loop-driven numbers are scaled by
	// the exploit's LoopN.
	ExpectedYields [3]int
	// New builds a fresh instance of the buggy "application" on rt.
	New func(rt *core.Runtime) Instance
}

// Instance is one runnable copy of a buggy application.
type Instance interface {
	// Exploit runs the deterministic test case once. hold is the timing
	// window between first and second acquisitions. The returned errors
	// are the workers' outcomes: ErrDeadlockRecovered means the trial
	// deadlocked and was recovered; all-nil means it ran to completion.
	Exploit(hold time.Duration) []error
}

// cross runs the given lock paths concurrently and collects their errors.
func cross(rt *core.Runtime, paths ...func(*core.Thread) error) []error {
	errs := make([]error, len(paths))
	done := make(chan int, len(paths))
	for i, p := range paths {
		go func(i int, p func(*core.Thread) error) {
			th := rt.RegisterThread("w")
			defer th.Close()
			errs[i] = p(th)
			done <- i
		}(i, p)
	}
	for range paths {
		<-done
	}
	return errs
}

// pause waits for d: short windows busy-spin (sub-millisecond sleeps are
// too coarse to model in-critical-section work), long ones sleep.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if d < time.Millisecond {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return
	}
	time.Sleep(d)
}

// nest acquires outer, waits hold, then acquires inner; both are released
// before returning. Errors unwind held locks, which is how recovery
// emulates the paper's restart.
func nest(t *core.Thread, outer, inner *core.Mutex, hold time.Duration, critical func()) error {
	if err := outer.LockT(t); err != nil {
		return err
	}
	pause(hold)
	//lint:ignore lockorder deliberate inversion: every simapp bug lab nests through here
	if err := inner.LockT(t); err != nil {
		_ = outer.UnlockT(t)
		return err
	}
	if critical != nil {
		critical()
	}
	_ = inner.UnlockT(t)
	_ = outer.UnlockT(t)
	return nil
}

// Deadlocked reports whether any worker error indicates a recovered
// deadlock.
func Deadlocked(errs []error) bool {
	for _, err := range errs {
		if err == core.ErrDeadlockRecovered {
			return true
		}
	}
	return false
}

// Clean reports whether every worker completed.
func Clean(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	return true
}
