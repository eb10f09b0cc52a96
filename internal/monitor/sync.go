package monitor

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"dimmunix/internal/histstore"
	"dimmunix/internal/obs"
	"dimmunix/internal/signature"
	"dimmunix/internal/sigport"
)

// ErrNoStore reports a sync request on a monitor with no history store.
var ErrNoStore = errors.New("dimmunix: no history store configured")

// DefaultSyncRoundTimeout bounds one sync round's store I/O (probe +
// pull + push). A round that cannot finish within it is abandoned and
// retried later with backoff; immunity keeps working from the local
// history either way.
const DefaultSyncRoundTimeout = 10 * time.Second

// DefaultSyncMaxBackoff caps the inter-round delay the failure backoff
// can grow to, so a recovered store is rediscovered within a minute even
// after a long outage.
const DefaultSyncMaxBackoff = time.Minute

// syncer is the monitor's cross-process distribution loop (§8): it
// probes the store's version, and on a change pulls the remote snapshot,
// ports it when it came from a different build, and joins it into the
// live history — which republishes the danger index under a fresh epoch,
// so the PR 2 fast path's cached safe-markers self-invalidate and remote
// signatures take effect on the very next lock request. Local changes
// (newly archived signatures, removals, disabled-flips) are pushed back
// the same round: pull → merge → push.
//
// Outage discipline: store I/O never runs under syncMu (the guard only
// covers the lastSeen/lastPushed bookkeeping), every round carries a
// deadline, and consecutive failed rounds back the loop off
// exponentially — a dead daemon costs a bounded, shrinking amount of
// attention instead of a blocking resource.
type syncer struct {
	store       histstore.Store
	rules       []sigport.Rule
	fingerprint string

	// lastSeen / lastPushed are guarded by Monitor.syncMu; rounds
	// snapshot them, run their I/O lock-free, and write back on success.
	lastSeen   histstore.Version
	lastPushed uint64 // local history version at the last successful push

	// consecFails counts sync rounds that failed since the last success;
	// the loop's backoff schedule derives from it.
	consecFails atomic.Int32

	// roundCtx parents the loop's round contexts; cancelRounds aborts
	// in-flight store I/O at Stop so shutdown never waits out a store
	// timeout it did not start.
	roundCtx     context.Context
	cancelRounds context.CancelFunc

	kickCh chan struct{}
	stopCh chan struct{}
	doneCh chan struct{}
}

func newSyncer(store histstore.Store, rules []sigport.Rule, fingerprint string) *syncer {
	ctx, cancel := context.WithCancel(context.Background())
	return &syncer{
		store:        store,
		rules:        rules,
		fingerprint:  fingerprint,
		roundCtx:     ctx,
		cancelRounds: cancel,
		kickCh:       make(chan struct{}, 1),
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
	}
}

// SyncNow performs one pull→merge→push round against the history store
// under the caller's context: cancel it (or let its deadline pass) and
// the round's store I/O aborts with the context's error. Safe to call
// from any goroutine, including concurrently with the sync loop — rounds
// are joins, so overlapping rounds converge instead of conflicting.
func (m *Monitor) SyncNow(ctx context.Context) error {
	if m.sync == nil {
		return ErrNoStore
	}
	return m.syncOnce(ctx)
}

// KickSync requests an asynchronous sync round from the sync loop (e.g.
// right after archiving a new signature, so the fleet learns about it
// without waiting a full interval). No-op when the loop is not running.
func (m *Monitor) KickSync() {
	if m.sync == nil || !m.syncRunning.Load() {
		return
	}
	select {
	case m.sync.kickCh <- struct{}{}:
	default:
	}
}

// SyncBackoff returns the delay before the next sync round after fails
// consecutive failed rounds: the interval doubled per failure, capped at
// DefaultSyncMaxBackoff (but never below the interval itself), with
// ±25% jitter so a fleet whose daemon died does not stampede it in
// lockstep when it returns. fails <= 0 returns the interval unchanged.
func SyncBackoff(interval time.Duration, fails int) time.Duration {
	if fails <= 0 || interval <= 0 {
		return interval
	}
	if fails > 16 {
		fails = 16 // 2^16 ≫ any cap; avoid shift overflow
	}
	backoff := interval << uint(fails)
	ceiling := DefaultSyncMaxBackoff
	if ceiling < interval {
		ceiling = interval
	}
	if backoff <= 0 || backoff > ceiling {
		backoff = ceiling
	}
	jitter := 0.75 + 0.5*rand.Float64()
	delay := time.Duration(float64(backoff) * jitter)
	if delay > ceiling {
		// The cap is a hard promise ("rediscovered within a minute"):
		// jitter spreads delays below it, never past it.
		delay = ceiling
	}
	return delay
}

// syncOnce is one sync round with a per-round deadline. Errors are
// counted and returned but never fatal: the store may be briefly
// unreachable (daemon restart, NFS blip) and immunity must keep working
// from the local history.
//
// The round never holds syncMu across store I/O: it snapshots the
// bookkeeping under the guard, runs probe/pull/push against the store
// lock-free, and re-merges results under the guard only on success —
// so a store outage can never transitively block anything waiting on
// syncMu (most importantly the shutdown path).
func (m *Monitor) syncOnce(ctx context.Context) error {
	s := m.sync
	start := time.Now()
	if t := m.cfg.SyncRoundTimeout; t > 0 {
		// The round deadline is a default, not a cap: a caller that set
		// its own deadline (SyncNow with a deliberate budget) is
		// respected verbatim.
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}

	m.syncMu.Lock()
	lastSeen := s.lastSeen
	lastPushed := s.lastPushed
	m.syncMu.Unlock()

	var firstErr error
	fail := func(err error) {
		m.Counters.SyncErrors.Add(1)
		if firstErr == nil {
			firstErr = err
		}
	}
	pulled := 0
	pushed := false

	v, err := s.store.Probe(ctx)
	if err != nil {
		fail(err)
	} else if v == "" || v != lastSeen {
		remote, rv, err := s.store.Load(ctx)
		if err != nil {
			fail(err)
		} else {
			if len(s.rules) > 0 && s.fingerprint != "" &&
				remote.Fingerprint() != "" && remote.Fingerprint() != s.fingerprint {
				// The snapshot comes from another code revision: apply the
				// §8 porting rules before joining, so its call-stack
				// locations line up with this build's.
				remote, _ = sigport.Port(remote, s.rules)
				m.Counters.SyncPorted.Add(1)
			}
			// The join may adopt disabled/revision state onto live
			// signatures the avoidance matchers read, so it runs under the guard.
			m.cache.WithGuard(func() {
				pulled = m.hist.Merge(remote)
			})
			if pulled > 0 {
				m.Counters.SyncPulls.Add(1)
			}
			m.syncMu.Lock()
			s.lastSeen = rv
			m.syncMu.Unlock()
		}
	}

	if lv := m.hist.Version(); lv != lastPushed {
		if _, err := s.store.Push(ctx, m.snapshotForStore()); err != nil {
			fail(err)
		} else {
			// Deliberately NOT adopting the post-push version as lastSeen:
			// a peer's change can land between this round's pull and push,
			// and the push version would cover it — skipping it forever.
			// The next probe re-pulls (a no-op self-merge at worst).
			m.syncMu.Lock()
			if lv > s.lastPushed {
				s.lastPushed = lv
			}
			m.syncMu.Unlock()
			m.Counters.SyncPushes.Add(1)
			pushed = true
		}
	}

	if firstErr == nil {
		// Any successful round — the loop's or a caller's SyncNow —
		// proves the store healthy and snaps the loop back to its
		// configured cadence. Failures are scored by the loop alone
		// (noteRoundError): a SyncNow that died on its caller's tight
		// deadline or cancellation says nothing about store health and
		// must not stretch the backoff.
		s.consecFails.Store(0)
	}
	m.Counters.SyncRounds.Add(1)
	if m.cfg.Bus.Active() {
		ev := obs.SyncRoundDone{
			Pulled:      pulled,
			Pushed:      pushed,
			Duration:    time.Since(start),
			ConsecFails: int(s.consecFails.Load()),
		}
		if firstErr != nil {
			ev.Err = firstErr.Error()
		}
		m.cfg.Bus.Publish(ev)
	}
	return firstErr
}

// noteRoundError scores one loop round's failure for the backoff
// schedule. Cancellation (Stop aborting the round) is not a store
// failure.
func (s *syncer) noteRoundError(err error) {
	if err == nil || errors.Is(err, context.Canceled) {
		return
	}
	s.consecFails.Add(1)
}

// snapshotForStore clones the live history under the avoidance guard
// (which owns the mutable per-signature fields), so the push can
// serialize and ship it without racing lock traffic — and without
// holding the guard across store I/O.
func (m *Monitor) snapshotForStore() *signature.History {
	var snap *signature.History
	m.cache.WithGuard(func() {
		snap = m.hist.CloneForStore()
	})
	return snap
}

// PublishToStore pushes the current history through the store under the
// caller's context (the Runtime.Stop final publish passes its bounded
// shutdown context, so an unreachable store costs at most the shutdown
// budget). Safe whether or not the loops run; a no-op when nothing
// changed since the last push.
func (m *Monitor) PublishToStore(ctx context.Context) error {
	if m.sync == nil {
		return ErrNoStore
	}
	lv := m.hist.Version()
	m.syncMu.Lock()
	lastPushed := m.sync.lastPushed
	m.syncMu.Unlock()
	if lv == lastPushed {
		return nil
	}
	if _, err := m.sync.store.Push(ctx, m.snapshotForStore()); err != nil {
		m.Counters.SyncErrors.Add(1)
		return err
	}
	m.syncMu.Lock()
	if lv > m.sync.lastPushed {
		m.sync.lastPushed = lv
	}
	m.syncMu.Unlock()
	m.Counters.SyncPushes.Add(1)
	return nil
}

// syncLoop runs sync rounds on the interval (and on kicks) until
// stopped. Consecutive failed rounds stretch the delay by SyncBackoff
// instead of hammering a dead daemon every interval; the first
// successful round snaps back to the configured cadence. The final
// publish is the owner's job (Runtime.Stop), under its bounded shutdown
// context — the loop itself exits immediately on stop.
func (m *Monitor) syncLoop(interval time.Duration) {
	defer close(m.sync.doneCh)
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-m.sync.stopCh:
			return
		case <-m.sync.kickCh:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		m.sync.noteRoundError(m.syncOnce(m.sync.roundCtx))
		delay := interval
		if fails := int(m.sync.consecFails.Load()); fails > 0 {
			delay = SyncBackoff(interval, fails)
			m.Counters.SyncBackoffs.Add(1)
		}
		timer.Reset(delay)
	}
}

// persistArchive publishes the history right after a new signature is
// archived: through the sync loop when it runs (asynchronous, so the
// monitor pass is never blocked on the network), synchronously through
// the store otherwise — bounded by the round timeout so a dead store
// cannot stall the monitor pass — falling back to the legacy file save
// for storeless histories.
func (m *Monitor) persistArchive() {
	switch {
	case m.syncRunning.Load():
		m.KickSync()
	case m.sync != nil:
		ctx := context.Background()
		if t := m.cfg.SyncRoundTimeout; t > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
		_ = m.PublishToStore(ctx)
	default:
		// Best-effort persistence for store-less histories; the clone
		// keeps the (rare) archive-time file write race-free and off the
		// guard.
		snap := m.snapshotForStore()
		_ = snap.Save() // path may be unset
	}
}
