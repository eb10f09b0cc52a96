// Package core ties Dimmunix together: the Runtime owns the history, the
// avoidance cache, the event queue, and the monitor thread; Thread and
// Mutex are the instrumented primitives applications use in place of raw
// goroutine identity and sync.Mutex (which Go does not let us interpose).
package core

import (
	"time"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/histstore"
	"dimmunix/internal/monitor"
	"dimmunix/internal/obs"
	"dimmunix/internal/signature"
	"dimmunix/internal/sigport"
)

// Mode selects how much of Dimmunix runs; used for the Fig 8 overhead
// breakdown and for baseline measurements.
type Mode uint8

const (
	// ModeFull is complete Dimmunix (the zero-value default).
	ModeFull Mode = iota
	// ModeOff bypasses Dimmunix entirely: Mutex behaves like a plain
	// (abortable, optionally reentrant) mutex.
	ModeOff
	// ModeInstrument captures stacks and emits events only.
	ModeInstrument
	// ModeDataStructs adds the avoidance data-structure updates, but
	// performs no matching and never yields.
	ModeDataStructs
)

// ImmunityLevel selects weak vs strong immunity (§5.4).
type ImmunityLevel uint8

const (
	// WeakImmunity breaks induced starvation and continues (default).
	WeakImmunity ImmunityLevel = iota
	// StrongImmunity invokes the restart hook on starvation, which
	// guarantees no deadlock or starvation pattern ever reoccurs.
	StrongImmunity
)

// DefaultMaxYield bounds how long a thread may be kept yielding to avoid a
// pattern before it is forcibly released (§5.7 suggests e.g. 200 ms).
const DefaultMaxYield = 200 * time.Millisecond

// DefaultThreadTTL is how long an implicitly-registered goroutine may sit
// idle before its registration is pruned (Config.ThreadTTL).
const DefaultThreadTTL = time.Minute

// DefaultSyncInterval is the history-store sync cadence used when a
// store is configured (HistoryStore or HistorySync) and SyncInterval is
// left zero.
const DefaultSyncInterval = 2 * time.Second

// DefaultShutdownTimeout bounds Runtime.Stop's final history publish
// through the store. Shutdown is the one moment the store is allowed to
// cost the host process wall-clock time — one second buys durability
// from a healthy store without letting an outage stall process exit.
const DefaultShutdownTimeout = time.Second

// Config configures a Runtime. The zero value is usable: full Dimmunix,
// weak immunity, τ = 100 ms, matching depth 4, no history file.
type Config struct {
	// HistoryPath is the persistent history file ("" = in-memory only).
	// It is served by a FileStore underneath; unlike HistoryStore /
	// HistorySync it does not enable the periodic sync loop by default,
	// preserving the single-process semantics (save on archive and Stop,
	// pull on ReloadHistory).
	HistoryPath string
	// HistoryStore, when non-nil, is the shared immunity store this
	// runtime loads from, persists to, and syncs with (§8 distribution).
	// Takes precedence over HistorySync and HistoryPath.
	HistoryStore histstore.Store
	// HistorySync is a store specification string (histstore.Open form:
	// a file path, a directory, or an http:// daemon URL), the
	// DIMMUNIX_HISTORY_SYNC plumbing. Used when HistoryStore is nil.
	HistorySync string
	// SyncInterval is the pull→merge→push cadence against the store.
	// Zero selects DefaultSyncInterval when a store was configured via
	// HistoryStore/HistorySync (and disables the loop for plain
	// HistoryPath); negative disables the loop entirely.
	SyncInterval time.Duration
	// SyncRoundTimeout bounds one sync round's store I/O (probe + pull +
	// push); an overrunning round is abandoned and retried with backoff.
	// Zero selects monitor.DefaultSyncRoundTimeout, negative disables
	// the bound.
	SyncRoundTimeout time.Duration
	// ShutdownTimeout bounds the final history publish Runtime.Stop
	// performs through the store: when the store is unreachable, Stop
	// abandons the publish after this long instead of stalling process
	// exit (the local journal/file state and every earlier push keep the
	// immunity). Zero selects DefaultShutdownTimeout, negative removes
	// the bound.
	ShutdownTimeout time.Duration
	// SyncPortRules are sigport rules applied to pulled snapshots whose
	// build fingerprint differs from BuildFingerprint (§8 porting).
	SyncPortRules []sigport.Rule
	// BuildFingerprint identifies this build in pushed snapshots (""
	// selects signature.BuildFingerprint()).
	BuildFingerprint string
	// TracePath arms trace mode: every acquisition event the monitor
	// drains — including fast-tier operations, so the journal captures
	// the complete lock-order behavior — is appended to this binary
	// journal (internal/trace format) for offline deadlock prediction
	// (dimmunix-predict). Recording happens on the monitor goroutine,
	// off the lock path; "" (the default) records nothing. The
	// DIMMUNIX_TRACE env var is the no-code-change plumbing.
	TracePath string
	// TraceMaxBytes bounds the trace journal: at the bound the journal
	// rotates to TracePath+".1" and starts fresh, so a long-lived
	// process keeps a sliding window instead of filling the disk. Zero
	// selects trace.DefaultMaxBytes; negative disables the bound.
	TraceMaxBytes int64
	// Tau is the monitor wakeup period (default 100 ms).
	Tau time.Duration
	// MatchDepth is the fixed matching depth recorded in new signatures
	// (default 4, §5.5).
	MatchDepth int
	// Calibrate arms dynamic matching-depth calibration on new
	// signatures (§5.5). Off by default, as in the paper's evaluation.
	Calibrate bool
	// CalibMaxDepth, CalibNA, CalibNT override the calibration
	// parameters (defaults 10, 20, 10000).
	CalibMaxDepth int
	CalibNA       int
	CalibNT       uint64
	// DiscardObsolete removes signatures whose completed calibration
	// shows a 100% false-positive rate at the chosen depth (§8:
	// obsolete after an upgrade).
	DiscardObsolete bool
	// Immunity selects weak or strong immunity.
	Immunity ImmunityLevel
	// Mode selects the instrumentation level.
	Mode Mode
	// IgnoreDecisions computes avoidance decisions but never yields
	// (the Table 1 control configuration).
	IgnoreDecisions bool
	// ProbeDepth, when > 0, re-checks each avoidance at this depth and
	// counts failures as probe false positives (§7.3 methodology).
	ProbeDepth int
	// MaxYield bounds one yield episode; 0 selects DefaultMaxYield,
	// negative disables the bound.
	MaxYield time.Duration
	// AbortDisableThreshold auto-disables a signature after this many
	// max-yield aborts (0 = never auto-disable).
	AbortDisableThreshold uint64
	// DisableFastPath forces every request through the guarded §5.4
	// protocol, disabling the epoch-validated safe-stack bypass. Used for
	// benchmark baselines and differential testing.
	DisableFastPath bool
	// ThreadTTL bounds how long an idle implicitly-registered thread
	// (CurrentThread with no explicit handle) stays registered: a
	// goroutine quiescent for at least this long has its registration
	// pruned and reclaimed, so goroutine-per-request servers do not grow
	// the runtime maps unboundedly. Zero selects DefaultThreadTTL;
	// negative disables pruning. Explicit RegisterThread handles are
	// never pruned.
	ThreadTTL time.Duration
	// StackDepth is the number of frames captured per lock operation
	// (default 16; must be at least MatchDepth and the calibration max).
	StackDepth int
	// RecoverAborts arms the built-in recovery policy: when a deadlock is
	// detected (and its signature archived), the involved threads' lock
	// waits are aborted so their Lock calls return ErrDeadlockRecovered —
	// the in-process analog of the paper's restart-based recovery (§3).
	// OnDeadlock, if also set, still runs after the aborts are issued.
	RecoverAborts bool
	// OnDeadlock is the §3 recovery hook, called after the signature is
	// archived. Runs on the monitor goroutine.
	OnDeadlock func(monitor.DeadlockInfo)
	// OnStarvation is called when a yield cycle is handled; with strong
	// immunity this is the restart hook. Runs on the monitor goroutine.
	OnStarvation func(monitor.StarvationInfo)
	// Observers are observability callbacks registered at construction
	// (the WithObserver option): each receives every typed event the
	// runtime publishes, on the bus dispatcher goroutine. A stalled
	// observer stalls only delivery (events drop oldest-first), never
	// lock traffic, the monitor, or Stop.
	Observers []func(obs.Event)
	// EventBuffer sizes the observability ring and each subscriber
	// channel (0 selects obs.DefaultBufferSize).
	EventBuffer int
	// EventBatch is the per-thread monitor-publication batch size:
	// bookkeeping events (acquired/release) accumulate in a per-thread
	// buffer published to the monitor queue as one carrier event when
	// full, when the thread is about to block or exit, and at the start
	// of every monitor pass — so detection still sees every operation
	// within one τ. 0 selects DefaultEventBatch; values <= 1 disable
	// batching (every event publishes immediately).
	EventBatch int
}

// DefaultEventBatch is the default per-thread event batch size.
const DefaultEventBatch = 64

func (c *Config) fill() {
	if c.Tau <= 0 {
		c.Tau = monitor.DefaultTau
	}
	if c.MatchDepth <= 0 {
		c.MatchDepth = signature.DefaultDepth
	}
	if c.MaxYield == 0 {
		c.MaxYield = DefaultMaxYield
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = DefaultShutdownTimeout
	}
	if c.ThreadTTL == 0 {
		c.ThreadTTL = DefaultThreadTTL
	}
	if c.StackDepth <= 0 {
		c.StackDepth = 16
	}
	if c.EventBatch == 0 {
		c.EventBatch = DefaultEventBatch
	}
	if c.BuildFingerprint == "" {
		c.BuildFingerprint = signature.BuildFingerprint()
	}
	if c.StackDepth < c.MatchDepth {
		c.StackDepth = c.MatchDepth
	}
	if c.Calibrate && c.CalibMaxDepth > c.StackDepth {
		c.StackDepth = c.CalibMaxDepth
	}
}

func (c *Config) avoidanceMode() avoidance.Mode {
	switch c.Mode {
	case ModeInstrument:
		return avoidance.ModeInstrument
	case ModeDataStructs:
		return avoidance.ModeDataStructs
	default:
		return avoidance.ModeFull
	}
}
