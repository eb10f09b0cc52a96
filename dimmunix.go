// Package dimmunix is a Go implementation of deadlock immunity as
// described in "Deadlock Immunity: Enabling Systems To Defend Against
// Deadlocks" (Jula, Tralamazza, Zamfir, Candea — OSDI 2008).
//
// Programs that synchronize with dimmunix.Mutex develop resistance against
// deadlocks: the first time a deadlock pattern manifests, its signature
// (a multiset of the involved threads' call stacks) is archived in a
// persistent history; subsequent executions are steered away from
// re-instantiating the pattern by briefly yielding threads whose next lock
// acquisition would complete a known signature.
//
// # Quick start
//
// Mutex and RWMutex are drop-in replacements for their sync counterparts:
// the zero value is ready to use and binds itself to a process-wide
// default Runtime on first Lock.
//
//	var mu dimmunix.Mutex // instead of sync.Mutex
//
//	mu.Lock()
//	defer mu.Unlock()
//
// The default Runtime starts lazily with configuration taken from
// DIMMUNIX_* environment variables (DIMMUNIX_HISTORY, DIMMUNIX_TAU, ...),
// or explicitly via Init with functional options:
//
//	dimmunix.Init(
//		dimmunix.WithHistory("dimmunix-history.json"),
//		dimmunix.WithAbortRecovery(),
//	)
//	defer dimmunix.Shutdown()
//
// Deadlock recovery is orthogonal to immunity (§3 of the paper): with
// WithAbortRecovery, detected deadlock victims are unwound (the
// in-process analog of a restart) and blocked LockCtx calls return
// ErrDeadlockRecovered; either way, the next run is immune. Use LockCtx
// on paths that want to observe cancellation, deadline, or recovery as an
// error instead of a panic.
//
// # Explicit runtimes
//
// The original explicit surface remains for tests, tools, and programs
// that need several isolated instances: construct a Runtime with
// NewRuntime (options) or New (a Config), create locks with
// Runtime.NewMutex / NewRWMutex (returning *CoreMutex / *CoreRWMutex),
// and optionally pin per-goroutine identity with Runtime.RegisterThread
// for the fastest path:
//
//	rt := dimmunix.MustNew(dimmunix.Config{HistoryPath: "hist.json"})
//	defer rt.Stop()
//	m := rt.NewMutex()
//	th := rt.RegisterThread("worker")
//	if err := m.LockT(th); err != nil { ... }
//	defer m.UnlockT(th)
//
// The implementation and every experiment from the paper's evaluation
// live under internal/; see README.md for the repository map, the option
// table, and migration notes from the explicit API.
package dimmunix

import (
	"dimmunix/internal/core"
	"dimmunix/internal/histstore"
	"dimmunix/internal/monitor"
	"dimmunix/internal/signature"
)

// Re-exported core types. Aliases keep the facade zero-cost: no wrapper
// frames appear in captured call stacks.
type (
	// Runtime is one Dimmunix instance; see core.Runtime.
	Runtime = core.Runtime
	// Config configures a Runtime.
	Config = core.Config
	// CoreMutex is the explicit-runtime instrumented mutex returned by
	// Runtime.NewMutex — the original fast-path surface underneath the
	// drop-in Mutex.
	CoreMutex = core.Mutex
	// CoreRWMutex is the explicit-runtime reader/writer mutex returned
	// by Runtime.NewRWMutex, underneath the drop-in RWMutex.
	CoreRWMutex = core.RWMutex
	// Thread is an explicit per-goroutine handle (fast path).
	Thread = core.Thread
	// MutexKind selects normal/recursive/error-checking semantics.
	MutexKind = core.MutexKind
	// Mode selects the instrumentation level.
	Mode = core.Mode
	// ImmunityLevel selects weak or strong immunity.
	ImmunityLevel = core.ImmunityLevel
	// DeadlockInfo is passed to the recovery hook.
	DeadlockInfo = monitor.DeadlockInfo
	// StarvationInfo is passed to the starvation/restart hook.
	StarvationInfo = monitor.StarvationInfo
	// History is the persistent signature store.
	History = signature.History
	// Signature is one archived deadlock/starvation pattern.
	Signature = signature.Signature
	// Tombstone marks a removed signature in format v2 histories.
	Tombstone = signature.Tombstone
	// HistoryStore is a pluggable shared immunity backend: one file
	// (advisory-locked), a directory of per-process journals, or a
	// dimmunix-hist serve daemon. All store I/O is context-aware — an
	// unreachable backend degrades to counted, retried errors bounded
	// by the caller's deadline, never a hang. See OpenHistoryStore.
	HistoryStore = histstore.Store
	// Stats is a point-in-time snapshot of every runtime counter:
	// lock-path activity split by tier (fast vs guarded), yields total
	// and per signature, monitor detection counts, recoveries, store
	// sync rounds/failures/backoffs, thread prunes, the history epoch,
	// and dropped observability events. See Runtime.Stats, DebugHandler,
	// and ExpvarPublish.
	Stats = core.StatsSnapshot
	// CoreCond is the explicit-runtime condition variable bound to a
	// CoreMutex (Runtime.NewCond), underneath the drop-in Cond.
	CoreCond = core.Cond
)

// Mutex kinds.
const (
	Normal     = core.Normal
	Recursive  = core.Recursive
	ErrorCheck = core.ErrorCheck
)

// Modes.
const (
	ModeOff         = core.ModeOff
	ModeInstrument  = core.ModeInstrument
	ModeDataStructs = core.ModeDataStructs
	ModeFull        = core.ModeFull
)

// Immunity levels.
const (
	WeakImmunity   = core.WeakImmunity
	StrongImmunity = core.StrongImmunity
)

// Errors.
var (
	ErrSelfDeadlock      = core.ErrSelfDeadlock
	ErrTimeout           = core.ErrTimeout
	ErrDeadlockRecovered = core.ErrDeadlockRecovered
	ErrNotOwner          = core.ErrNotOwner
	// ErrMutexRetired is returned by explicit-runtime mutexes that were
	// retired via Retire; the drop-in surface handles it internally by
	// rebinding and retrying.
	ErrMutexRetired = core.ErrMutexRetired
	// ErrThreadPruned reports a lock operation on a Thread handle the
	// idle pruner already retired (best-effort detection).
	ErrThreadPruned = core.ErrThreadPruned
)

// New creates and starts a Runtime from an explicit Config.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// MustNew is New that panics on error.
func MustNew(cfg Config) *Runtime { return core.MustNew(cfg) }

// LoadHistory reads a signature history file (missing file = empty
// history), for tooling that inspects or merges histories.
func LoadHistory(path string) (*History, error) { return signature.Load(path) }

// OpenHistoryStore resolves a store specification to a shared immunity
// backend: "http(s)://…" selects a dimmunix-hist serve daemon, an
// existing directory (or "dir:PATH", or a trailing "/") selects
// per-process journals, anything else a single advisory-locked file.
// Pass the result to WithHistoryStore (or Config.HistoryStore).
func OpenHistoryStore(spec string) (HistoryStore, error) { return histstore.Open(spec) }
