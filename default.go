package dimmunix

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/core"
)

// ErrInitialized reports that the process-wide default Runtime already
// exists (created by an earlier Init or lazily by a zero-value mutex's
// first Lock). Call Shutdown first to replace it.
var ErrInitialized = errors.New("dimmunix: default runtime already initialized")

var (
	defaultMu sync.Mutex
	defaultRT atomic.Pointer[core.Runtime]

	// defaultGen counts default-runtime transitions (installs and
	// shutdowns). Zero-value Mutex/RWMutex bindings are stamped with the
	// generation they bound under; a stale stamp makes the next lock
	// operation rebind to the current default runtime — the mechanism
	// that lets Shutdown→Init rebind already-bound drop-in mutexes
	// instead of leaving them attached to a stopped runtime.
	defaultGen atomic.Uint64
)

// generation returns the current default-runtime generation.
func generation() uint64 { return defaultGen.Load() }

// Init creates the process-wide default Runtime that zero-value Mutex and
// RWMutex values bind to on first Lock. Configuration is read from the
// DIMMUNIX_* environment first, then refined by opts (options take
// precedence over the environment). Init is safe to call concurrently;
// exactly one caller creates the runtime and the rest get ErrInitialized,
// as does any Init after the default runtime exists.
//
// Programs that never call Init still get immunity: the first Lock
// lazily initializes the default Runtime from the environment alone.
func Init(opts ...Option) error {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultRT.Load() != nil {
		return ErrInitialized
	}
	cfg, err := configFromEnv()
	if err != nil {
		return err
	}
	for _, o := range opts {
		o(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	defaultRT.Store(rt)
	defaultGen.Add(1)
	return nil
}

// Default returns the process-wide default Runtime, lazily creating it
// from the DIMMUNIX_* environment if neither Init nor a zero-value mutex
// has done so yet. It panics if the environment is malformed or the
// history file cannot be read — the drop-in Lock path has no error
// return; call Init at startup to observe those errors instead.
func Default() *Runtime {
	if rt := defaultRT.Load(); rt != nil {
		return rt
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if rt := defaultRT.Load(); rt != nil {
		return rt
	}
	cfg, err := configFromEnv()
	if err == nil {
		var rt *Runtime
		rt, err = core.New(cfg)
		if err == nil {
			defaultRT.Store(rt)
			defaultGen.Add(1)
			return rt
		}
	}
	panic(fmt.Sprintf("dimmunix: default runtime init failed: %v", err))
}

// Shutdown stops the default Runtime — a final monitor pass, then the
// history is saved — and clears it, so a later Init (or first Lock)
// creates a fresh one. Bound mutexes are detached lazily: the generation
// stamp on each binding goes stale, and a mutex's next lock operation
// retires the old instance once it is observed free (retirement is
// atomic with the raw lock grant, so acquirers racing the transition
// bounce internally and retry on the fresh binding — mutual exclusion is
// preserved even under lock traffic concurrent with Shutdown→Init). A
// mutex held across Shutdown keeps unlocking through its old runtime and
// rebinds once free. Operations in flight during the transition may
// briefly go unmonitored (their events reach the stopped runtime);
// quiesce first if complete monitoring coverage matters. No-op when no
// default runtime exists.
func Shutdown() error {
	defaultMu.Lock()
	rt := defaultRT.Swap(nil)
	if rt != nil {
		defaultGen.Add(1)
	}
	defaultMu.Unlock()
	if rt == nil {
		return nil
	}
	return rt.Stop()
}

// Environment variables read by Init and the lazy Default initializer.
// Options passed to Init take precedence over all of them.
//
//	DIMMUNIX_HISTORY           history file path ("" = in-memory)
//	DIMMUNIX_HISTORY_SYNC      shared store spec: file path, directory of
//	                           per-process journals, or http:// URL of a
//	                           dimmunix-hist serve daemon; enables the
//	                           cross-process sync loop
//	DIMMUNIX_SYNC_INTERVAL     sync cadence, Go duration (default 2s with
//	                           a shared store; negative disables the loop)
//	DIMMUNIX_SYNC_TOKEN        shared-secret push token for http:// stores
//	                           (must match the daemon's --token)
//	DIMMUNIX_SHUTDOWN_TIMEOUT  bound on Stop's final store publish, Go
//	                           duration (default 1s; negative = unbounded)
//	DIMMUNIX_TAU               monitor period, Go duration ("100ms")
//	DIMMUNIX_MODE              off | instrument | datastructs | full
//	DIMMUNIX_IMMUNITY          weak | strong
//	DIMMUNIX_RECOVERY          abort | off
//	DIMMUNIX_MATCH_DEPTH       int
//	DIMMUNIX_MAX_YIELD         Go duration
//	DIMMUNIX_STACK_DEPTH       int
//	DIMMUNIX_CALIBRATE         bool
//	DIMMUNIX_DISCARD_OBSOLETE  bool
//	DIMMUNIX_THREAD_TTL        Go duration (idle implicit-thread pruning;
//	                           negative disables)
//	DIMMUNIX_FASTPATH          on | off (safe-stack lock-free bypass)
//	DIMMUNIX_EVENT_BUFFER      int (observability ring / subscriber
//	                           channel capacity; default 256)
//	DIMMUNIX_EVENT_BATCH       int (per-thread monitor-publication batch
//	                           size; default 64, <= 1 disables batching)
//	DIMMUNIX_TRACE             trace-mode journal path ("" = no tracing);
//	                           records every acquisition event for
//	                           offline prediction (dimmunix-predict)
//	DIMMUNIX_TRACE_MAX_BYTES   int; journal size bound before rotation
//	                           (default 64 MiB; negative = unbounded)
func configFromEnv() (Config, error) {
	var cfg Config
	cfg.HistoryPath = os.Getenv("DIMMUNIX_HISTORY")
	cfg.HistorySync = os.Getenv("DIMMUNIX_HISTORY_SYNC")

	if err := envDuration("DIMMUNIX_SYNC_INTERVAL", &cfg.SyncInterval); err != nil {
		return cfg, err
	}
	if err := envDuration("DIMMUNIX_SHUTDOWN_TIMEOUT", &cfg.ShutdownTimeout); err != nil {
		return cfg, err
	}
	if err := envDuration("DIMMUNIX_TAU", &cfg.Tau); err != nil {
		return cfg, err
	}
	if err := envDuration("DIMMUNIX_MAX_YIELD", &cfg.MaxYield); err != nil {
		return cfg, err
	}
	if err := envInt("DIMMUNIX_MATCH_DEPTH", &cfg.MatchDepth); err != nil {
		return cfg, err
	}
	if err := envInt("DIMMUNIX_STACK_DEPTH", &cfg.StackDepth); err != nil {
		return cfg, err
	}
	if err := envBool("DIMMUNIX_CALIBRATE", &cfg.Calibrate); err != nil {
		return cfg, err
	}
	if err := envBool("DIMMUNIX_DISCARD_OBSOLETE", &cfg.DiscardObsolete); err != nil {
		return cfg, err
	}
	if err := envDuration("DIMMUNIX_THREAD_TTL", &cfg.ThreadTTL); err != nil {
		return cfg, err
	}
	if err := envInt("DIMMUNIX_EVENT_BUFFER", &cfg.EventBuffer); err != nil {
		return cfg, err
	}
	if err := envInt("DIMMUNIX_EVENT_BATCH", &cfg.EventBatch); err != nil {
		return cfg, err
	}
	cfg.TracePath = os.Getenv("DIMMUNIX_TRACE")
	if err := envInt64("DIMMUNIX_TRACE_MAX_BYTES", &cfg.TraceMaxBytes); err != nil {
		return cfg, err
	}
	if v := os.Getenv("DIMMUNIX_FASTPATH"); v != "" {
		switch strings.ToLower(v) {
		case "on":
			cfg.DisableFastPath = false
		case "off":
			cfg.DisableFastPath = true
		default:
			return cfg, fmt.Errorf("dimmunix: DIMMUNIX_FASTPATH=%q (want on|off)", v)
		}
	}

	if v := os.Getenv("DIMMUNIX_MODE"); v != "" {
		switch strings.ToLower(v) {
		case "off":
			cfg.Mode = ModeOff
		case "instrument":
			cfg.Mode = ModeInstrument
		case "datastructs":
			cfg.Mode = ModeDataStructs
		case "full":
			cfg.Mode = ModeFull
		default:
			return cfg, fmt.Errorf("dimmunix: DIMMUNIX_MODE=%q (want off|instrument|datastructs|full)", v)
		}
	}
	if v := os.Getenv("DIMMUNIX_IMMUNITY"); v != "" {
		switch strings.ToLower(v) {
		case "weak":
			cfg.Immunity = WeakImmunity
		case "strong":
			cfg.Immunity = StrongImmunity
		default:
			return cfg, fmt.Errorf("dimmunix: DIMMUNIX_IMMUNITY=%q (want weak|strong)", v)
		}
	}
	if v := os.Getenv("DIMMUNIX_RECOVERY"); v != "" {
		switch strings.ToLower(v) {
		case "abort":
			cfg.RecoverAborts = true
		case "off":
			cfg.RecoverAborts = false
		default:
			return cfg, fmt.Errorf("dimmunix: DIMMUNIX_RECOVERY=%q (want abort|off)", v)
		}
	}
	return cfg, nil
}

func envDuration(name string, dst *time.Duration) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("dimmunix: %s=%q: %v", name, v, err)
	}
	*dst = d
	return nil
}

func envInt(name string, dst *int) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("dimmunix: %s=%q: %v", name, v, err)
	}
	*dst = n
	return nil
}

func envInt64(name string, dst *int64) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return fmt.Errorf("dimmunix: %s=%q: %v", name, v, err)
	}
	*dst = n
	return nil
}

func envBool(name string, dst *bool) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return fmt.Errorf("dimmunix: %s=%q: %v", name, v, err)
	}
	*dst = b
	return nil
}
