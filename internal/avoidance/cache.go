// Package avoidance implements the hot-path half of Dimmunix: the RAG
// "cache" consulted and updated by the request/acquired/release
// instrumentation (§5.4, §5.6).
//
// The cache maintains, per interned call stack S, the Allowed set: the
// threads permitted to wait for locks while having call stack S, including
// the threads that acquired and still hold those locks. A lock request is
// allowed (GO) unless, together with the current allow/hold entries, it
// would instantiate a signature from the history; then the thread yields
// and records yield-cause bindings so it can be woken when any binding
// breaks.
//
// Synchronization is two-tier. The guarded tier serializes on one
// sync.Mutex (the §5.6 guard), which protects every mutable structure
// here, including the mutable fields of *signature.Signature; callers
// outside the package take it through WithGuard. The lock-free tier
// (FastRequest/FastAcquired/FastRelease/FastCancel) handles requests
// whose call stack is provably safe under the current history epoch: such
// stacks appear in no matcher, so their edges could never change any
// decision, and the tier touches no guarded state at all — one atomic
// marker check plus the event pushes.
//
// Event emission to the monitor is lock-free (MPSC queue). Bookkeeping
// events (acquired, release) are batched per thread (Config.EventBatch)
// and flushed either when a batch fills, when the same thread emits an
// ordering event (request/go/yield/cancel/thread-exit — those always
// flush first, so per-thread FIFO order is preserved end to end), or when
// the monitor steals all buffers at the top of each pass. The §5.2 order
// the detector needs survives batching: a thread publishes its complete
// history before every event that creates a wait edge, so every blocked
// thread — in particular every participant of a deadlock or yield cycle —
// has exact RAG state at detection time, and the monitor's
// steal-before-drain keeps detection latency within one τ. Stale state is
// confined to running threads, which have no wait edges and therefore
// cannot extend a cycle; out-of-order acquired/release between *different*
// threads is absorbed by the RAG's multi-holder bookkeeping.
package avoidance

import (
	"sync"
	"sync/atomic"

	"dimmunix/internal/event"
	"dimmunix/internal/obs"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// Mode selects how much of the avoidance path runs; the Fig 8 overhead
// breakdown toggles these.
type Mode uint8

const (
	// ModeInstrument captures stacks and emits events only.
	ModeInstrument Mode = iota
	// ModeDataStructs additionally maintains the Allowed sets and
	// holder bookkeeping, but never matches signatures.
	ModeDataStructs
	// ModeFull runs complete avoidance.
	ModeFull
)

// ThreadState is the cache's per-thread node. One exists per registered
// application thread.
type ThreadState struct {
	ID   int32
	Name string

	// Priority influences starvation-break victim selection (§8 notes
	// priority support "can easily be added"; this is that addition).
	// Higher priority = freed first. Default 0.
	Priority atomic.Int32

	// liveHolds counts this thread's outstanding holds across both tiers
	// (guarded entries and fast-path holds, which leave no entry). The
	// runtime's idle-thread pruner reads it to prove quiescence.
	liveHolds atomic.Int32

	// Wake is signaled (buffered, capacity 1) whenever a yield cause of
	// this thread may have broken.
	Wake chan struct{}

	// buf batches this thread's bookkeeping events (see the package doc).
	buf event.Buffer

	// fhMu protects fastHolds, the log of this thread's outstanding
	// fast-tier holds. It is a leaf lock (never held while taking the
	// guard or any mutex-side lock): the release path consults it first
	// (ReleaseAny) and the epoch reconciler (adoptFastHolds, under the
	// cache guard) adopts dangerous entries out of it, so the two
	// sides linearize on fhMu — whichever wins, the hold is accounted
	// exactly once.
	fhMu      sync.Mutex
	fastHolds []fastHold

	// entryFree recycles entry nodes for this thread. Protected by the
	// cache guard (every alloc/free site holds it).
	entryFree []*entry

	// Everything below is protected by the cache guard.
	forcedGo     bool
	pendingAllow *entry       // the outstanding allow edge, if any
	holds        []*entry     // hold entries in acquisition order
	yieldRegs    []*LockState // locks whose waiter sets contain this thread
	yieldSig     *signature.Signature
}

// fastHold is one outstanding fast-tier hold: thread t holds l, classified
// safe under the epoch it was acquired in, with call stack st.
type fastHold struct {
	l      *LockState
	st     *stack.Interned
	shared bool
}

// LiveHolds returns the number of locks the thread currently holds
// (counting recursive acquisitions), across both avoidance tiers.
func (t *ThreadState) LiveHolds() int { return int(t.liveHolds.Load()) }

// NoteHold / NoteRelease maintain the hold count on paths that bypass the
// cache entirely (ModeOff), so idle-thread pruning can prove quiescence
// in every mode.
func (t *ThreadState) NoteHold()    { t.liveHolds.Add(1) }
func (t *ThreadState) NoteRelease() { t.liveHolds.Add(-1) }

// LockState is the cache's per-lock node, embedded in the public Mutex.
type LockState struct {
	ID uint64

	// Protected by the cache guard.
	owner   *ThreadState // nil when free (ownership per cache view)
	waiters map[int32]*ThreadState
}

// entry is one allow or hold edge in the cache: thread T waits for / holds
// lock L having had call stack St.
type entry struct {
	t    *ThreadState
	l    *LockState
	st   *stack.Interned
	held bool
	// position of this entry in its stackState's slice, for O(1)
	// swap-removal.
	ssIdx int
}

// stackState is the per-interned-stack node carrying the Allowed set.
type stackState struct {
	in      *stack.Interned
	entries []*entry
}

// Decision is the outcome of Request.
type Decision struct {
	// Go is true when the thread may proceed to block on the lock.
	Go bool
	// Sig is the matched signature on YIELD (also set when a yield was
	// suppressed by ignore-decisions mode).
	Sig *signature.Signature
	// Depth is the matching depth in force when the instance was found.
	Depth int
	// Causes are the (thread, lock, stack) bindings of the instance,
	// excluding the requesting thread's own tentative binding.
	Causes []Binding
	// YielderIdx is the signature stack index covered by the requesting
	// thread's own stack.
	YielderIdx int
}

// Binding is one element of a signature instance.
type Binding struct {
	T      *ThreadState
	L      *LockState
	St     *stack.Interned
	SigIdx int // index of the signature stack this binding covers
}

// Config parametrizes a Cache.
type Config struct {
	// DisableFastPath forces every request through the guarded protocol
	// (benchmark baselines and differential testing).
	DisableFastPath bool
	// Mode selects the instrumentation level.
	Mode Mode
	// IgnoreDecisions turns YIELD into GO (Table 1's control run).
	IgnoreDecisions bool
	// ProbeDepth, when > 0, re-checks every matched instance at this
	// deeper depth and counts failures in Stats.ProbeFPs (§7.3's
	// false-positive accounting).
	ProbeDepth int
	// DiscardObsolete removes a signature from the history when a
	// completed calibration ladder shows a 100% false-positive rate at
	// its best depth — §8: such signatures are obsolete (e.g. the bug
	// was fixed by an upgrade).
	DiscardObsolete bool
	// EventBatch is the per-thread bookkeeping-event batch size: acquired
	// and release events accumulate in a per-thread buffer published to
	// the monitor queue one Batch event per EventBatch records (ordering
	// events and the monitor's per-pass steal flush earlier). <= 1
	// publishes every event immediately.
	EventBatch int
	// Bus, when non-nil, receives AvoidanceYield observability events.
	// Publishes are gated on Bus.Active, so an unobserved runtime pays a
	// single atomic load on the (already cold) yield path and nothing
	// anywhere else.
	Bus *obs.Bus
}

// Cache is the avoidance-side state of one Dimmunix runtime.
type Cache struct {
	cfg      Config
	fastOK   bool // precomputed: requests may use the lock-free tier
	interner *stack.Interner
	hist     *signature.History
	emit     func(event.Event)
	stats    *Stats

	// mu is the guard of the guarded tier (see the package doc).
	mu sync.Mutex

	// stackStates is the interned-stack side table, indexed by interned
	// stack ID. Protected by mu.
	stackStates []*stackState

	// threads is the registry of live thread nodes, for the monitor's
	// steal-all-buffers flush and for epoch reconciliation of fast holds.
	threadsMu sync.Mutex
	threads   map[int32]*ThreadState

	// Protected by mu.
	matchers    []*sigMatcher
	byStack     map[uint32][]matchRef // reverse index: stack -> signature positions
	histVersion uint64
	linkedUpTo  int  // interned stacks below this ID are linked into matchers
	calibrating bool // some signature's depth ladder is running
	indexDirty  bool // reverse index needs a rebuild
	// reconciledEpoch is the danger-index epoch outstanding fast holds
	// were last reconciled against (adoptFastHolds).
	reconciledEpoch uint64
	// coverUsedT/coverUsedL are cover()'s recursion scratch, reused
	// across requests — cover only ever runs under mu.
	coverUsedT map[*ThreadState]bool
	coverUsedL map[*LockState]bool

	nextLockID atomic.Uint64

	// lastAvoided remembers the most recently avoided signature — the
	// §5.7 "disable the last avoided signature" flow (the paper's
	// pop-up-blocker analogy).
	lastAvoided atomic.Pointer[signature.Signature]
}

// NewCache builds a cache over the given history. emit must be non-nil and
// is invoked for every instrumentation event.
func NewCache(cfg Config, interner *stack.Interner, hist *signature.History, stats *Stats, emit func(event.Event)) *Cache {
	c := &Cache{
		cfg:        cfg,
		fastOK:     cfg.Mode == ModeFull && !cfg.IgnoreDecisions && !cfg.DisableFastPath,
		interner:   interner,
		hist:       hist,
		emit:       emit,
		stats:      stats,
		byStack:    make(map[uint32][]matchRef),
		threads:    make(map[int32]*ThreadState),
		coverUsedT: make(map[*ThreadState]bool),
		coverUsedL: make(map[*LockState]bool),
	}
	if hist != nil {
		c.reconciledEpoch = hist.Danger().Epoch()
	}
	return c
}

// Stats returns the cache's counters.
func (c *Cache) Stats() *Stats { return c.stats }

// NewThread creates the cache node for a registered thread.
func (c *Cache) NewThread(id int32, name string) *ThreadState {
	t := &ThreadState{
		ID:   id,
		Name: name,
		Wake: make(chan struct{}, 1),
	}
	c.threadsMu.Lock()
	c.threads[id] = t
	c.threadsMu.Unlock()
	return t
}

// NewLock creates a lock node with a fresh ID.
func (c *Cache) NewLock() *LockState {
	return &LockState{ID: c.nextLockID.Add(1)}
}

// Intern exposes the runtime's stack interner.
func (c *Cache) Intern(s stack.Stack) *stack.Interned { return c.interner.Intern(s) }

// stackStateByID resolves the side-table node for an interned stack ID
// (nil if the stack has no node yet). Caller holds c.mu.
func (c *Cache) stackStateByID(id uint32) *stackState {
	if int(id) >= len(c.stackStates) {
		return nil
	}
	return c.stackStates[id]
}

// stackState returns the node for in, creating it if needed. Caller holds
// c.mu.
func (c *Cache) stackState(in *stack.Interned) *stackState {
	if ss := c.stackStateByID(in.ID); ss != nil {
		return ss
	}
	if n := int(in.ID) + 1; n > len(c.stackStates) {
		c.stackStates = append(c.stackStates, make([]*stackState, n-len(c.stackStates))...)
	}
	ss := &stackState{in: in}
	c.stackStates[in.ID] = ss
	return ss
}

func (c *Cache) addEntry(t *ThreadState, l *LockState, in *stack.Interned, held bool) *entry {
	ss := c.stackState(in)
	var e *entry
	if n := len(t.entryFree); n > 0 {
		e = t.entryFree[n-1]
		t.entryFree = t.entryFree[:n-1]
		*e = entry{}
	} else {
		e = &entry{}
	}
	e.t, e.l, e.st, e.held, e.ssIdx = t, l, in, held, len(ss.entries)
	ss.entries = append(ss.entries, e)
	return e
}

func (c *Cache) removeEntry(e *entry) {
	ss := c.stackStateByID(e.st.ID)
	last := len(ss.entries) - 1
	ss.entries[e.ssIdx] = ss.entries[last]
	ss.entries[e.ssIdx].ssIdx = e.ssIdx
	ss.entries = ss.entries[:last]
	e.ssIdx = -1
	if t := e.t; len(t.entryFree) < 64 {
		t.entryFree = append(t.entryFree, e)
	}
}

// clearYieldRegs removes t from every waiter set it registered in.
func clearYieldRegs(t *ThreadState) {
	for _, l := range t.yieldRegs {
		delete(l.waiters, t.ID)
	}
	t.yieldRegs = t.yieldRegs[:0]
	t.yieldSig = nil
}

// classifySafe reports whether in is provably safe under the live danger
// index: its innermost frame cannot match any enabled signature stack at
// any depth. The verdict is cached in the interned stack's marker and
// self-invalidates when the history epoch moves (AddSignature,
// SetDisabled, Remove, ReplaceAll — including ReloadHistory's §8
// hot-patch — all publish a fresh index).
func (c *Cache) classifySafe(in *stack.Interned) bool {
	idx := c.hist.Danger()
	if ep, dangerous := in.Marker(); ep == idx.Epoch() {
		return !dangerous
	}
	dangerous := idx.Dangerous(in.S)
	in.SetMarker(idx.Epoch(), dangerous)
	return !dangerous
}

// ClassifySafe exposes the marker-cached safe/dangerous verdict, for the
// per-thread classification table kept by the core layer.
func (c *Cache) ClassifySafe(in *stack.Interned) bool { return c.classifySafe(in) }

// FastOK reports whether this cache admits the lock-free fast tier at all
// (full mode, decisions honored, fast path not disabled).
func (c *Cache) FastOK() bool { return c.fastOK }

// DangerEpoch returns the live danger-index epoch.
func (c *Cache) DangerEpoch() uint64 { return c.hist.Danger().Epoch() }

// DangerView returns the live danger-index epoch together with its
// published shallow-capture depth, from a single index load so the two
// are mutually consistent. shallow follows DangerIndex.ShallowDepth():
// the minimum number of innermost frames that yields the same Dangerous
// verdict as a full capture, or 0 when only a full capture is sound
// (calibration-live or depth<=0 signatures present).
func (c *Cache) DangerView() (epoch uint64, shallow int) {
	idx := c.hist.Danger()
	return idx.Epoch(), idx.ShallowDepth()
}

// bufEmit routes a per-thread event (request/go/acquired/release) through
// the thread's batch buffer, or straight to the queue when batching is off.
func (c *Cache) bufEmit(t *ThreadState, k event.Kind, lid uint64, in *stack.Interned) {
	if c.cfg.EventBatch <= 1 {
		c.emit(event.Event{Kind: k, TID: t.ID, LID: lid, Stack: in})
		return
	}
	t.buf.Add(t.ID, event.Record{Kind: k, LID: lid, Stack: in}, c.cfg.EventBatch, c.emitBatch)
}

// flushBuf publishes t's buffered events. Every directly-emitted event
// (yield/cancel/fast-blocking/thread-exit — the rare paths, and the ones
// whose payload doesn't fit the Record format) calls this first, so a
// thread's events still reach the queue in program order.
func (c *Cache) flushBuf(t *ThreadState) {
	if c.cfg.EventBatch > 1 {
		t.buf.Flush(t.ID, c.emitBatch)
	}
}

func (c *Cache) emitBatch(ev event.Event) {
	c.stats.EventBatches.Add(1)
	c.emit(ev)
}

// FlushBuffers publishes every thread's buffered bookkeeping events. The
// monitor calls this at the top of each pass, so batching never delays
// detection beyond one τ.
func (c *Cache) FlushBuffers() {
	if c.cfg.EventBatch <= 1 {
		return
	}
	c.threadsMu.Lock()
	for _, t := range c.threads {
		t.buf.Flush(t.ID, c.emitBatch)
	}
	c.threadsMu.Unlock()
}

// FastEligible is the gate of the lock-free first tier of the §5.4
// request protocol: it reports whether the requesting stack is provably
// safe under the current history epoch. A safe-stack request can never
// yield and its allow/hold edges could never participate in a signature
// instance (safe stacks appear in no matcher), so the caller may skip the
// guarded protocol entirely:
//
//   - uncontended raw lock  -> FastAcquiredImmediate (one Acquired event;
//     no Go event is owed because the thread never blocks, so no wait
//     edge could join a deadlock cycle),
//   - about to block        -> FastBlocking (publishes the Go wait edge
//     for first-occurrence detection), then FastAcquired or FastCancel,
//   - trylock failure       -> FastTryFailed (counters only).
//
// A pending ForceGo is not consumed on this tier: it stays armed for the
// thread's next guarded request, which is where yields happen.
func (c *Cache) FastEligible(in *stack.Interned) bool {
	return c.fastOK && c.classifySafe(in)
}

// FastAcquiredImmediate records an uncontended fast-tier acquisition: the
// raw lock was free, the thread never blocked. One Acquired event covers
// the whole request/go/acquired sequence. No Allowed-set entry is created
// (the stack is safe, so the hold could never cover a signature position)
// and the cache's per-lock owner view is not updated; the monitor's RAG
// remains exact via the event stream.
//
// A fast hold can outlive the epoch it was classified under. The caller
// records it in the thread's fast-hold log (NoteFastHold), and when the
// danger index moves — a local archive, a store sync pull, or a predicted
// push — the first guarded request under the new epoch reconciles every
// outstanding fast hold whose stack became dangerous into a real
// Allowed-set entry (adoptFastHolds), so a fresh signature takes effect on
// the very next acquisition that could instantiate it instead of waiting
// for fast holds to retire. Detection is exact throughout via the event
// stream regardless.
func (c *Cache) FastAcquiredImmediate(t *ThreadState, l *LockState, in *stack.Interned, shared bool) {
	c.stats.Requests.Add(1)
	c.stats.Gos.Add(1)
	c.stats.FastGos.Add(1)
	c.fastAcquired(t, l, in, shared)
}

// NoteFastHold appends one outstanding fast-tier hold to t's log, making
// it visible to epoch reconciliation. Callers must guarantee the hold is
// still live when they call (the mutex owner contract, or the RWMutex
// reader table checked under rw.mu), so a logged entry always denotes a
// real hold.
func (c *Cache) NoteFastHold(t *ThreadState, l *LockState, in *stack.Interned, shared bool) {
	t.fhMu.Lock()
	t.fastHolds = append(t.fastHolds, fastHold{l: l, st: in, shared: shared})
	t.fhMu.Unlock()
	if !c.classifySafe(in) {
		// The danger index moved between classification and the log
		// append, and this stack is dangerous under the new epoch — the
		// epoch's adoption pass may already have run, so reconcile this
		// hold ourselves instead of waiting for the next bump. (Hold
		// entries of one lock are fungible: if takeFastHold grabs a
		// sibling entry, the books still balance and matching only gets
		// more conservative.)
		if takeFastHold(t, l) {
			c.mu.Lock()
			e := c.addEntry(t, l, in, true)
			t.holds = append(t.holds, e)
			if !shared {
				l.owner = t
			}
			c.mu.Unlock()
		}
	}
}

// takeFastHold removes and returns one logged fast hold of t on l (LIFO),
// reporting whether one existed. A miss means the hold is guarded — either
// it always was, or reconciliation adopted it.
func takeFastHold(t *ThreadState, l *LockState) bool {
	t.fhMu.Lock()
	for i := len(t.fastHolds) - 1; i >= 0; i-- {
		if t.fastHolds[i].l == l {
			t.fastHolds = append(t.fastHolds[:i], t.fastHolds[i+1:]...)
			t.fhMu.Unlock()
			return true
		}
	}
	t.fhMu.Unlock()
	return false
}

// ReleaseAny releases one of t's holds on l through whichever tier it
// lives on right now: fast holds (still in the log) retire lock-free via
// the release event alone; everything else — guarded holds and fast holds
// adopted by reconciliation — goes through the guarded Release. fhMu
// linearizes the race against adoptFastHolds: exactly one side consumes
// each hold.
func (c *Cache) ReleaseAny(t *ThreadState, l *LockState) {
	if c.fastOK && takeFastHold(t, l) {
		c.FastRelease(t, l)
		return
	}
	c.Release(t, l)
}

// FastRelease retires a fast-path hold. A fast hold was never an
// Allowed-set entry, so it cannot be a yield-cause binding of any yielding
// thread — no wakeups are owed and no guard is needed; only the release
// event is emitted. Callers that logged the hold via NoteFastHold must go
// through ReleaseAny instead, which consumes the log entry first.
//
// A lonely release — the thread's last hold, released while its own
// Acquired record is still the newest thing in the batch buffer — is
// elided together with that record instead of emitted: the pair carries
// no lock-nesting evidence (no other hold was live, nothing happened in
// between) and could never appear in a detection snapshot, so skipping
// it spares the monitor two RAG updates per uncontended fast-tier
// operation. Stats counters remain exact; only the monitor-facing
// bookkeeping stream is thinned.
func (c *Cache) FastRelease(t *ThreadState, l *LockState) {
	c.stats.Releases.Add(1)
	lonely := t.liveHolds.Add(-1) == 0
	if lonely && c.cfg.EventBatch > 1 && t.buf.ElideRelease(l.ID) {
		return
	}
	c.bufEmit(t, event.Release, l.ID, nil)
}

// adoptFastHolds converts every outstanding fast hold whose stack is
// dangerous under the current danger index into a guarded Allowed-set
// entry, so signature matching sees it immediately. Holds whose stacks
// remain safe stay in the log. Runs under c.mu; the
// per-thread fhMu closes the race against concurrent releases.
func (c *Cache) adoptFastHolds() {
	idx := c.hist.Danger()
	c.threadsMu.Lock()
	for _, t := range c.threads {
		t.fhMu.Lock()
		kept := t.fastHolds[:0]
		for _, fh := range t.fastHolds {
			if !idx.Dangerous(fh.st.S) {
				kept = append(kept, fh)
				continue
			}
			e := c.addEntry(t, fh.l, fh.st, true)
			t.holds = append(t.holds, e)
			if !fh.shared {
				fh.l.owner = t
			}
		}
		t.fastHolds = kept
		t.fhMu.Unlock()
	}
	c.threadsMu.Unlock()
}

// FastBlocking announces that a fast-tier request is about to block on
// the raw lock. The Go event (whose RAG effect subsumes Request's)
// publishes the wait edge before the caller blocks, preserving
// first-occurrence deadlock detection; follow up with FastAcquired or
// FastCancel.
func (c *Cache) FastBlocking(t *ThreadState, l *LockState, in *stack.Interned) {
	c.stats.Requests.Add(1)
	c.stats.Gos.Add(1)
	c.stats.FastGos.Add(1)
	c.flushBuf(t)
	c.emit(event.Event{Kind: event.Go, TID: t.ID, LID: l.ID, Stack: in})
}

// FastTryFailed accounts a fast-tier trylock that found the raw lock
// busy. Nothing was published, so nothing is rolled back.
func (c *Cache) FastTryFailed() {
	c.stats.Requests.Add(1)
	c.stats.Gos.Add(1)
	c.stats.FastGos.Add(1)
	c.stats.Cancels.Add(1)
}

// FastAcquired completes a FastBlocking'd acquisition.
func (c *Cache) FastAcquired(t *ThreadState, l *LockState, in *stack.Interned, shared bool) {
	c.fastAcquired(t, l, in, shared)
}

func (c *Cache) fastAcquired(t *ThreadState, l *LockState, in *stack.Interned, shared bool) {
	c.stats.Acquired.Add(1)
	c.stats.FastAcquired.Add(1)
	if shared {
		c.stats.SharedAcquired.Add(1)
	}
	t.liveHolds.Add(1)
	c.bufEmit(t, event.Acquired, l.ID, in)
}

// FastCancel rolls back a FastBlocking'd acquisition whose raw block
// failed (timeout, context, recovery abort). No shared state was touched,
// so only the event is owed.
func (c *Cache) FastCancel(t *ThreadState, l *LockState) {
	c.stats.Cancels.Add(1)
	c.flushBuf(t)
	c.emit(event.Event{Kind: event.Cancel, TID: t.ID, LID: l.ID})
}

// Request implements the §5.4 request method. It returns GO when it is
// safe (w.r.t. the history) for t to block waiting for l, or YIELD with
// the matched signature instance otherwise.
func (c *Cache) Request(t *ThreadState, l *LockState, in *stack.Interned) Decision {
	c.stats.Requests.Add(1)
	// Request rides the batch buffer like the bookkeeping events: the
	// buffer is per-thread FIFO, so program order is preserved, and the
	// monitor flushes every buffer at the top of each pass — a blocked
	// thread's wait edge is never invisible for more than one τ.
	c.bufEmit(t, event.Request, l.ID, in)

	if c.cfg.Mode == ModeInstrument {
		c.stats.Gos.Add(1)
		c.bufEmit(t, event.Go, l.ID, in)
		return Decision{Go: true}
	}

	c.mu.Lock()
	clearYieldRegs(t)

	var dec Decision
	if c.cfg.Mode == ModeFull {
		c.refreshIndex()
		if ep := c.hist.Danger().Epoch(); ep != c.reconciledEpoch {
			// The danger index moved (archive, sync pull, predicted push,
			// disable flip, …): fold outstanding fast holds that became
			// dangerous into the Allowed sets before matching, so the new
			// signature binds against them right now.
			c.adoptFastHolds()
			c.reconciledEpoch = ep
		}
		if t.forcedGo {
			t.forcedGo = false
			c.stats.ForcedGos.Add(1)
		} else {
			dec = c.findInstance(t, l, in)
		}
	}

	if dec.Sig != nil && !c.cfg.IgnoreDecisions {
		// YIELD: flip the tentative allow into a request edge and
		// register for wakeups on every cause lock.
		dec.Sig.AvoidCount++
		if dec.Sig.Calib.RecordAvoidance() {
			// Ladder completed: adopt the chosen depth.
			dec.Sig.Depth = dec.Sig.Calib.Chosen
		}
		// Rung advances and ladder completion both change the effective
		// depth; keep the match index coherent immediately.
		c.invalidateMatcher(dec.Sig.ID)
		if c.cfg.ProbeDepth > 0 && !c.matchesAtDepth(dec, t, l, in, c.cfg.ProbeDepth) {
			c.stats.ProbeFPs.Add(1)
		}
		t.yieldSig = dec.Sig
		causes := make([]event.Cause, 0, len(dec.Causes))
		for _, b := range dec.Causes {
			if b.L.waiters == nil {
				b.L.waiters = make(map[int32]*ThreadState)
			}
			b.L.waiters[t.ID] = t
			t.yieldRegs = append(t.yieldRegs, b.L)
			causes = append(causes, event.Cause{TID: b.T.ID, LID: b.L.ID, Stack: b.St, SigIdx: b.SigIdx})
		}
		c.mu.Unlock()
		c.lastAvoided.Store(dec.Sig)
		c.stats.noteYield(dec.Sig.ID)
		// Yield is emitted directly (it carries causes the Record format
		// doesn't); flush first so it lands after this thread's buffered
		// Request.
		c.flushBuf(t)
		c.emit(event.Event{
			Kind: event.Yield, TID: t.ID, LID: l.ID, Stack: in,
			Causes: causes, SigID: dec.Sig.ID,
			YielderIdx: dec.YielderIdx, Depth: dec.Depth,
		})
		if c.cfg.Bus.Active() {
			c.cfg.Bus.Publish(obs.AvoidanceYield{
				SigID: dec.Sig.ID, TID: t.ID, LID: l.ID, Depth: dec.Depth,
			})
		}
		return dec
	}

	if dec.Sig != nil && c.cfg.IgnoreDecisions {
		c.stats.Ignored.Add(1)
		dec = Decision{Go: true, Sig: dec.Sig, Depth: dec.Depth}
	} else {
		dec = Decision{Go: true}
	}

	// GO: commit the allow edge.
	t.pendingAllow = c.addEntry(t, l, in, false)
	c.mu.Unlock()
	c.stats.Gos.Add(1)
	c.bufEmit(t, event.Go, l.ID, in)
	return dec
}

// Acquired converts t's outstanding allow edge on l into a hold edge.
func (c *Cache) Acquired(t *ThreadState, l *LockState) {
	c.stats.Acquired.Add(1)
	c.stats.GuardedAcquired.Add(1)
	t.liveHolds.Add(1)
	if c.cfg.Mode == ModeInstrument {
		c.emit(event.Event{Kind: event.Acquired, TID: t.ID, LID: l.ID})
		return
	}
	c.mu.Lock()
	e := t.pendingAllow
	var in *stack.Interned
	if e != nil && e.l == l {
		e.held = true
		t.pendingAllow = nil
		t.holds = append(t.holds, e)
		in = e.st
	}
	l.owner = t
	c.mu.Unlock()
	c.bufEmit(t, event.Acquired, l.ID, in)
}

// AcquiredShared converts t's outstanding allow edge on l into a shared
// ("reader-held") hold edge: the entry joins the Allowed sets like any
// hold — so reader call sites participate in signature instances — but
// exclusive ownership is not recorded, since any number of threads may
// hold l shared simultaneously. Used by the RWMutex reader path.
func (c *Cache) AcquiredShared(t *ThreadState, l *LockState) {
	c.stats.Acquired.Add(1)
	c.stats.GuardedAcquired.Add(1)
	c.stats.SharedAcquired.Add(1)
	t.liveHolds.Add(1)
	if c.cfg.Mode == ModeInstrument {
		c.emit(event.Event{Kind: event.Acquired, TID: t.ID, LID: l.ID})
		return
	}
	c.mu.Lock()
	e := t.pendingAllow
	var in *stack.Interned
	if e != nil && e.l == l {
		e.held = true
		t.pendingAllow = nil
		t.holds = append(t.holds, e)
		in = e.st
	}
	c.mu.Unlock()
	c.bufEmit(t, event.Acquired, l.ID, in)
}

// ReentrantAcquired records a reentrant acquisition (no decision needed:
// the thread already owns the lock, so it cannot block). It reports
// whether the hold took the lock-free fast tier — a provably safe stack
// needs no Allowed-set entry — in which case the caller must log the hold
// via NoteFastHold (under whatever state proves the hold is still live)
// and release it through ReleaseAny.
func (c *Cache) ReentrantAcquired(t *ThreadState, l *LockState, in *stack.Interned) bool {
	c.stats.Reentries.Add(1)
	t.liveHolds.Add(1)
	if c.fastOK && c.classifySafe(in) {
		c.stats.FastGos.Add(1)
		c.bufEmit(t, event.Acquired, l.ID, in)
		return true
	}
	if c.cfg.Mode != ModeInstrument {
		c.mu.Lock()
		e := c.addEntry(t, l, in, true)
		t.holds = append(t.holds, e)
		c.mu.Unlock()
	}
	c.bufEmit(t, event.Acquired, l.ID, in)
	return false
}

// Release removes t's most recent hold edge on l and wakes every thread
// yielding on a cause binding that involves l. The caller must emit the
// actual unlock strictly after Release returns (§5.2's event ordering).
func (c *Cache) Release(t *ThreadState, l *LockState) {
	c.stats.Releases.Add(1)
	t.liveHolds.Add(-1)
	if c.cfg.Mode == ModeInstrument {
		c.emit(event.Event{Kind: event.Release, TID: t.ID, LID: l.ID})
		return
	}
	c.mu.Lock()
	for i := len(t.holds) - 1; i >= 0; i-- {
		if t.holds[i].l == l {
			c.removeEntry(t.holds[i])
			t.holds = append(t.holds[:i], t.holds[i+1:]...)
			break
		}
	}
	stillHolds := false
	for _, h := range t.holds {
		if h.l == l {
			stillHolds = true
			break
		}
	}
	if !stillHolds && l.owner == t {
		l.owner = nil
	}
	var toWake []*ThreadState
	if len(l.waiters) > 0 {
		toWake = make([]*ThreadState, 0, len(l.waiters))
		for _, w := range l.waiters {
			toWake = append(toWake, w)
		}
	}
	c.mu.Unlock()
	c.bufEmit(t, event.Release, l.ID, nil)
	for _, w := range toWake {
		wake(w)
	}
}

// Cancel rolls back t's outstanding allow edge on l (trylock failure,
// timed-lock timeout, or recovery abort), the pthreads-port cancel event
// of §6.
func (c *Cache) Cancel(t *ThreadState, l *LockState) {
	c.stats.Cancels.Add(1)
	c.flushBuf(t)
	if c.cfg.Mode == ModeInstrument {
		c.emit(event.Event{Kind: event.Cancel, TID: t.ID, LID: l.ID})
		return
	}
	c.mu.Lock()
	clearYieldRegs(t)
	if e := t.pendingAllow; e != nil && e.l == l {
		c.removeEntry(e)
		t.pendingAllow = nil
	}
	var toWake []*ThreadState
	if len(l.waiters) > 0 {
		toWake = make([]*ThreadState, 0, len(l.waiters))
		for _, w := range l.waiters {
			toWake = append(toWake, w)
		}
	}
	c.mu.Unlock()
	c.emit(event.Event{Kind: event.Cancel, TID: t.ID, LID: l.ID})
	for _, w := range toWake {
		wake(w)
	}
}

// ThreadExit deregisters a thread.
func (c *Cache) ThreadExit(t *ThreadState) {
	if c.cfg.Mode != ModeInstrument {
		c.mu.Lock()
		clearYieldRegs(t)
		if t.pendingAllow != nil {
			c.removeEntry(t.pendingAllow)
			t.pendingAllow = nil
		}
		for _, h := range t.holds {
			c.removeEntry(h)
			if h.l.owner == t {
				h.l.owner = nil
			}
		}
		t.holds = nil
		c.mu.Unlock()
	}
	t.fhMu.Lock()
	t.fastHolds = nil
	t.fhMu.Unlock()
	c.threadsMu.Lock()
	if c.threads[t.ID] == t {
		delete(c.threads, t.ID)
	}
	c.threadsMu.Unlock()
	t.liveHolds.Store(0)
	// Flush before the exit event: the monitor prunes this thread's RAG
	// node on ThreadExit, so its bookkeeping must all land first.
	c.flushBuf(t)
	c.emit(event.Event{Kind: event.ThreadExit, TID: t.ID})
}

// ThreadQuiescent reports whether t has no avoidance-side footprint: no
// allow edge, no guarded holds, no yield registrations. Together with a
// zero LiveHolds count (which also covers fast-path holds) this is the
// runtime's proof that an idle implicit thread can be pruned.
func (c *Cache) ThreadQuiescent(t *ThreadState) bool {
	if c.cfg.Mode == ModeInstrument {
		return true
	}
	c.mu.Lock()
	quiet := t.pendingAllow == nil && len(t.holds) == 0 &&
		len(t.yieldRegs) == 0 && t.yieldSig == nil
	c.mu.Unlock()
	return quiet
}

// ForceGo releases t from its yield: its next guarded Request proceeds
// without matching. Used by the monitor to break starvation (§3) and by
// the max-yield bound (§5.7). Fast-path requests leave the flag armed
// (they never yield, so consuming it there would waive nothing).
func (c *Cache) ForceGo(t *ThreadState) {
	c.mu.Lock()
	t.forcedGo = true
	c.mu.Unlock()
	wake(t)
}

// WithGuard runs fn holding the cache guard. The mutable per-signature
// fields (counters, calibration state, disabled adoption) are owned by
// this guard, so history snapshots taken for store pushes, store merges
// folded into the live history, and diagnostic reads must run under it.
func (c *Cache) WithGuard(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// NoteAbort records that t's yield on sig timed out (max yield duration);
// after autoDisableAfter such aborts the signature is disabled
// automatically (§5.7). A zero threshold disables auto-disabling.
func (c *Cache) NoteAbort(t *ThreadState, sigID string, autoDisableAfter uint64) {
	c.stats.Aborts.Add(1)
	// Signature fields are shared with Request matching.
	c.mu.Lock()
	t.forcedGo = true
	if sig := c.hist.Get(sigID); sig != nil {
		sig.AbortCount++
		if autoDisableAfter > 0 && sig.AbortCount >= autoDisableAfter && !sig.Disabled {
			// Through the history so the flip carries a revision bump and
			// a version change — it must propagate to the fleet (and
			// invalidate fast-path markers) like any other disable.
			c.hist.SetDisabled(sigID, true)
		}
	}
	c.mu.Unlock()
}

// RecordOutcome applies a retrospective FP/TP verdict for an avoidance of
// sig performed at depth with the given instance (yielder stack +
// bindings). Called by the monitor when an fpdetect episode concludes.
func (c *Cache) RecordOutcome(sigID string, depth int, fp bool, yielderStack *stack.Interned, yielderIdx int, bindings []BindingRecord) {
	sig := c.hist.Get(sigID)
	if sig == nil {
		return
	}
	c.mu.Lock()
	if fp {
		sig.FPCount++
	} else {
		sig.TPCount++
	}
	wouldAvoidAt := func(d int) bool {
		if yielderStack == nil {
			return false
		}
		if yielderIdx < 0 || yielderIdx >= len(sig.Stacks) {
			return false
		}
		if !yielderStack.S.MatchesAtDepth(sig.Stacks[yielderIdx], d) {
			return false
		}
		for _, b := range bindings {
			if b.Stack == nil || b.SigIdx < 0 || b.SigIdx >= len(sig.Stacks) {
				return false
			}
			if !b.Stack.S.MatchesAtDepth(sig.Stacks[b.SigIdx], d) {
				return false
			}
		}
		return true
	}
	sig.Calib.RecordOutcome(depth, fp, wouldAvoidAt)
	// §8: after a completed (re)calibration, a signature whose best
	// depth still shows a 100% FP rate is obsolete — every avoidance it
	// triggers is spurious (e.g. the underlying bug was fixed). Discard.
	if c.cfg.DiscardObsolete && !sig.Calib.Active() && sig.Calib.Chosen > 0 {
		chosen := sig.Calib.Chosen
		if sig.Calib.Avoids[chosen-1] >= uint64(sig.Calib.NA) && sig.Calib.FPRate(chosen) >= 1 {
			c.hist.Remove(sig.ID)
		}
	}
	c.mu.Unlock()
}

// BindingRecord is the durable form of a Binding, kept by the monitor for
// episode bookkeeping after the live states may have moved on.
type BindingRecord struct {
	TID    int32
	LID    uint64
	Stack  *stack.Interned
	SigIdx int
}

// LastAvoided returns the most recently avoided signature (nil if none).
func (c *Cache) LastAvoided() *signature.Signature {
	return c.lastAvoided.Load()
}

// HolderOf returns the cache's view of l's owner thread ID (0 if free),
// for diagnostics.
func (c *Cache) HolderOf(l *LockState) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.owner == nil {
		return 0
	}
	return l.owner.ID
}

func wake(t *ThreadState) {
	select {
	case t.Wake <- struct{}{}:
	default:
	}
}
