package avoidance

import (
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// sigMatcher is the per-signature match index: for each signature stack,
// the set of interned stacks that match it at the signature's effective
// depth. Maintaining it at intern time keeps the request hot path at
// O(signatures that can possibly match) instead of O(H · stacks).
type sigMatcher struct {
	sig   *signature.Signature
	depth int
	// matchIDs[j] lists interned stack IDs matching sig.Stacks[j].
	matchIDs [][]uint32
	// linkedUpTo: interned IDs below this are already linked.
	linkedUpTo int
}

// matchRef is one entry of the cache-global reverse index: interned stack
// -> (signature, stack position).
type matchRef struct {
	m   *sigMatcher
	idx int
}

func newSigMatcher(sig *signature.Signature) *sigMatcher {
	return &sigMatcher{
		sig:      sig,
		depth:    sig.EffectiveDepth(),
		matchIDs: make([][]uint32, len(sig.Stacks)),
	}
}

// reset rebuilds the matcher for a changed depth. The caller must mark the
// global reverse index dirty.
func (m *sigMatcher) reset() {
	m.depth = m.sig.EffectiveDepth()
	m.matchIDs = make([][]uint32, len(m.sig.Stacks))
	m.linkedUpTo = 0
}

// link indexes interned stacks [m.linkedUpTo, n) against the signature,
// appending new matches to the cache's reverse index.
func (m *sigMatcher) link(c *Cache, n int) {
	for id := m.linkedUpTo; id < n; id++ {
		in := c.interner.ByID(uint32(id))
		if in == nil {
			continue
		}
		for j, ss := range m.sig.Stacks {
			if in.S.MatchesAtDepth(ss, m.depth) {
				m.matchIDs[j] = append(m.matchIDs[j], in.ID)
				c.byStack[in.ID] = append(c.byStack[in.ID], matchRef{m: m, idx: j})
			}
		}
	}
	m.linkedUpTo = n
}

// refreshIndex brings the match index up to date with the history version,
// per-signature effective depths, and newly interned stacks. The common
// case (nothing changed, no calibration running) is three comparisons.
// Guard held.
func (c *Cache) refreshIndex() {
	v := c.hist.Version()
	n := c.interner.Len()
	if v == c.histVersion && n == c.linkedUpTo && !c.calibrating && !c.indexDirty {
		return
	}

	if v != c.histVersion {
		c.histVersion = v
		sigs := c.hist.Snapshot()
		old := make(map[string]*sigMatcher, len(c.matchers))
		for _, m := range c.matchers {
			old[m.sig.ID] = m
		}
		c.matchers = c.matchers[:0]
		c.calibrating = false
		for _, s := range sigs {
			m, ok := old[s.ID]
			if !ok || m.sig != s {
				m = newSigMatcher(s)
			}
			c.matchers = append(c.matchers, m)
			if s.Calib.On {
				c.calibrating = true
			}
		}
		c.indexDirty = true
	}

	if c.calibrating || c.indexDirty {
		// Depth ladders may have moved; reset any matcher whose depth
		// is stale.
		for _, m := range c.matchers {
			if m.depth != m.sig.EffectiveDepth() {
				m.reset()
				c.indexDirty = true
			}
		}
	}

	if c.indexDirty {
		// Rebuild the reverse index from scratch: matchers re-link from
		// zero.
		c.byStack = make(map[uint32][]matchRef)
		for _, m := range c.matchers {
			m.linkedUpTo = 0
			m.matchIDs = make([][]uint32, len(m.sig.Stacks))
		}
		c.indexDirty = false
	}

	if n > c.linkedUpTo || anyUnlinked(c.matchers, n) {
		for _, m := range c.matchers {
			if m.linkedUpTo < n {
				m.link(c, n)
			}
		}
		c.linkedUpTo = n
	}
}

func anyUnlinked(ms []*sigMatcher, n int) bool {
	for _, m := range ms {
		if m.linkedUpTo < n {
			return true
		}
	}
	return false
}

// invalidateMatcher marks the index stale after a signature's effective
// depth changed (calibration rung advance or ladder completion). Guard
// held.
func (c *Cache) invalidateMatcher(sigID string) {
	for _, m := range c.matchers {
		if m.sig.ID == sigID && m.depth != m.sig.EffectiveDepth() {
			c.indexDirty = true
			return
		}
	}
}

// findInstance searches the history for a signature instantiated by the
// tentative binding (t, l, in) together with the current allow/hold
// entries (§5.4). Guard held.
func (c *Cache) findInstance(t *ThreadState, l *LockState, in *stack.Interned) Decision {
	refs := c.byStack[in.ID]
	if len(refs) == 0 {
		return Decision{}
	}
	for _, ref := range refs {
		if ref.m.sig.Disabled {
			continue
		}
		if bindings, ok := c.cover(ref.m, ref.idx, t, l); ok {
			return Decision{
				Sig:        ref.m.sig,
				Depth:      ref.m.depth,
				Causes:     bindings,
				YielderIdx: ref.idx,
			}
		}
	}
	return Decision{}
}

// cover attempts an exact cover of the signature stacks: the requesting
// thread covers position yIdx; every other position needs a distinct
// (thread, lock) pair from the Allowed sets.
func (c *Cache) cover(m *sigMatcher, yIdx int, t *ThreadState, l *LockState) ([]Binding, bool) {
	n := len(m.sig.Stacks)
	// Recursion scratch is per-cache: cover only runs under the cache
	// guard, so reuse beats reallocating two maps per probe. The
	// bindings slice is still allocated fresh — on success it escapes into
	// the Decision.
	usedT, usedL := c.coverUsedT, c.coverUsedL
	clear(usedT)
	clear(usedL)
	usedT[t] = true
	usedL[l] = true
	bindings := make([]Binding, 0, n-1)

	var rec func(j int) bool
	rec = func(j int) bool {
		if j == n {
			return true
		}
		if j == yIdx {
			return rec(j + 1)
		}
		for _, sid := range m.matchIDs[j] {
			ss := c.stackStateByID(sid)
			if ss == nil {
				continue
			}
			for _, e := range ss.entries {
				if usedT[e.t] || usedL[e.l] {
					continue
				}
				usedT[e.t] = true
				usedL[e.l] = true
				bindings = append(bindings, Binding{T: e.t, L: e.l, St: e.st, SigIdx: j})
				if rec(j + 1) {
					return true
				}
				bindings = bindings[:len(bindings)-1]
				delete(usedT, e.t)
				delete(usedL, e.l)
			}
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	return bindings, true
}

// matchesAtDepth re-validates a found instance at a deeper matching depth
// (the §7.3 probe that classifies an avoidance as a would-be false
// positive). Guard held.
func (c *Cache) matchesAtDepth(dec Decision, t *ThreadState, l *LockState, in *stack.Interned, depth int) bool {
	sig := dec.Sig
	if dec.YielderIdx < 0 || dec.YielderIdx >= len(sig.Stacks) {
		return false
	}
	if !in.S.MatchesAtDepth(sig.Stacks[dec.YielderIdx], depth) {
		return false
	}
	for _, b := range dec.Causes {
		if b.SigIdx < 0 || b.SigIdx >= len(sig.Stacks) {
			return false
		}
		if !b.St.S.MatchesAtDepth(sig.Stacks[b.SigIdx], depth) {
			return false
		}
	}
	return true
}
