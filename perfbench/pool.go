package main

import (
	"fmt"
	"time"

	"dimmunix"
	synth "dimmunix/internal/workload"
)

// pool is nproc long-lived workers on explicit RegisterThread handles and
// CoreMutex/CoreRWMutex. Lock calls arrive through 32 call paths of depth
// 2 to 12, more than the per-thread classification table holds, against a
// 64-signature history synthesized from call sites the timed phase never
// uses: the danger index is live, yet every acquisition is fast-tier.
const (
	poolStripes = 256
	poolCells   = 8
	poolShards  = 32
	poolPaths   = 32
	poolOps     = 5
	poolSigs    = 64
)

type poolStripe struct {
	mu    *dimmunix.CoreMutex
	cells [poolCells]int64
	ops   uint64
}

type poolShard struct {
	mu     *dimmunix.CoreRWMutex
	a, b   int64
	writes uint64
}

// poolPath is one call path: depth branch levels, two bits of branch
// choice per level.
type poolPath struct {
	depth int
	bits  uint32
}

const (
	opRead = iota
	opPair
	opSingle
	opWrite
	opWarmLock // warm-up call sites: the history's stack population
	opWarmRead
	opLadder
)

type poolOp struct {
	kind   int
	a, b   int // stripes a < b, or shard a
	ca, cb int
	amt    int64
}

// poolClient is one worker's thread handle, current operation and
// expected totals.
type poolClient struct {
	th                     *dimmunix.Thread
	op                     poolOp
	stripeOps, bumps, torn uint64
	_                      cacheLinePad
}

type pool struct {
	rt      *dimmunix.Runtime
	stripes []poolStripe
	shards  []poolShard
	paths   [poolPaths]poolPath
	cs      []poolClient
	setupTh *dimmunix.Thread
	ladder  func()
}

// poolCallPaths returns the fixed set of call paths: the program's shape,
// the same for every seed.
func poolCallPaths() [poolPaths]poolPath {
	var ps [poolPaths]poolPath
	x := uint32(2463534242)
	for i := range ps {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		ps[i] = poolPath{depth: 2 + i%11, bits: x}
	}
	return ps
}

func setupPool(e *env) (workload, error) {
	cfg := dimmunix.Config{}
	if e.trace {
		cfg.Tau = time.Hour
	}
	rt, err := dimmunix.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &pool{
		rt:      rt,
		paths:   poolCallPaths(),
		cs:      make([]poolClient, e.clients),
		setupTh: rt.RegisterThread("setup"),
	}
	w.stripes = make([]poolStripe, poolStripes)
	for i := range w.stripes {
		w.stripes[i].mu = rt.NewMutex()
		for k := range w.stripes[i].cells {
			w.stripes[i].cells[k] = cellInit
		}
	}
	w.shards = make([]poolShard, poolShards)
	for i := range w.shards {
		w.shards[i].mu = rt.NewRWMutex()
		w.shards[i].a = shardSum
	}
	for i := range w.cs {
		w.cs[i].th = rt.RegisterThread(fmt.Sprintf("worker-%d", i))
	}

	// §7.2.1: synthesize the history from real lock stacks of this
	// program — here the warm-up call sites, which the timed phase never
	// reaches, so the history is live but never matches.
	c := newClient(len(w.cs), e.seed, false)
	w.cs = append(w.cs, poolClient{th: w.setupTh})
	for i, p := range w.paths {
		for _, kind := range []int{opWarmLock, opWarmRead} {
			w.cs[c.id].op = poolOp{kind: kind, a: i % poolShards}
			if err := w.descend(c, 0, p); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	w.cs = w.cs[:len(w.cs)-1]
	hist, err := synth.SynthesizeHistory(rt.CapturedStacks(), poolSigs, 2, rt.Config().MatchDepth, int64(e.seed))
	if err != nil {
		w.close()
		return nil, err
	}
	rt.History().Merge(hist)
	if n := rt.History().Len(); n != poolSigs {
		w.close()
		return nil, fmt.Errorf("history holds %d signatures, want %d", n, poolSigs)
	}
	return w, nil
}

func (w *pool) runtime() *dimmunix.Runtime { return w.rt }

func (w *pool) close() {
	for i := range w.cs {
		w.cs[i].th.Close()
	}
	w.setupTh.Close()
	if err := w.rt.Stop(); err != nil {
		fmt.Printf("# pool: stop: %v\n", err)
	}
	// The ladder's facade rung binds to the default runtime.
	if err := dimmunix.Shutdown(); err != nil {
		fmt.Printf("# pool: shutdown: %v\n", err)
	}
}

func (w *pool) corrupt() { w.stripes[0].cells[0]++ }

// request runs poolOps operations, each reached through a random call path.
func (w *pool) request(c *client) error {
	pc := &w.cs[c.id]
	rng := c.rng
	for i := 0; i < poolOps; i++ {
		op := &pc.op
		switch k := rng.IntN(100); {
		case k < 55:
			op.kind = opRead
		case k < 80:
			op.kind = opPair
		case k < 95:
			op.kind = opSingle
		default:
			op.kind = opWrite
		}
		if op.kind == opRead || op.kind == opWrite {
			op.a = rng.IntN(poolShards)
		} else {
			op.a = rng.IntN(poolStripes - 1)
			op.b = op.a + 1 + rng.IntN(poolStripes-1-op.a)
		}
		op.ca, op.cb = rng.IntN(poolCells), rng.IntN(poolCells)
		op.amt = 1 + rng.Int64N(9)
		if err := w.descend(c, 0, w.paths[rng.IntN(poolPaths)]); err != nil {
			return err
		}
	}
	return nil
}

// descend walks one call path, level by level, then runs the operation.
//
//go:noinline
func (w *pool) descend(c *client, level int, p poolPath) error {
	if level >= p.depth {
		return w.leaf(c)
	}
	switch (p.bits >> (2 * (level % 16))) & 3 {
	case 0:
		return w.branch0(c, level, p)
	case 1:
		return w.branch1(c, level, p)
	case 2:
		return w.branch2(c, level, p)
	default:
		return w.branch3(c, level, p)
	}
}

//go:noinline
func (w *pool) branch0(c *client, level int, p poolPath) error { return w.descend(c, level+1, p) }

//go:noinline
func (w *pool) branch1(c *client, level int, p poolPath) error { return w.descend(c, level+1, p) }

//go:noinline
func (w *pool) branch2(c *client, level int, p poolPath) error { return w.descend(c, level+1, p) }

//go:noinline
func (w *pool) branch3(c *client, level int, p poolPath) error { return w.descend(c, level+1, p) }

//go:noinline
func (w *pool) leaf(c *client) error {
	pc := &w.cs[c.id]
	op := &pc.op
	switch op.kind {
	case opRead:
		return w.read(c, pc, op)
	case opPair:
		return w.pair(c, pc, op)
	case opSingle:
		return w.single(c, pc, op)
	case opWrite:
		return w.write(c, pc, op)
	case opWarmLock:
		return w.warmLock(pc, op)
	case opWarmRead:
		return w.warmRead(pc, op)
	default:
		w.ladder()
		return nil
	}
}

//go:noinline
func (w *pool) read(c *client, pc *poolClient, op *poolOp) error {
	sh := &w.shards[op.a]
	t0 := c.start()
	if err := sh.mu.RLockT(pc.th); err != nil {
		return err
	}
	c.span(spanRLock, t0)
	if sh.a+sh.b != shardSum {
		pc.torn++
	}
	return sh.mu.RUnlockT(pc.th)
}

// pair moves amt from stripe a to stripe b, locking in stripe order.
//
//go:noinline
func (w *pool) pair(c *client, pc *poolClient, op *poolOp) error {
	src, dst := &w.stripes[op.a], &w.stripes[op.b]
	t0 := c.start()
	if err := src.mu.LockT(pc.th); err != nil {
		return err
	}
	c.span(spanLock, t0)
	t0 = c.start()
	if err := dst.mu.LockT(pc.th); err != nil {
		_ = src.mu.UnlockT(pc.th)
		return err
	}
	c.span(spanLock, t0)
	src.cells[op.ca] -= op.amt
	dst.cells[op.cb] += op.amt
	src.ops++
	dst.ops++
	pc.stripeOps += 2
	if err := dst.mu.UnlockT(pc.th); err != nil {
		return err
	}
	return src.mu.UnlockT(pc.th)
}

//go:noinline
func (w *pool) single(c *client, pc *poolClient, op *poolOp) error {
	s := &w.stripes[op.a]
	t0 := c.start()
	if err := s.mu.LockT(pc.th); err != nil {
		return err
	}
	c.span(spanLock, t0)
	s.cells[op.ca] -= op.amt
	s.cells[op.cb] += op.amt
	s.ops++
	pc.stripeOps++
	return s.mu.UnlockT(pc.th)
}

//go:noinline
func (w *pool) write(c *client, pc *poolClient, op *poolOp) error {
	sh := &w.shards[op.a]
	t0 := c.start()
	if err := sh.mu.LockT(pc.th); err != nil {
		return err
	}
	c.span(spanLock, t0)
	sh.a++
	sh.b--
	sh.writes++
	pc.bumps++
	return sh.mu.UnlockT(pc.th)
}

//go:noinline
func (w *pool) warmLock(pc *poolClient, op *poolOp) error {
	s := &w.stripes[op.a]
	if err := s.mu.LockT(pc.th); err != nil {
		return err
	}
	return s.mu.UnlockT(pc.th)
}

//go:noinline
func (w *pool) warmRead(pc *poolClient, op *poolOp) error {
	sh := &w.shards[op.a]
	if err := sh.mu.RLockT(pc.th); err != nil {
		return err
	}
	return sh.mu.RUnlockT(pc.th)
}

func (w *pool) check() error {
	var cells int64
	var ops, writes, torn uint64
	for i := range w.stripes {
		ops += w.stripes[i].ops
		for _, v := range w.stripes[i].cells {
			cells += v
		}
	}
	for i := range w.shards {
		if w.shards[i].a+w.shards[i].b != shardSum {
			torn++
		}
		writes += w.shards[i].writes
	}
	var wantOps, wantWrites uint64
	for i := range w.cs {
		wantOps += w.cs[i].stripeOps
		wantWrites += w.cs[i].bumps
		torn += w.cs[i].torn
	}
	var ck checks
	ck.want(cells == poolStripes*poolCells*cellInit, "cells sum to %d, want %d", cells, poolStripes*poolCells*cellInit)
	ck.want(ops == wantOps, "stripe ops %d, want %d", ops, wantOps)
	ck.want(writes == wantWrites, "shard writes %d, want %d", writes, wantWrites)
	ck.want(torn == 0, "%d torn shard states or reads", torn)
	return ck.err()
}

// verify: the 64-signature history never matches the timed call sites.
func (w *pool) verify(before, after dimmunix.Stats) error {
	if after.HistorySignatures != poolSigs {
		return fmt.Errorf("history holds %d signatures, want %d", after.HistorySignatures, poolSigs)
	}
	return fastOnly(before, after)
}

// site runs fn at the end of a mid-depth call path on a worker thread's
// goroutine stack shape.
func (w *pool) site(fn func()) {
	c := newClient(len(w.cs), 0, false)
	w.cs = append(w.cs, poolClient{th: w.setupTh, op: poolOp{kind: opLadder}})
	defer func() { w.cs = w.cs[:len(w.cs)-1] }()
	w.ladder = fn
	_ = w.descend(c, 0, w.paths[5])
}
