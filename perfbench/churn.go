package main

import (
	"fmt"
	"time"

	"dimmunix"
)

// churn is a goroutine-per-request server on zero-value dimmunix.Mutex and
// dimmunix.RWMutex with an empty history: every request runs on a fresh
// goroutine, so it pays for goroutine identity, thread registration and a
// cold per-thread classification table, while the guarded tier has
// nothing to do.
const (
	churnStripes = 256
	churnCells   = 8
	churnShards  = 32
	churnJournal = 16
	cellInit     = 1000
	shardSum     = 1 << 20
	// churnThreadTTL stands in for the 1-minute default ThreadTTL: a
	// server that runs for hours holds about one TTL's worth of retired
	// request goroutines and prunes continuously; scaling the TTL down
	// lets a run of seconds reach that steady state instead of growing
	// its heap for the whole run.
	churnThreadTTL = 2 * time.Second
)

type stripe struct {
	mu    dimmunix.Mutex
	cells [churnCells]int64
	ops   uint64 // bumped under mu: lost updates reveal broken exclusion
}

type shard struct {
	mu     dimmunix.RWMutex
	a, b   int64 // a+b == shardSum, written together under the write lock
	writes uint64
}

type journal struct {
	mu dimmunix.Mutex
	n  uint64
}

// churnReq is one request's inputs, drawn from the client's seeded stream.
type churnReq struct {
	kind      int // 0 transfer (two stripes, in stripe order), 1 move, 2 read
	a, b      int // stripes, a < b
	ca, cb    int // cells
	s1, s2, j int // shards, journal
	amt       int64
	bump      bool // write-lock shard s1
}

// churnClient is one client's request slot and expected totals.
type churnClient struct {
	done                            chan error
	req                             churnReq
	stripeOps, bumps, journal, torn uint64
	seen                            int64 // sum of audited cells, so the reads are not dead code
	_                               cacheLinePad
}

type churn struct {
	stripes  []stripe
	shards   []shard
	journals []journal
	cs       []churnClient
}

func setupChurn(e *env) (workload, error) {
	opts := []dimmunix.Option{dimmunix.WithThreadTTL(churnThreadTTL)}
	if e.trace {
		opts = append(opts, dimmunix.WithTau(time.Hour))
	}
	if err := dimmunix.Init(opts...); err != nil {
		return nil, err
	}
	w := &churn{
		stripes:  make([]stripe, churnStripes),
		shards:   make([]shard, churnShards),
		journals: make([]journal, churnJournal),
		cs:       make([]churnClient, e.clients),
	}
	// Bind every zero-value mutex to the runtime now, as a server's first
	// requests would.
	for i := range w.stripes {
		s := &w.stripes[i]
		s.mu.Lock()
		for k := range s.cells {
			s.cells[k] = cellInit
		}
		s.mu.Unlock()
	}
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		sh.a = shardSum
		sh.mu.Unlock()
		sh.mu.RLock()
		sh.mu.RUnlock()
	}
	for i := range w.journals {
		w.journals[i].mu.Lock()
		w.journals[i].mu.Unlock()
	}
	for i := range w.cs {
		w.cs[i].done = make(chan error, 1)
	}
	return w, nil
}

func (w *churn) runtime() *dimmunix.Runtime { return dimmunix.Default() }

func (w *churn) close() {
	if err := dimmunix.Shutdown(); err != nil {
		fmt.Printf("# churn: shutdown: %v\n", err)
	}
}

func (w *churn) corrupt() { w.stripes[0].cells[0]++ }

func (w *churn) gen(c *client, r *churnReq) {
	rng := c.rng
	switch k := rng.IntN(100); {
	case k < 30:
		r.kind = 0
	case k < 70:
		r.kind = 1
	default:
		r.kind = 2
	}
	r.a = rng.IntN(churnStripes - 1)
	r.b = r.a + 1 + rng.IntN(churnStripes-1-r.a)
	r.ca, r.cb = rng.IntN(churnCells), rng.IntN(churnCells)
	r.s1, r.s2 = rng.IntN(churnShards), rng.IntN(churnShards)
	r.j = rng.IntN(churnJournal)
	r.amt = 1 + rng.Int64N(9)
	r.bump = rng.IntN(16) == 0
}

// request spawns one goroutine for the request and waits for it.
func (w *churn) request(c *client) error {
	cc := &w.cs[c.id]
	w.gen(c, &cc.req)
	go w.serve(c, cc)
	return <-cc.done
}

// serve is the request goroutine: about five lock operations over eight
// handler call sites.
//
//go:noinline
func (w *churn) serve(c *client, cc *churnClient) {
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		cc.done <- err
	}()
	r := &cc.req
	w.readShard(c, cc, r.s1)
	switch r.kind {
	case 0:
		w.transfer(c, cc, r)
		w.scanShard(c, cc, r.s2)
	case 1:
		w.move(c, cc, r)
		w.audit(c, cc, r.b)
	default:
		w.scanShard(c, cc, r.s2)
		w.audit(c, cc, r.a)
	}
	if r.bump {
		w.bumpShard(c, cc, r.s1)
	}
	w.record(c, cc, r.j)
}

//go:noinline
func (w *churn) readShard(c *client, cc *churnClient, s int) {
	sh := &w.shards[s]
	t0 := c.start()
	sh.mu.RLock()
	c.span(spanRLock, t0)
	if sh.a+sh.b != shardSum {
		cc.torn++
	}
	sh.mu.RUnlock()
}

//go:noinline
func (w *churn) scanShard(c *client, cc *churnClient, s int) {
	sh := &w.shards[s]
	t0 := c.start()
	sh.mu.RLock()
	c.span(spanRLock, t0)
	if sh.a+sh.b != shardSum {
		cc.torn++
	}
	sh.mu.RUnlock()
}

// transfer moves amt from stripe a to stripe b, locking in stripe order.
//
//go:noinline
func (w *churn) transfer(c *client, cc *churnClient, r *churnReq) {
	src := &w.stripes[r.a]
	t0 := c.start()
	src.mu.Lock()
	c.span(spanLock, t0)
	src.cells[r.ca] -= r.amt
	src.ops++
	w.deposit(c, cc, r)
	src.mu.Unlock()
	cc.stripeOps++
}

//go:noinline
func (w *churn) deposit(c *client, cc *churnClient, r *churnReq) {
	dst := &w.stripes[r.b]
	t0 := c.start()
	dst.mu.Lock()
	c.span(spanLock, t0)
	dst.cells[r.cb] += r.amt
	dst.ops++
	dst.mu.Unlock()
	cc.stripeOps++
}

//go:noinline
func (w *churn) move(c *client, cc *churnClient, r *churnReq) {
	s := &w.stripes[r.a]
	t0 := c.start()
	s.mu.Lock()
	c.span(spanLock, t0)
	s.cells[r.ca] -= r.amt
	s.cells[r.cb] += r.amt
	s.ops++
	s.mu.Unlock()
	cc.stripeOps++
}

//go:noinline
func (w *churn) audit(c *client, cc *churnClient, i int) {
	s := &w.stripes[i]
	t0 := c.start()
	s.mu.Lock()
	c.span(spanLock, t0)
	var sum int64
	for _, v := range s.cells {
		sum += v
	}
	s.ops++
	s.mu.Unlock()
	cc.stripeOps++
	cc.seen += sum
}

//go:noinline
func (w *churn) bumpShard(c *client, cc *churnClient, s int) {
	sh := &w.shards[s]
	t0 := c.start()
	sh.mu.Lock()
	c.span(spanLock, t0)
	sh.a++
	sh.b--
	sh.writes++
	sh.mu.Unlock()
	cc.bumps++
}

//go:noinline
func (w *churn) record(c *client, cc *churnClient, j int) {
	jr := &w.journals[j]
	t0 := c.start()
	jr.mu.Lock()
	c.span(spanLock, t0)
	jr.n++
	jr.mu.Unlock()
	cc.journal++
}

func (w *churn) check() error {
	var cells int64
	var ops, writes, journals, torn uint64
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
	for i := range w.journals {
		journals += w.journals[i].n
	}
	var wantOps, wantWrites, wantJournal uint64
	for i := range w.cs {
		wantOps += w.cs[i].stripeOps
		wantWrites += w.cs[i].bumps
		wantJournal += w.cs[i].journal
		torn += w.cs[i].torn
	}
	var ck checks
	ck.want(cells == churnStripes*churnCells*cellInit, "cells sum to %d, want %d", cells, churnStripes*churnCells*cellInit)
	ck.want(ops == wantOps, "stripe ops %d, want %d", ops, wantOps)
	ck.want(writes == wantWrites, "shard writes %d, want %d", writes, wantWrites)
	ck.want(journals == wantJournal, "journal entries %d, want %d", journals, wantJournal)
	ck.want(torn == 0, "%d torn shard states or reads", torn)
	return ck.err()
}

// verify: with an empty history every acquisition stays on the fast tier.
func (w *churn) verify(before, after dimmunix.Stats) error {
	return fastOnly(before, after)
}

// site runs fn on a fresh request goroutine, one handler frame deep.
func (w *churn) site(fn func()) {
	done := make(chan struct{})
	go w.ladderSite(fn, done)
	<-done
}

//go:noinline
func (w *churn) ladderSite(fn func(), done chan struct{}) {
	defer close(done)
	fn()
}
