package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix"
	"dimmunix/internal/histstore"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// immune is deadlock-prone bank transfers on drop-in Mutex (lock from,
// then to, in no global order) plus RWMutex branch reads, with abort
// recovery. Set-up immunizes the process by forcing one real inversion;
// the timed phase then relies on avoidance — the guarded tier, yields,
// detection and history writes all do real work. A fleet peer in the same
// process pushes a new non-matching signature to the shared directory
// store now and then, so danger-index epoch bumps arrive while the lock
// path reads the index.
const (
	immAccounts  = 64
	immBranches  = 8
	peerPeriod   = 500 * time.Millisecond
	syncPeriod   = 250 * time.Millisecond
	detectWithin = 5 * time.Second
)

type account struct {
	mu  dimmunix.Mutex
	bal int64
}

type branch struct {
	mu    dimmunix.RWMutex
	total int64 // sum of the branch's balances, settled after each transfer
}

type immClient struct {
	from, to int
	scripted bool   // forced inversion: use from/to as given
	barrier  func() // forced inversion: between the two locks
	seen     int64  // sum of branch totals read, so the reads are not dead code
	_        cacheLinePad
}

type immune struct {
	accts    []account
	branches []branch
	cs       []immClient
	ctx      context.Context
	dir      string
	detected chan time.Time

	peer     *histstore.DirStore
	peerStop chan struct{}
	peerDone chan struct{}
	rec      *recorder
}

func setupImmune(e *env) (workload, error) {
	dir := filepath.Join(e.scratch, fmt.Sprintf("immune-%d-%d", os.Getpid(), e.rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &immune{
		accts:    make([]account, immAccounts),
		branches: make([]branch, immBranches),
		cs:       make([]immClient, e.clients+2),
		ctx:      context.Background(),
		dir:      dir,
		detected: make(chan time.Time, 1),
		rec:      e.rec,
	}
	opts := []dimmunix.Option{
		dimmunix.WithAbortRecovery(),
		dimmunix.WithHistorySync(dir),
		dimmunix.WithRecovery(func(dimmunix.DeadlockInfo) {
			select {
			case w.detected <- time.Now():
			default:
			}
		}),
	}
	if e.trace {
		opts = append(opts, dimmunix.WithTau(time.Hour), dimmunix.WithSyncInterval(-1))
	} else {
		opts = append(opts, dimmunix.WithSyncInterval(syncPeriod))
	}
	if err := dimmunix.Init(opts...); err != nil {
		return nil, err
	}
	for i := range w.accts {
		a := &w.accts[i]
		a.mu.Lock()
		a.bal = cellInit
		a.mu.Unlock()
	}
	for i := range w.branches {
		b := &w.branches[i]
		b.mu.Lock()
		b.total = cellInit * immAccounts / immBranches
		b.mu.Unlock()
		b.mu.RLock()
		b.mu.RUnlock()
	}
	if err := w.immunize(e); err != nil {
		w.close()
		return nil, err
	}
	peer, err := histstore.NewDirStore(dir)
	if err != nil {
		w.close()
		return nil, err
	}
	w.peer = peer
	w.peerStop = make(chan struct{})
	w.peerDone = make(chan struct{})
	go w.fleetPeer(e.seed)
	return w, nil
}

// immunize forces one real inversion between accounts 0 and 1 through the
// clients' own call path, kicks the monitor until it detects it, and waits
// for the signature to be archived.
func (w *immune) immunize(e *env) error {
	rt := dimmunix.Default()
	var holding sync.WaitGroup
	holding.Add(2)
	release := make(chan struct{})
	barrier := func() {
		holding.Done()
		<-release
	}
	forced := []*client{newClient(e.clients, e.seed, false), newClient(e.clients+1, e.seed, false)}
	w.cs[e.clients] = immClient{from: 0, to: 1, scripted: true, barrier: barrier}
	w.cs[e.clients+1] = immClient{from: 1, to: 0, scripted: true, barrier: barrier}
	var stop atomic.Bool
	stop.Store(true) // one request each
	wg := startClients(w, forced, &stop, nil)
	holding.Wait()
	t0 := time.Now()
	close(release)

	deadline := time.After(detectWithin)
	var at time.Time
	for at.IsZero() {
		rt.Monitor().Kick()
		select {
		case at = <-w.detected:
		case <-time.After(time.Millisecond):
		case <-deadline:
			return errors.New("forced inversion not detected")
		}
	}
	e.detects = append(e.detects, float64(at.Sub(t0).Nanoseconds())/1e6)
	waitClients(wg, "forced inversion")
	for rt.Stats().SignaturesSaved == 0 {
		select {
		case <-deadline:
			return errors.New("signature not archived")
		case <-time.After(time.Millisecond):
		}
	}
	st := rt.Stats()
	if st.SignaturesSaved != 1 || st.HistorySignatures != 1 {
		return fmt.Errorf("set-up archived %d signatures (history %d), want exactly 1", st.SignaturesSaved, st.HistorySignatures)
	}
	return nil
}

// fleetPeer plays another process of the fleet: it pushes its history,
// grown by one synthetic, non-matching signature, every peerPeriod.
func (w *immune) fleetPeer(seed uint64) {
	defer close(w.peerDone)
	h := signature.NewHistory()
	t := time.NewTicker(peerPeriod)
	defer t.Stop()
	for i := uint64(0); ; i++ {
		select {
		case <-w.peerStop:
			return
		case <-t.C:
		}
		base := seed<<20 + i*2
		h.Add(signature.New(signature.Deadlock, []stack.Stack{stack.Synthetic(base, 6), stack.Synthetic(base+1, 6)}, 4))
		var err error
		w.rec.timed(spanPush, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err = w.peer.Push(ctx, h)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fleet peer push: %v\n", err)
		}
	}
}

func (w *immune) runtime() *dimmunix.Runtime { return dimmunix.Default() }

func (w *immune) close() {
	if w.peerStop != nil {
		close(w.peerStop)
		<-w.peerDone
		w.peerStop = nil
		_ = w.peer.Close()
	}
	if err := dimmunix.Shutdown(); err != nil {
		fmt.Printf("# immune: shutdown: %v\n", err)
	}
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Printf("# immune: %v\n", err)
	}
}

func (w *immune) corrupt() { w.accts[0].bal++ }

// request is one transfer between two random accounts, then one branch
// read.
func (w *immune) request(c *client) error {
	ic := &w.cs[c.id]
	if !ic.scripted {
		ic.from = c.rng.IntN(immAccounts)
		ic.to = (ic.from + 1 + c.rng.IntN(immAccounts-1)) % immAccounts
	}
	amt := 1 + c.rng.Int64N(9)
	if err := w.transfer(c, ic, amt); err != nil {
		return err
	}
	w.readBranch(c, ic, c.rng.IntN(immBranches))
	return nil
}

// transfer locks from, then to: the inversion-prone order.
//
//go:noinline
func (w *immune) transfer(c *client, ic *immClient, amt int64) error {
	from, to := &w.accts[ic.from], &w.accts[ic.to]
	t0 := c.start()
	if err := from.mu.LockCtx(w.ctx); err != nil {
		return err
	}
	c.span(spanLock, t0)
	if ic.barrier != nil {
		ic.barrier()
	}
	t0 = c.start()
	if err := to.mu.LockCtx(w.ctx); err != nil {
		from.mu.Unlock()
		return err
	}
	c.span(spanLock, t0)
	from.bal -= amt
	to.bal += amt
	to.mu.Unlock()
	from.mu.Unlock()
	if fb, tb := ic.from%immBranches, ic.to%immBranches; fb != tb {
		w.settle(c, fb, -amt)
		w.credit(c, tb, amt)
	}
	return nil
}

//go:noinline
func (w *immune) settle(c *client, i int, amt int64) {
	br := &w.branches[i]
	t0 := c.start()
	br.mu.Lock()
	c.span(spanLock, t0)
	br.total += amt
	br.mu.Unlock()
}

//go:noinline
func (w *immune) credit(c *client, i int, amt int64) {
	br := &w.branches[i]
	t0 := c.start()
	br.mu.Lock()
	c.span(spanLock, t0)
	br.total += amt
	br.mu.Unlock()
}

//go:noinline
func (w *immune) readBranch(c *client, ic *immClient, i int) {
	br := &w.branches[i]
	t0 := c.start()
	br.mu.RLock()
	c.span(spanRLock, t0)
	ic.seen += br.total
	br.mu.RUnlock()
}

func (w *immune) check() error {
	var ck checks
	var sum int64
	per := make([]int64, immBranches)
	for i := range w.accts {
		sum += w.accts[i].bal
		per[i%immBranches] += w.accts[i].bal
	}
	ck.want(sum == immAccounts*cellInit, "balances sum to %d, want %d", sum, immAccounts*cellInit)
	for i := range w.branches {
		ck.want(w.branches[i].total == per[i], "branch %d total %d, accounts hold %d", i, w.branches[i].total, per[i])
	}
	return ck.err()
}

// verify: immunity is at work (yields) and holds (no new deadlock).
func (w *immune) verify(before, after dimmunix.Stats) error {
	var ck checks
	ck.want(after.Yields > before.Yields, "no yields: the archived signature never fired")
	ck.want(after.DeadlocksDetected == before.DeadlocksDetected, "%d deadlocks detected in the timed phase",
		after.DeadlocksDetected-before.DeadlocksDetected)
	return ck.err()
}

func (w *immune) site(fn func()) { w.ladderSite(fn) }

//go:noinline
func (w *immune) ladderSite(fn func()) { fn() }
