package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix"
	"dimmunix/internal/avoidance"
	"dimmunix/internal/event"
	"dimmunix/internal/gid"
	"dimmunix/internal/stack"
)

// spansPerClient caps the spans one client keeps in memory; spans past the
// cap are counted, not stored.
const spansPerClient = 1 << 16

type spanKind uint8

const (
	spanRequest spanKind = iota
	spanLock             // facade Lock / core LockT (exclusive)
	spanRLock            // facade RLock / core RLockT
	spanPass             // Monitor().Pass()
	spanSync             // Runtime.SyncNow
	spanPush             // HistoryStore.Push by the fleet peer
)

var spanNames = [...]string{"request", "lock", "rlock", "monitor.pass", "histstore.sync", "histstore.push"}

// span is one timed call. Spans of one request share req; background
// spans (passes, syncs, pushes) carry req 0.
type span struct {
	req        uint64
	kind       spanKind
	start, end int64
}

// recorder collects the background spans of a traced run.
type recorder struct {
	recording atomic.Bool // inside the timed phase
	mu        sync.Mutex
	spans     []span
	passes    []float64 // ns
	syncs     []float64 // ns
	pushes    []float64 // ns
}

func newRecorder() *recorder { return &recorder{} }

// timed runs fn and, inside the timed phase, records it as a span.
func (r *recorder) timed(kind spanKind, fn func()) {
	t0 := nanotime()
	fn()
	end := nanotime()
	if r == nil || !r.recording.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{kind: kind, start: t0, end: end})
	d := float64(end - t0)
	switch kind {
	case spanPass:
		r.passes = append(r.passes, d)
	case spanSync:
		r.syncs = append(r.syncs, d)
	case spanPush:
		r.pushes = append(r.pushes, d)
	}
}

// driver runs the monitor (and the store sync, when the runtime has a
// store) from outside in a traced run: the runtime's own τ ticker and
// sync loop are set out of the way, so these timed calls are the only
// passes and rounds.
type driver struct {
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func startDriver(rt *dimmunix.Runtime, rec *recorder) *driver {
	d := &driver{quit: make(chan struct{})}
	d.every(monitorPeriod, func() { rec.timed(spanPass, rt.Monitor().Pass) })
	if rt.HistoryStore() != nil {
		d.every(syncPeriod, func() {
			rec.timed(spanSync, func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = rt.SyncNow(ctx) // failures show in monitor.sync_errors
			})
		})
	}
	return d
}

func (d *driver) every(period time.Duration, fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-d.quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

func (d *driver) stop() {
	d.once.Do(func() { close(d.quit) })
	d.wg.Wait()
}

// layerMetrics derives every per-layer metric of a traced run. Metrics of
// layers a workload does not exercise stay 0.
func layerMetrics(w workload, e *env, p *phase, cs []*client, before, after dimmunix.Stats) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	reqs := max(p.n, 1)
	rt := w.runtime()

	g := rt.Monitor().RAG() // the monitor is quiet: its ticker never fires in a traced run
	m["rag.threads"] = float64(g.NumThreads())
	m["rag.locks"] = float64(g.NumLocks())
	m["core.live_threads_end"] = float64(after.LiveThreads)
	m["core.thread_prunes"] = float64(after.ThreadPrunes - before.ThreadPrunes)
	m["core.fast_frac"] = ratio(after.FastAcquired-before.FastAcquired, after.Acquired-before.Acquired)
	m["avoidance.guarded_per_req"] = ratio(after.GuardedAcquired-before.GuardedAcquired, reqs)
	m["avoidance.yields_per_req"] = ratio(after.Yields-before.Yields, reqs)
	tp := after.TruePositives - before.TruePositives
	m["avoidance.tp_frac"] = ratio(tp, tp+after.FalsePositives-before.FalsePositives)
	m["avoidance.yield_p99_us"] = float64(after.Latency.Yield.P99) / 1e3
	m["avoidance.forced_gos"] = float64(after.ForcedGos - before.ForcedGos)
	m["avoidance.aborts"] = float64(after.Aborts - before.Aborts)
	events := after.EventsProcessed - before.EventsProcessed
	m["event.events_per_req"] = ratio(events, reqs)
	m["event.ops_per_batch"] = ratio(events, after.EventBatches-before.EventBatches)
	passes := after.MonitorPasses - before.MonitorPasses
	m["monitor.passes"] = float64(passes)
	m["monitor.events_per_pass"] = ratio(events, passes)
	m["monitor.deadlocks"] = float64(after.DeadlocksDetected - before.DeadlocksDetected)
	m["signature.epoch_bumps"] = float64(after.HistoryEpoch - before.HistoryEpoch)
	m["signature.history_sigs"] = float64(after.HistorySignatures)
	m["monitor.sync_rounds"] = float64(after.SyncRounds - before.SyncRounds)
	m["monitor.sync_errors"] = float64(after.SyncErrors - before.SyncErrors)
	m["obs.events_dropped"] = float64(after.EventsDropped)

	rec := e.rec
	rec.mu.Lock()
	var busy float64
	for _, d := range rec.passes {
		busy += d
	}
	m["monitor.pass_p50_us"] = quantileOf(rec.passes, 0.50) / 1e3
	m["monitor.pass_p99_us"] = quantileOf(rec.passes, 0.99) / 1e3
	m["monitor.busy_frac"] = busy / float64(p.elapsed)
	m["histstore.sync_p50_ms"] = median(rec.syncs) / 1e6
	m["histstore.push_p50_ms"] = median(rec.pushes) / 1e6
	rec.mu.Unlock()

	m["facade.lock_span_p50_ns"] = p.lockLat.quantile(0.50)
	m["facade.lock_span_p99_ns"] = p.lockLat.quantile(0.99)
	nU, nT, tU, tT := p.sums()
	untraced := float64(nU) / tU.Seconds()
	traced := float64(nT) / tT.Seconds()
	m["trace.untraced_req_per_s"] = untraced
	var p99 []float64
	for i := 0; i < len(p.wins); i += 2 {
		p99 = append(p99, p.wins[i].p99)
	}
	m["trace.untraced_lat_p99_us"] = median(p99) / 1e3
	m["trace.traced_req_per_s"] = traced
	if untraced > 0 {
		m["trace.overhead_frac"] = 1 - traced/untraced
	}
	m["monitor.detect_ms"] = median(e.detects)

	ladder(w, m)
	n, err := writeSpans(e.spans, cs, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	m["trace.spans"] = float64(n)
	return m
}

// writeSpans writes every kept span as tab-separated text and returns how
// many it wrote.
func writeSpans(path string, cs []*client, rec *recorder) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "req\tspan\tstart_ns\tend_ns\n")
	n := 0
	put := func(s span) {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n", s.req, spanNames[s.kind], s.start, s.end)
		n++
	}
	for _, c := range cs {
		for _, s := range c.spans {
			put(s)
		}
	}
	rec.mu.Lock()
	for _, s := range rec.spans {
		put(s)
	}
	rec.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// ladder measures the lock path rung by rung at the workload's own call
// site. Each rung adds one layer to the one before; the deltas are the
// per-layer costs:
//
//	bare sync.Mutex -> gid.Current -> CurrentThread (warm; fresh) ->
//	CapturePCs; ResolvePCs+Intern on a miss -> ClassifySafe ->
//	CoreMutex.LockT/UnlockT -> dimmunix.Mutex Lock/Unlock
func ladder(w workload, m map[string]float64) {
	rt := w.runtime()
	onClientStack(w, func() {
		var mu sync.Mutex
		m["bare.lock_ns"] = perOp(100000, func(n int) {
			for i := 0; i < n; i++ {
				mu.Lock()
				mu.Unlock()
			}
		})
		var sink uint64
		m["gid.current_ns"] = perOp(2000, func(n int) {
			for i := 0; i < n; i++ {
				sink += gid.Current()
			}
		})
		rt.CurrentThread()
		m["core.current_thread_ns"] = perOp(2000, func(n int) {
			for i := 0; i < n; i++ {
				rt.CurrentThread()
			}
		})
		m["core.register_ns"] = freshThreadNS(rt, 1000)

		var pcs [stack.MaxCaptureDepth]uintptr
		depth := rt.Config().StackDepth + 4
		m["stack.capture_ns"] = perOp(20000, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(stack.CapturePCs(0, pcs[:depth]))
			}
		})
		k := stack.CapturePCs(0, pcs[:depth])
		var in *stack.Interned
		var total time.Duration
		const misses = 2000
		for i := 0; i < misses; i++ {
			interner := stack.NewInterner()
			t0 := time.Now()
			in = interner.Intern(stack.ResolvePCs(pcs[:k], depth))
			total += time.Since(t0)
		}
		m["stack.intern_ns"] = float64(total.Nanoseconds()) / misses

		cache := avoidance.NewCache(avoidance.Config{Mode: avoidance.ModeFull}, stack.NewInterner(),
			rt.History(), &avoidance.Stats{}, func(event.Event) {})
		m["avoidance.classify_ns"] = perOp(20000, func(n int) {
			for i := 0; i < n; i++ {
				in.SetMarker(0, false) // force a classification, not a marker hit
				if cache.ClassifySafe(in) {
					sink++
				}
			}
		})

		th := rt.RegisterThread("ladder")
		cm := rt.NewMutex()
		m["core.lockt_ns"] = perOp(5000, func(n int) {
			for i := 0; i < n; i++ {
				_ = cm.LockT(th)
				_ = cm.UnlockT(th)
			}
		})
		th.Close()

		var fm dimmunix.Mutex
		m["facade.lock_ns"] = perOp(2000, func(n int) {
			for i := 0; i < n; i++ {
				fm.Lock()
				fm.Unlock()
			}
		})
		var frw dimmunix.RWMutex
		m["facade.rlock_ns"] = perOp(2000, func(n int) {
			for i := 0; i < n; i++ {
				frw.RLock()
				frw.RUnlock()
			}
		})
		ladderSink.Add(sink)
	})
}

var ladderSink atomic.Uint64

// siteRequest is a one-off request that runs fn at the workload's call
// site.
type siteRequest struct {
	workload
	fn func()
}

func (s siteRequest) request(*client) error {
	s.site(s.fn)
	return nil
}

// onClientStack runs fn on a new goroutine through the clients' own loop
// and the workload's site, so the ladder sees the stack the workload's
// lock calls see.
func onClientStack(w workload, fn func()) {
	var stop atomic.Bool
	stop.Store(true) // one request
	waitClients(startClients(siteRequest{w, fn}, []*client{newClient(0, 0, false)}, &stop, nil), "ladder")
}

// perOp times body over n iterations five times and returns the median
// per-iteration time in nanoseconds.
func perOp(n int, body func(n int)) float64 {
	body(n / 10) // warm
	xs := make([]float64, 5)
	for i := range xs {
		t0 := time.Now()
		body(n)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// freshThreadNS is the mean cost of CurrentThread on a goroutine that has
// never locked: the registration every goroutine-per-request server pays.
func freshThreadNS(rt *dimmunix.Runtime, n int) float64 {
	ch := make(chan time.Duration)
	var total time.Duration
	for i := 0; i < n; i++ {
		go func() {
			t0 := time.Now()
			rt.CurrentThread()
			ch <- time.Since(t0)
		}()
		total += <-ch
	}
	return float64(total.Nanoseconds()) / float64(n)
}
