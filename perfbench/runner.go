package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix"
)

// workload is one closed-loop benchmark over a dimmunix runtime.
type workload interface {
	// request serves one request for client c; an error marks it failed.
	request(c *client) error
	// check verifies the workload's invariants once its clients stopped.
	check() error
	// verify checks the runtime counters of the timed phase (warm-up
	// included) against what the workload must produce.
	verify(before, after dimmunix.Stats) error
	// site runs fn from the depth of the workload's own lock call sites.
	site(fn func())
	// corrupt breaks an invariant on purpose (fault injection).
	corrupt()
	runtime() *dimmunix.Runtime
	close()
}

// setupFunc builds a fresh workload; its duration is the set-up time.
type setupFunc func(e *env) (workload, error)

var workloads = map[string]setupFunc{
	"churn":  setupChurn,
	"pool":   setupPool,
	"immune": setupImmune,
}

// env is what a set-up gets to work with.
type env struct {
	*options
	clients int
	rep     int       // set-up repetition index
	rec     *recorder // non-nil in a traced run
	detects []float64 // immune: detection lag of each set-up's forced inversion, ms
}

const (
	setupsPerPart = 6                      // set-ups per process; setup_s is the median over all of a run's
	setupGap      = 20 * time.Millisecond  // between set-ups, so the closed instance's goroutines are gone
	slowRequest   = 2 * time.Second        // a request this slow counts as failed
	hangDeadline  = 30 * time.Second       // clients still running this long after stop abort the run
	monitorPeriod = 100 * time.Millisecond // external monitor passes in a traced run (the default τ)
)

// client is one closed-loop request generator.
type client struct {
	id    int
	rng   *rand.Rand
	fault bool // inject a failing lock operation every 64th request

	win     []window // timed-phase statistics, by window
	tr      bool     // the current request is traced
	req     uint64
	lockLat *hist
	spans   []span
	_       cacheLinePad
}

// cacheLinePad keeps per-client state that two clients write from sharing
// a cache line: the benchmark must not add contention of its own.
type cacheLinePad [128]byte

// window holds one client's requests in one window of the timed phase.
type window struct {
	n, failed uint64
	lat       hist
}

// clock tells clients which timed-phase window is running and whether it
// is traced.
type clock struct {
	idx    atomic.Int32
	traced atomic.Bool
}

func newClient(id int, seed uint64, fault bool) *client {
	return &client{id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)+1)), fault: fault}
}

// start returns a span start time, or 0 when the request is untraced.
func (c *client) start() int64 {
	if !c.tr {
		return 0
	}
	return nanotime()
}

// span records a lock-call span of the current request.
func (c *client) span(kind spanKind, t0 int64) {
	if !c.tr {
		return
	}
	end := nanotime()
	c.lockLat.record(end - t0)
	if len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, span{req: c.req, kind: kind, start: t0, end: end})
	}
}

// loop runs requests until stop is set; it always runs at least one. The
// immune workload's forced inversion runs through this same loop so that
// its call stacks equal the timed phase's.
//
//go:noinline
func (c *client) loop(w workload, stop *atomic.Bool, clk *clock, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		wi := int32(-1)
		if clk != nil {
			wi = clk.idx.Load()
			c.tr = clk.traced.Load()
		}
		c.req++
		t0 := nanotime()
		err := c.serve(w)
		end := nanotime()
		if wi >= 0 {
			win := &c.win[wi]
			win.n++
			win.lat.record(end - t0)
			if err != nil || time.Duration(end-t0) > slowRequest {
				win.failed++
			}
			if c.tr && len(c.spans) < cap(c.spans) {
				c.spans = append(c.spans, span{req: c.req, kind: spanRequest, start: t0, end: end})
			}
		}
		if stop.Load() {
			return
		}
		// Hand the processor back between requests, as a request arriving
		// from the network would be scheduled afresh: without it, a wake-up
		// handoff can leave both clients sharing one processor for a whole
		// run, and immune then settles in either of two regimes.
		runtime.Gosched()
	}
}

// serve runs one request, turning a panic into a failed request.
//
//go:noinline
func (c *client) serve(w workload) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if c.fault && c.req%64 == 0 {
		var m dimmunix.Mutex
		m.Unlock() // panics: Unlock of unlocked Mutex
	}
	return w.request(c)
}

// startClients launches one loop per client.
func startClients(w workload, cs []*client, stop *atomic.Bool, clk *clock) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go c.loop(w, stop, clk, &wg)
	}
	return &wg
}

// waitClients waits for the clients; a hang ends the process, since no
// result can be trusted after it.
func waitClients(wg *sync.WaitGroup, what string) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(hangDeadline):
		fmt.Fprintf(os.Stderr, "perfbench: %s: clients hung\n", what)
		os.Exit(3)
	}
}

// windowLen is the length of one timed-phase window. The live heap is
// sampled at the end of every window; in a traced run the windows
// alternate between untraced and traced requests, so the tracing overhead
// is measured side by side.
const windowLen = 500 * time.Millisecond

// winStat is what one window measured, over all clients.
type winStat struct {
	n   uint64
	dur time.Duration
	p99 float64 // ns
}

// phase is what one timed phase measured.
type phase struct {
	elapsed   time.Duration
	n, failed uint64
	lat       hist // request latency, all windows
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	heapLive  []float64 // live heap at each window's end, as the last GC marked it
	rates     []float64 // each window's throughput, requests per second
	wins      []winStat
	lockLat   hist
}

// runPhase runs all clients closed-loop for d, split into an even number
// of windows; in a traced run the odd windows are traced.
func runPhase(w workload, cs []*client, d time.Duration, traced bool) *phase {
	nw := 2 * max(1, int((d+windowLen)/(2*windowLen)))
	for _, c := range cs {
		c.win = make([]window, nw)
	}
	p := &phase{wins: make([]winStat, nw)}
	// The live heap as the most recent GC marked it: cheap to read, and no
	// collection is forced inside the timed phase.
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var clk clock
	var stop atomic.Bool
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	last := t0
	wg := startClients(w, cs, &stop, &clk)
	for i := 0; i < nw; i++ {
		time.Sleep(time.Until(t0.Add(d * time.Duration(i+1) / time.Duration(nw))))
		if next := i + 1; next < nw {
			clk.traced.Store(traced && next%2 == 1)
			clk.idx.Store(int32(next))
		} else {
			stop.Store(true)
		}
		now := time.Now()
		p.wins[i].dur = now.Sub(last)
		last = now
		metrics.Read(heap)
		p.heapLive = append(p.heapLive, float64(heap[0].Value.Uint64()))
	}
	waitClients(wg, "timed phase")
	p.elapsed = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i := range p.wins {
		var h hist
		for _, c := range cs {
			h.merge(&c.win[i].lat)
			p.wins[i].n += c.win[i].n
			p.failed += c.win[i].failed
		}
		p.lat.merge(&h)
		p.n += p.wins[i].n
		p.wins[i].p99 = h.quantile(0.99)
		p.rates = append(p.rates, float64(p.wins[i].n)/p.wins[i].dur.Seconds())
	}
	for _, c := range cs {
		if c.lockLat != nil {
			p.lockLat.merge(c.lockLat)
		}
	}
	return p
}

// sums adds up the requests and durations of the even (untraced) and odd
// windows.
func (p *phase) sums() (nEven, nOdd uint64, tEven, tOdd time.Duration) {
	for i, w := range p.wins {
		if i%2 == 0 {
			nEven, tEven = nEven+w.n, tEven+w.dur
		} else {
			nOdd, tOdd = nOdd+w.n, tOdd+w.dur
		}
	}
	return
}

// warm runs the clients untimed so caches fill and lazy set-up finishes.
func warm(w workload, cs []*client, d time.Duration) {
	var stop atomic.Bool
	wg := startClients(w, cs, &stop, nil)
	time.Sleep(d)
	stop.Store(true)
	waitClients(wg, "warm-up")
}

func warmupFor(seconds float64) time.Duration {
	d := time.Duration(seconds * 0.2 * float64(time.Second))
	return min(max(d, 50*time.Millisecond), 2*time.Second)
}

// session is one process's set-ups and timed phase; its workload stays
// open until the caller closes it.
type session struct {
	e             *env
	w             workload
	cs            []*client
	p             *phase
	setups        []float64 // seconds
	before, after dimmunix.Stats
	problems      []string
}

// measure sets the workload up setupsPerPart times, warms the last
// instance, runs the timed phase on it and checks the outcome.
func measure(o *options, setup setupFunc, out io.Writer) (*session, error) {
	e := &env{options: o, clients: runtime.NumCPU()}
	if o.trace {
		e.rec = newRecorder()
	}
	s := &session{e: e}
	for i := 0; i < setupsPerPart; i++ {
		if s.w != nil {
			s.w.close()
			time.Sleep(setupGap)
		}
		runtime.GC() // the previous instance's garbage is not this set-up's work
		e.rep = i
		t0 := time.Now()
		w, err := setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		s.w = w
	}
	w := s.w
	if o.fault == "invariant" {
		w.corrupt()
	}
	rt := w.runtime()

	s.cs = make([]*client, e.clients)
	for i := range s.cs {
		s.cs[i] = newClient(i, o.seed, o.fault == "lockerr")
		// Each part of a run draws its own request stream from the seed.
		s.cs[i].rng = rand.New(rand.NewPCG(o.seed, uint64(max(o.part, 0))<<32|uint64(i)+1))
	}
	var drv *driver
	if o.trace {
		drv = startDriver(rt, e.rec)
	}
	warm(w, s.cs, warmupFor(o.seconds))
	s.before = rt.Stats()
	if o.trace {
		e.rec.recording.Store(true)
		for _, c := range s.cs {
			c.lockLat = &hist{}
			c.spans = make([]span, 0, spansPerClient)
		}
	}
	s.p = runPhase(w, s.cs, time.Duration(o.seconds*float64(time.Second)), o.trace)
	if o.trace {
		e.rec.recording.Store(false)
		drv.stop()
	}
	rt.Monitor().Pass() // drain the events of the last requests
	s.after = rt.Stats()

	for _, err := range []error{w.check(), w.verify(s.before, s.after)} {
		if err != nil {
			s.problems = append(s.problems, err.Error())
		}
	}
	if s.after.EventsDropped != 0 {
		s.problems = append(s.problems, fmt.Sprintf("obs.events_dropped = %d, want 0", s.after.EventsDropped))
	}

	p, before, after := s.p, s.before, s.after
	fmt.Fprintf(out, "# %d requests in %.3fs, %d failed; per request: %.3f acquisitions, %.3f guarded, %.3f yields, %.3f events; %d epoch bumps, %d true / %d false positives\n",
		p.n, p.elapsed.Seconds(), p.failed,
		ratio(after.Acquired-before.Acquired, p.n), ratio(after.GuardedAcquired-before.GuardedAcquired, p.n),
		ratio(after.Yields-before.Yields, p.n), ratio(after.EventsProcessed-before.EventsProcessed, p.n),
		after.HistoryEpoch-before.HistoryEpoch, after.TruePositives-before.TruePositives,
		after.FalsePositives-before.FalsePositives)
	return s, nil
}

// runWorkload runs one workload and reports it. An untraced run is split
// into o.parts parts, each in a process of its own (or in this one when
// there is a single part), and the parts' counts and latency histograms
// are pooled: a process can settle in a scheduling regime of its own for
// its whole life, and several processes per run average that out. A
// traced run is one process.
func runWorkload(o *options, setup setupFunc, out, stderr io.Writer) (*result, error) {
	if o.trace {
		return runTraced(o, setup, out)
	}
	var recs []*partRecord
	for i := 0; i < o.parts; i++ {
		var rec *partRecord
		var err error
		if o.parts == 1 {
			rec, err = runPart(o, setup, out)
		} else {
			rec, err = spawnPart(o, i, out, stderr)
		}
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	p := &phase{}
	var setups []float64
	var problems []string
	for _, r := range recs {
		p.add(r)
		setups = append(setups, r.Setups...)
		problems = append(problems, r.Problems...)
	}
	res := &result{Correct: len(problems) == 0, Attempted: p.n, Failed: p.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "# %s: %d requests in %.3fs over %d parts, failed_frac %.6f (%d failed)\n",
		o.workload, p.n, p.elapsed.Seconds(), len(recs), ratio(p.failed, p.n), p.failed)
	vals := endToEndMetrics(p, setups)
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	printMetrics(out, res, p, len(setups))
	if len(problems) > 0 {
		return res, fmt.Errorf("%w: %s", errIncorrect, strings.Join(problems, "; "))
	}
	return res, nil
}

// runTraced runs the traced variant of a workload in this process and
// derives the per-layer metrics.
func runTraced(o *options, setup setupFunc, out io.Writer) (*result, error) {
	s, err := measure(o, setup, out)
	if err != nil {
		return nil, err
	}
	defer s.w.close()
	p := s.p
	res := &result{Correct: len(s.problems) == 0, Attempted: p.n, Failed: p.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "# %s: %d requests in %.3fs, failed_frac %.6f (%d failed)\n",
		o.workload, p.n, p.elapsed.Seconds(), ratio(p.failed, p.n), p.failed)
	vals := layerMetrics(s.w, s.e, p, s.cs, s.before, s.after)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	printMetrics(out, res, p, len(s.setups))
	if len(s.problems) > 0 {
		return res, fmt.Errorf("%w: %s", errIncorrect, strings.Join(s.problems, "; "))
	}
	return res, nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
func endToEndMetrics(p *phase, setups []float64) map[string]float64 {
	n := max(p.n, 1)
	return map[string]float64{
		"setup_s":             median(setups),
		"req_per_s":           median(p.rates),
		"lat_p50_us":          p.lat.quantile(0.50) / 1e3,
		"cpu_us_per_req":      float64(p.cpu.Nanoseconds()) / 1e3 / float64(n),
		"alloc_bytes_per_req": ratio(p.bytes, n),
		"allocs_per_req":      ratio(p.mallocs, n),
		"heap_live_mb":        median(p.heapLive) / 1e6,
	}
}

func printMetrics(out io.Writer, res *result, p *phase, setups int) {
	defs := endToEnd
	if _, ok := res.Metrics["setup_s"]; !ok {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		note := ""
		switch d.name {
		case "lat_p50_us":
			note = fmt.Sprintf("  (n=%d samples)", p.lat.n)
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", setups)
		case "facade.lock_span_p50_ns", "facade.lock_span_p99_ns":
			note = fmt.Sprintf("  (n=%d spans)", p.lockLat.n)
		}
		fmt.Fprintf(out, "# %-28s %14.4f %s%s\n", d.name, m.Value, d.unit, note)
	}
	if defs[0].name == "setup_s" {
		// Printed, not declared in BENCHMARK.json: the tail flips between
		// regimes from run to run, and failed_frac is 0 on a healthy run.
		fmt.Fprintf(out, "# %-28s %14.4f %s  (n=%d samples beyond it; p99.9 %.2f us)\n", "lat_p99_us",
			p.lat.quantile(0.99)/1e3, "us", p.lat.n/100, p.lat.quantile(0.999)/1e3)
		fmt.Fprintf(out, "# %-28s %14.6f %s  (%d of %d requests)\n", "failed_frac",
			ratio(p.failed, p.n), "ratio", p.failed, p.n)
	}
}

// checks collects the invariants that failed.
type checks []string

func (c *checks) want(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

func (c checks) err() error {
	if len(c) == 0 {
		return nil
	}
	return fmt.Errorf("invariant broken: %s", strings.Join(c, "; "))
}

// fastOnly checks that a non-matching history kept every acquisition on
// the fast tier.
func fastOnly(before, after dimmunix.Stats) error {
	var ck checks
	ck.want(after.GuardedAcquired == before.GuardedAcquired, "%d guarded acquisitions, want 0 (history must not match)",
		after.GuardedAcquired-before.GuardedAcquired)
	ck.want(after.Yields == before.Yields, "%d yields, want 0 (history must not match)", after.Yields-before.Yields)
	return ck.err()
}
