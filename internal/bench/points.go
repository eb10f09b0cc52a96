package bench

import (
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/monitor"
	"dimmunix/internal/workload"
)

// pointOpts configures one microbenchmark measurement point.
type pointOpts struct {
	threads int
	locks   int
	din     time.Duration
	dout    time.Duration

	hist     int // synthesized signatures (0 = empty history)
	sigLen   int
	sigDepth int

	mode       core.Mode
	ignore     bool
	probeDepth int
	calibrate  bool

	dur    time.Duration
	warmup time.Duration
	seed   int64
	// reps re-runs the measurement and keeps the best throughput,
	// suppressing one-off scheduler glitches on small machines.
	reps int
}

func (o *pointOpts) fill(s Scale) {
	if o.locks == 0 {
		o.locks = 8
	}
	if o.threads == 0 {
		o.threads = 64
	}
	if o.sigLen == 0 {
		o.sigLen = 2
	}
	if o.sigDepth == 0 {
		o.sigDepth = 4
	}
	if o.dur == 0 {
		if s.Full {
			o.dur = 2 * time.Second
		} else {
			o.dur = 250 * time.Millisecond
		}
	}
	if o.warmup == 0 {
		if s.Full {
			o.warmup = 400 * time.Millisecond
		} else {
			o.warmup = 150 * time.Millisecond
		}
	}
	if o.seed == 0 {
		o.seed = 1
	}
}

// runPoint builds a runtime + workload for the options and measures one
// run (best of o.reps).
func runPoint(s Scale, o pointOpts) workload.Result {
	o.fill(s)
	if o.reps <= 0 {
		o.reps = 1
	}
	best := runPointOnce(s, o)
	for i := 1; i < o.reps; i++ {
		if r := runPointOnce(s, o); r.Throughput > best.Throughput {
			best = r
		}
	}
	return best
}

func runPointOnce(s Scale, o pointOpts) workload.Result {
	var rt *core.Runtime
	cfg := core.Config{
		Tau:        50 * time.Millisecond,
		Mode:       o.mode,
		MatchDepth: o.sigDepth,
		// StackDepth 12 comfortably covers the paper's D=10 probing.
		StackDepth:      12,
		IgnoreDecisions: o.ignore,
		ProbeDepth:      o.probeDepth,
		Calibrate:       o.calibrate,
		MaxYield:        50 * time.Millisecond,
		OnDeadlock: func(info monitor.DeadlockInfo) {
			rt.AbortThreads(info.ThreadIDs...)
		},
	}
	rt = core.MustNew(cfg)
	defer rt.Stop()

	r := workload.NewRunner(rt, workload.Config{
		Threads:  o.threads,
		Locks:    o.locks,
		DIn:      o.din,
		DOut:     o.dout,
		Duration: o.dur,
		Seed:     o.seed,
	})
	if o.hist > 0 && o.mode != core.ModeOff {
		r.Warmup(o.warmup)
		hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), o.hist, o.sigLen, o.sigDepth, o.seed+99)
		if err == nil {
			rt.History().Merge(hist)
		}
	} else if o.mode != core.ModeOff {
		r.Warmup(o.warmup / 3)
	}
	return r.Run()
}
