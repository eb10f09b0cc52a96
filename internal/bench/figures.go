package bench

import (
	"fmt"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/serverapp"
	"dimmunix/internal/workload"
)

// Fig4 measures end-to-end overhead on the simulated JBoss/RUBiS and
// MySQL/JDBCBench servers as history size grows (32..128 signatures).
func Fig4(s Scale) Report {
	rep := Report{
		ID:     "fig4",
		Title:  "End-to-end overhead vs history size (server simulators)",
		Header: []string{"Profile", "Signatures", "Base req/s", "Dimmunix req/s", "Overhead", "Avg lat base", "Avg lat dmx"},
	}
	dur := 400 * time.Millisecond
	if s.Full {
		dur = 3 * time.Second
	}
	profiles := []serverapp.Profile{serverapp.RUBiS(), serverapp.JDBCBench()}
	if !s.Full {
		// Quick mode trims the pools so CI-sized machines finish fast.
		profiles[0].Workers = 64
		profiles[1].Workers = 16
	}
	for _, p := range profiles {
		// Baseline: Dimmunix off (best of two runs).
		baseRT := core.MustNew(core.Config{Mode: core.ModeOff})
		baseSrv := serverapp.New(baseRT, p)
		base := baseSrv.Run(dur)
		if again := baseSrv.Run(dur); again.Throughput > base.Throughput {
			base = again
		}
		baseRT.Stop()

		for _, h := range []int{32, 64, 128} {
			rt := core.MustNew(core.Config{Tau: 50 * time.Millisecond})
			srv := serverapp.New(rt, p)
			srv.Run(dur / 4) // warmup: populate the stack interner
			hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), h, 2, 4, int64(h))
			if err == nil {
				rt.History().Merge(hist)
			}
			res := srv.Run(dur)
			if again := srv.Run(dur); again.Throughput > res.Throughput {
				res = again
			}
			rt.Stop()
			rep.Rows = append(rep.Rows, []string{
				p.Name, itoa(h),
				f1(base.Throughput), f1(res.Throughput),
				pct(overhead(base.Throughput, res.Throughput)),
				base.AvgLatency.Round(time.Microsecond).String(),
				res.AvgLatency.Round(time.Microsecond).String(),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: max overhead 2.6% (JBoss/RUBiS) and 7.17% (MySQL/JDBCBench) for up to 128 signatures",
		"paper: no statistically meaningful drop in response time",
	)
	return rep
}

// Fig5 sweeps the thread count at 64 sigs, siglen 2, 8 locks, din=1us,
// dout=1ms, reporting lock throughput and yields/s.
func Fig5(s Scale) Report {
	rep := Report{
		ID:     "fig5",
		Title:  "Lock throughput vs number of threads (64 sigs, 8 locks, din=1us, dout=1ms)",
		Header: []string{"Threads", "Baseline ops/s", "Dimmunix ops/s", "Overhead", "Yields/s"},
	}
	threads := []int{2, 8, 32, 64, 128}
	if s.Full {
		threads = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	for _, n := range threads {
		base := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, mode: core.ModeOff, reps: 2})
		dmx := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, hist: 64, reps: 2})
		rep.Rows = append(rep.Rows, []string{
			itoa(n),
			f1(base.Throughput), f1(dmx.Throughput),
			pct(overhead(base.Throughput, dmx.Throughput)),
			f1(dmx.YieldsPerS),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper (8-core): overhead 0.6-4.5% (pthreads), 6.5-17.5% (Java); throughput roughly flat to 1024 threads",
	)
	return rep
}

// Fig6 sweeps din (dout=1ms) and dout (din=1us) at 64 threads.
func Fig6(s Scale) Report {
	rep := Report{
		ID:     "fig6",
		Title:  "Lock throughput vs din and dout (64 threads, 8 locks, 64 sigs)",
		Header: []string{"Sweep", "Delay", "Baseline ops/ms", "Dimmunix ops/ms", "Overhead"},
	}
	deltas := []time.Duration{0, time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
	for _, d := range deltas {
		base := runPoint(s, pointOpts{din: d, dout: time.Millisecond, mode: core.ModeOff})
		dmx := runPoint(s, pointOpts{din: d, dout: time.Millisecond, hist: 64})
		rep.Rows = append(rep.Rows, []string{
			"din (dout=1ms)", d.String(),
			f2(base.Throughput / 1000), f2(dmx.Throughput / 1000),
			pct(overhead(base.Throughput, dmx.Throughput)),
		})
	}
	for _, d := range deltas {
		base := runPoint(s, pointOpts{din: time.Microsecond, dout: d, mode: core.ModeOff})
		dmx := runPoint(s, pointOpts{din: time.Microsecond, dout: d, hist: 64})
		rep.Rows = append(rep.Rows, []string{
			"dout (din=1us)", d.String(),
			f2(base.Throughput / 1000), f2(dmx.Throughput / 1000),
			pct(overhead(base.Throughput, dmx.Throughput)),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: overhead highest at din=dout=0 and absorbed as the delays grow (>=1ms inter-critical-section gaps => modest overhead)",
	)
	return rep
}

// Fig7 sweeps history size 2..256 at matching depths 4 and 8.
func Fig7(s Scale) Report {
	rep := Report{
		ID:     "fig7",
		Title:  "Lock throughput vs history size and matching depth (64 threads, 8 locks, din=1us, dout=1ms)",
		Header: []string{"Signatures", "Baseline ops/s", "Depth4 ops/s", "Depth8 ops/s", "Ovh d4", "Ovh d8"},
	}
	sizes := []int{2, 16, 64, 256}
	if s.Full {
		sizes = []int{2, 4, 8, 16, 32, 64, 128, 256}
	}
	base := runPoint(s, pointOpts{din: time.Microsecond, dout: time.Millisecond, mode: core.ModeOff, reps: 2})
	for _, h := range sizes {
		d4 := runPoint(s, pointOpts{din: time.Microsecond, dout: time.Millisecond, hist: h, sigDepth: 4, reps: 2})
		d8 := runPoint(s, pointOpts{din: time.Microsecond, dout: time.Millisecond, hist: h, sigDepth: 8, reps: 2})
		rep.Rows = append(rep.Rows, []string{
			itoa(h),
			f1(base.Throughput), f1(d4.Throughput), f1(d8.Throughput),
			pct(overhead(base.Throughput, d4.Throughput)),
			pct(overhead(base.Throughput, d8.Throughput)),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: overhead roughly constant across history sizes 2-256 and depths 4 vs 8 (history search is a negligible overhead component)",
	)
	return rep
}

// Fig8 breaks the overhead down: instrumentation only, + data-structure
// updates, full avoidance.
func Fig8(s Scale) Report {
	rep := Report{
		ID:     "fig8",
		Title:  "Breakdown of overhead (64 sigs, 8 locks, din=1us, dout=1ms)",
		Header: []string{"Threads", "Instrumentation", "+Data structures", "Full avoidance"},
	}
	threads := []int{8, 32, 64, 128}
	if s.Full {
		threads = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	for _, n := range threads {
		base := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, mode: core.ModeOff, reps: 2})
		inst := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, mode: core.ModeInstrument, reps: 2})
		ds := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, mode: core.ModeDataStructs, reps: 2})
		full := runPoint(s, pointOpts{threads: n, din: time.Microsecond, dout: time.Millisecond, hist: 64, reps: 2})
		rep.Rows = append(rep.Rows, []string{
			itoa(n),
			pct(overhead(base.Throughput, inst.Throughput)),
			pct(overhead(base.Throughput, ds.Throughput)),
			pct(overhead(base.Throughput, full.Throughput)),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper (Java): the bulk of the overhead comes from data-structure lookups and updates",
	)
	return rep
}

// Fig9 sweeps the matching depth 1..10 with a depth-10 probe classifying
// avoidances as false positives, and compares against the gate-lock and
// ghost-lock baselines (din=dout=1ms, 64 threads, 8 locks, 64 sigs).
func Fig9(s Scale) Report {
	rep := Report{
		ID:     "fig9",
		Title:  "False-positive overhead vs matching depth; gate/ghost-lock comparison",
		Header: []string{"Config", "ops/s", "Overhead vs base", "Yields", "Probe FPs"},
	}
	const D = 10
	o := func(depth int) pointOpts {
		return pointOpts{
			din: time.Millisecond, dout: time.Millisecond,
			hist: 64, sigDepth: depth, probeDepth: D,
			seed: 17,
		}
	}
	base := runPoint(s, pointOpts{din: time.Millisecond, dout: time.Millisecond, mode: core.ModeOff})
	// Dimmunix's own overhead, without any false positives: decisions
	// ignored (§7.3 methodology).
	noFP := runPoint(s, pointOpts{din: time.Millisecond, dout: time.Millisecond, hist: 64, sigDepth: 1, ignore: true})
	rep.Rows = append(rep.Rows, []string{"baseline (off)", f1(base.Throughput), "-", "-", "-"})
	rep.Rows = append(rep.Rows, []string{"dimmunix, decisions ignored", f1(noFP.Throughput), pct(overhead(base.Throughput, noFP.Throughput)), "-", "-"})

	depths := []int{1, 2, 4, 8, 10}
	if s.Full {
		depths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	for _, k := range depths {
		res := runPoint(s, o(k))
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("dimmunix, match depth %d", k),
			f1(res.Throughput),
			pct(overhead(base.Throughput, res.Throughput)),
			utoa(res.Yields),
			utoa(res.ProbeFPs),
		})
	}

	gops, gates := runGateLockPoint(s)
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("gate locks (%d gates)", gates.Gates),
		f1(gops),
		pct(overhead(base.Throughput, gops)),
		utoa(gates.Contended), "-",
	})
	hops, ghosts := runGhostLockPoint(s)
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("ghost locks (%d ghosts)", ghosts.Ghosts),
		f1(hops),
		pct(overhead(base.Throughput, hops)),
		utoa(ghosts.Contended), "-",
	})
	rep.Notes = append(rep.Notes,
		"paper: FP overhead decreases as depth grows (61.2% at depth 1, 4.6% at depth>=8, ~0 FPs at depth 10)",
		"paper: gate locks needed 45 gates for 64 deadlocks and cost ~70% overhead with 561,627 FPs — similar to Dimmunix at depth 1",
	)
	return rep
}
