// Command perfbench is the repository benchmark: closed-loop workloads that
// drive the dimmunix lock path end to end, check their own outputs, and
// print one JSON result line.
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// same workload with spans recorded around every call into a dimmunix layer,
// drives the monitor from outside, measures the per-layer ladder and prints
// the per-layer metrics. See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dimmunix/internal/stack"
)

// gitCommit is stamped by run.sh through -ldflags.
var gitCommit = "unknown"

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // traced-run span file
	fault    string // "", "lockerr" or "invariant" (the benchmark's own tests)
	scratch  string // directory for history stores
	parts    int    // processes an untraced run is split into
	part     int    // >= 0: run only this part and print its record
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit. The two lists below are the ones
// BENCHMARK.json declares, in README.md order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"cpu_us_per_req", "us"},
	{"alloc_bytes_per_req", "B"},
	{"allocs_per_req", "count"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"gid.current_ns", "ns"},
	{"core.register_ns", "ns"},
	{"core.current_thread_ns", "ns"},
	{"core.live_threads_end", "count"},
	{"core.thread_prunes", "count"},
	{"rag.threads", "count"},
	{"stack.capture_ns", "ns"},
	{"stack.intern_ns", "ns"},
	{"avoidance.classify_ns", "ns"},
	{"core.lockt_ns", "ns"},
	{"core.fast_frac", "ratio"},
	{"avoidance.guarded_per_req", "1/req"},
	{"avoidance.yields_per_req", "1/req"},
	{"avoidance.tp_frac", "ratio"},
	{"avoidance.yield_p99_us", "us"},
	{"avoidance.forced_gos", "count"},
	{"avoidance.aborts", "count"},
	{"event.events_per_req", "1/req"},
	{"event.ops_per_batch", "count"},
	{"monitor.pass_p50_us", "us"},
	{"monitor.pass_p99_us", "us"},
	{"monitor.events_per_pass", "count"},
	{"monitor.busy_frac", "ratio"},
	{"monitor.passes", "count"},
	{"monitor.deadlocks", "count"},
	{"rag.locks", "count"},
	{"monitor.detect_ms", "ms"},
	{"signature.epoch_bumps", "count"},
	{"signature.history_sigs", "count"},
	{"histstore.sync_p50_ms", "ms"},
	{"histstore.push_p50_ms", "ms"},
	{"monitor.sync_rounds", "count"},
	{"monitor.sync_errors", "count"},
	{"facade.lock_ns", "ns"},
	{"facade.rlock_ns", "ns"},
	{"facade.lock_span_p50_ns", "ns"},
	{"facade.lock_span_p99_ns", "ns"},
	{"bare.lock_ns", "ns"},
	{"obs.events_dropped", "count"},
	{"trace.untraced_req_per_s", "1/s"},
	{"trace.traced_req_per_s", "1/s"},
	{"trace.untraced_lat_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// defaultParts is how many processes an untraced run is split into.
const defaultParts = 6

// errIncorrect marks a run whose correctness checks failed.
var errIncorrect = errors.New("correctness check failed")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: churn, pool or immune")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>.tsv)")
	fs.StringVar(&o.fault, "fault", "", "inject a fault: lockerr or invariant (for the benchmark's tests)")
	fs.StringVar(&o.scratch, "scratch", ".bench_build/tmp", "directory for the immune workload's history stores")
	fs.IntVar(&o.parts, "parts", defaultParts, "processes an untraced run is split into (1 = this process)")
	fs.IntVar(&o.part, "part", -1, "run one part of an untraced run and print its record (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", o.workload+".tsv")
	}
	spec, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) || o.parts < 1 ||
		(o.fault != "" && o.fault != "lockerr" && o.fault != "invariant") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d, fault %q)\n",
			o.workload, o.seconds, trace, o.fault)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if o.part >= 0 {
		rec, err := runPart(&o, spec, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s part %d: %v\n", o.workload, o.part, err)
			return 1
		}
		line, _ := json.Marshal(rec)
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	envLine, _ := json.Marshal(envStamp(&o))
	fmt.Fprintf(stdout, "# env %s\n", envLine)

	res, err := runWorkload(&o, spec, stdout, stderr)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// envStamp records what a result depends on besides the code: toolchain,
// machine, capture build and inputs.
func envStamp(o *options) map[string]any {
	tags := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				tags = s.Value
			}
		}
	}
	return map[string]any{
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"fp_capture":  stack.FPActive(),
		"build_tags":  tags,
		"git_commit":  gitCommit,
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"parts":       o.parts,
		"trace":       o.trace,
		"stamped_utc": time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
