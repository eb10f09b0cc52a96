package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when a test run
// spawns the parts of a run as processes of their own.
func TestMain(m *testing.M) {
	if os.Getenv(partEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark in-process at a tiny duration and returns its
// exit code, its parsed result line and its whole standard output.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	dir := t.TempDir()
	args = append([]string{"--seed", "1", "--seconds", "0.3", "--parts", "1",
		"--scratch", dir, "--spans", filepath.Join(dir, "spans.tsv")}, args...)
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errOut.String())
	}
	return code, res, out.String()
}

func wantMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, w := range []string{"churn", "pool", "immune"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", w, "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			wantMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			if !strings.Contains(out, `"seed":1`) || !strings.Contains(out, `"fp_capture"`) {
				t.Errorf("environment stamp missing seed or capture build:\n%s", out)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"churn", "pool", "immune"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", w, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			wantMetrics(t, res, perLayer)
			if res.Metrics["trace.spans"].Value == 0 || res.Metrics["monitor.passes"].Value == 0 {
				t.Errorf("no spans or no driven monitor passes:\n%s", out)
			}
		})
	}
	t.Run("immune layers", func(t *testing.T) {
		_, res, out := runBench(t, "--workload", "immune", "--trace", "1")
		for _, name := range []string{"avoidance.yields_per_req", "monitor.detect_ms", "avoidance.guarded_per_req"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0 on immune\n%s", name, res.Metrics[name].Value, out)
			}
		}
	})
}

// A failed lock operation is counted against failed_frac, not dropped.
func TestFaultLockErrorCountsAsFailed(t *testing.T) {
	for _, w := range []string{"churn", "pool"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", w, "--trace", "0", "--fault", "lockerr")
			if code != 0 || !res.Correct {
				t.Fatalf("exit %d, result %+v: failed requests must not fail the run\n%s", code, res, out)
			}
			if res.Failed == 0 || res.Failed >= res.Attempted {
				t.Fatalf("failed %d of %d, want some but not all\n%s", res.Failed, res.Attempted, out)
			}
			if strings.Contains(out, "failed_frac 0.000000") {
				t.Errorf("failed_frac printed as 0:\n%s", out)
			}
		})
	}
}

// A broken invariant fails the run with a nonzero exit.
func TestFaultInvariantFailsRun(t *testing.T) {
	for _, w := range []string{"churn", "pool", "immune"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", w, "--trace", "0", "--fault", "invariant")
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct %v: a broken invariant must fail the run\n%s", code, res.Correct, out)
			}
		})
	}
}

// A run split into parts runs each in a process of its own and pools them;
// a part that breaks an invariant fails the whole run.
func TestParts(t *testing.T) {
	code, res, out := runBench(t, "--workload", "pool", "--trace", "0", "--parts", "2")
	if code != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	wantMetrics(t, res, endToEnd)
	if !strings.Contains(out, "# part 1: ") || !strings.Contains(out, "over 2 parts") {
		t.Errorf("parts not run or not relayed:\n%s", out)
	}
	code, res, out = runBench(t, "--workload", "churn", "--trace", "0", "--parts", "2", "--fault", "invariant")
	if code == 0 || res.Correct {
		t.Fatalf("exit %d, correct %v: a broken invariant in a part must fail the run\n%s", code, res.Correct, out)
	}
}

func TestBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for bad arguments: %s", out.String())
	}
}
