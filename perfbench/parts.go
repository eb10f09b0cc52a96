package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// partRecord is what one part of an untraced run measured. A part run in
// a process of its own prints it as its last line.
type partRecord struct {
	Problems  []string    `json:"problems"`
	N         uint64      `json:"n"`
	Failed    uint64      `json:"failed"`
	ElapsedNS int64       `json:"elapsed_ns"`
	CPUNS     int64       `json:"cpu_ns"`
	Mallocs   uint64      `json:"mallocs"`
	Bytes     uint64      `json:"bytes"`
	HeapLive  []float64   `json:"heap_live"`
	Rates     []float64   `json:"rates"`
	Setups    []float64   `json:"setups"`
	Lat       [][2]uint64 `json:"lat"` // request-latency histogram: bucket, count
}

// partEnv marks a process started by spawnPart. The command itself does
// not need it; a test binary uses it to run the benchmark instead of the
// tests.
const partEnv = "PERFBENCH_PART"

// runPart measures one part in this process.
func runPart(o *options, setup setupFunc, out io.Writer) (*partRecord, error) {
	s, err := measure(o, setup, out)
	if err != nil {
		return nil, err
	}
	s.w.close()
	p := s.p
	r := &partRecord{
		Problems:  s.problems,
		N:         p.n,
		Failed:    p.failed,
		ElapsedNS: p.elapsed.Nanoseconds(),
		CPUNS:     p.cpu.Nanoseconds(),
		Mallocs:   p.mallocs,
		Bytes:     p.bytes,
		HeapLive:  p.heapLive,
		Rates:     p.rates,
		Setups:    s.setups,
	}
	for i, c := range p.lat.counts {
		if c != 0 {
			r.Lat = append(r.Lat, [2]uint64{uint64(i), uint64(c)})
		}
	}
	return r, nil
}

// spawnPart runs part i of the run in a new process of this program,
// relays its human-readable lines and returns its record.
func spawnPart(o *options, i int, out, stderr io.Writer) (*partRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	secs := o.seconds / float64(o.parts)
	args := []string{"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0",
		"--part", strconv.Itoa(i), "--scratch", o.scratch}
	if o.fault != "" {
		args = append(args, "--fault", o.fault)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(secs*float64(time.Second))+partSlack)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), partEnv+"=1")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintf(out, "# part %d: %s\n", i, strings.TrimPrefix(last, "# "))
		}
		last = sc.Text()
	}
	if runErr != nil {
		return nil, runErr
	}
	var r partRecord
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("no part record: %w", err)
	}
	return &r, nil
}

// partSlack is how much longer than its timed phase a part may take:
// set-ups, warm-up and process start.
const partSlack = 90 * time.Second

// add pools a part into the run's phase.
func (p *phase) add(r *partRecord) {
	p.n += r.N
	p.failed += r.Failed
	p.elapsed += time.Duration(r.ElapsedNS)
	p.cpu += time.Duration(r.CPUNS)
	p.mallocs += r.Mallocs
	p.bytes += r.Bytes
	p.heapLive = append(p.heapLive, r.HeapLive...)
	p.rates = append(p.rates, r.Rates...)
	for _, bc := range r.Lat {
		if bc[0] < uint64(len(p.lat.counts)) {
			p.lat.counts[bc[0]] += uint32(bc[1])
			p.lat.n += bc[1]
		}
	}
}
