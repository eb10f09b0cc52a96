package main

import (
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear histogram of nanosecond durations: values below
// 64 are exact, larger ones fall in buckets 1/32 of an octave wide (at
// most 3% apart), up to 2^34 ns. It is small enough to keep one per client
// per window, and recording never allocates, so the timed phase's
// allocation counts belong to the code under test.
const subBits = 5

type hist struct {
	counts [(34 - subBits) << subBits]uint32
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	return (exp+1)<<subBits + int(v>>exp) - 1<<subBits
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	exp := i>>subBits - 1
	sub := i&(1<<subBits-1) + 1<<subBits
	return float64(uint64(sub) << exp), float64(uint64(1) << exp)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[min(bucketOf(uint64(ns)), len(h.counts)-1)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside its bucket (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
