// Package gid extracts goroutine identities.
//
// The Go runtime deliberately hides goroutine IDs, but Dimmunix's
// thread-identity substrate needs one per "application thread" (§5.1's
// thread nodes). The implicit API path obtains it by parsing the header
// line of runtime.Stack ("goroutine N [running]:"), which is stable across
// all Go releases to date. Because the parse costs a stack dump, callers on
// hot paths should prefer the explicit Thread-handle API in internal/core;
// this package exists so the implicit path works at all, and its cost is
// measured by BenchmarkCurrent and by the thread-ID rows of the
// internal/bench ablation.
package gid

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 64); return &b },
}

var prefix = []byte("goroutine ")

// Current returns the current goroutine's ID. It never fails on a
// conforming runtime; if the header cannot be parsed it returns 0, which is
// never a valid goroutine ID.
func Current() uint64 {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	n := runtime.Stack(b, false)
	id := parse(b[:n])
	bufPool.Put(bp)
	return id
}

// parse extracts N from "goroutine N [...".
func parse(b []byte) uint64 {
	if !bytes.HasPrefix(b, prefix) {
		return 0
	}
	b = b[len(prefix):]
	end := bytes.IndexByte(b, ' ')
	if end <= 0 {
		return 0
	}
	id, err := strconv.ParseUint(string(b[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
