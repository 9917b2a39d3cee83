// Package leakcheck is a stdlib-only goroutine-leak check for tests:
// take a baseline with runtime.NumGoroutine before the code under test
// starts anything, and after it shuts down call Settle, which polls
// until the count falls back to the baseline and, if it never does,
// fails the test with every goroutine's stack.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settle waits up to timeout, polling every 10ms, for the goroutine
// count to fall to baseline or below. On timeout it fails tb with the
// count and a dump of all goroutine stacks.
func Settle(tb testing.TB, baseline int, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n <= baseline {
		return
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	tb.Fatalf("%d goroutine(s) still running after %v, baseline %d:\n%s", n, timeout, baseline, buf)
}
