// Package leakcheck fails a package's test binary when its tests leave
// goroutines running. Every goroutine a component starts must have an
// owner that joins it, so a leak means a test skipped its owner's
// shutdown call or a component cannot be shut down at all. Use it as
// the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleWithin bounds the wait for goroutines already on their way out,
// such as the read loop of a connection that was just closed.
const settleWithin = 5 * time.Second

// Main runs the tests, then waits up to settleWithin for the goroutine
// count to fall back to its count before the tests. If it does not, Main
// prints every goroutine's stack and exits 1.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settled(before) {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines running after the tests, %d before:\n%s\n",
			runtime.NumGoroutine(), before, stacks())
		code = 1
	}
	os.Exit(code)
}

func settled(before int) bool {
	deadline := time.Now().Add(settleWithin)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// stacks returns the stacks of all goroutines.
func stacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
