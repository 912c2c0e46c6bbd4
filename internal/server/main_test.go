package server

import (
	"context"
	"testing"
	"time"

	"idemproc/internal/leakcheck"
)

// TestMain fails the package's tests if they leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// newServer builds a server whose drain the test's cleanup runs, so its
// job runners and reaper are joined before the leak check.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}
