// The daemon process lifecycle idemd and idemfront share: listen, write
// the address file, serve, drain on the first signal, force-close and
// exit 3 on a second one.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// ExitHardStop is the exit code of a forced shutdown (a second signal
// while draining), distinct from a clean drain (0) and an error (1) so
// supervisors can tell them apart.
const ExitHardStop = 3

// RunOptions are the process-level settings Run takes from the command
// line.
type RunOptions struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// AddrFile, when set, receives the bound address once listening.
	AddrFile string
	// PprofAddr, when set, serves net/http/pprof on a side listener.
	PprofAddr string
	// DrainTimeout bounds how long a drain waits for in-flight requests.
	DrainTimeout time.Duration
	// Stderr receives error lines and the pprof address; lifecycle lines
	// go through Config.Logf, which -quiet silences.
	Stderr io.Writer
	// Signals delivers SIGINT/SIGTERM: the first drains, a second one
	// during the drain forces exit ExitHardStop.
	Signals <-chan os.Signal
}

// Run serves s until a signal arrives, then drains it, and returns the
// process exit code. In-flight requests run to completion (up to
// DrainTimeout); a second signal force-closes every connection, whose
// teardown cancels the request contexts and so preempts any running
// simulation within its poll budget.
func (s *Server) Run(o RunOptions) int {
	name := s.cfg.Name
	fail := func(format string, args ...any) int {
		fmt.Fprintf(o.Stderr, name+": "+format+"\n", args...)
		s.Close()
		return 1
	}
	if o.PprofAddr != "" {
		pa, closePprof, err := servePprof(o.PprofAddr)
		if err != nil {
			return fail("pprof: %v", err)
		}
		defer closePprof()
		// Written even under -quiet: it reports a bound address.
		fmt.Fprintf(o.Stderr, "%s: pprof listening on http://%s/debug/pprof/\n", name, pa)
	}
	l, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return fail("listen: %v", err)
	}
	if o.AddrFile != "" {
		if err := writeAddrFile(o.AddrFile, l.Addr().String()); err != nil {
			l.Close()
			return fail("addr-file: %v", err)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail("serve: %v", err)
		}
		s.Close()
		return 0
	case <-o.Signals:
	}

	// Drain in the background so a second signal can still be heard.
	s.cfg.Logf("%s: draining (timeout %s)", name, o.DrainTimeout)
	drainDone := make(chan int, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
		defer cancel()
		code := 0
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(o.Stderr, "%s: drain: %v\n", name, err)
			code = 1
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(o.Stderr, "%s: serve: %v\n", name, err)
			code = 1
		}
		drainDone <- code
	}()
	select {
	case code := <-drainDone:
		s.cfg.Logf("%s: stopped", name)
		return code
	case <-o.Signals:
		fmt.Fprintf(o.Stderr, "%s: second signal during drain, forcing exit\n", name)
		s.Close()
		return ExitHardStop
	}
}

// writeAddrFile writes then renames, so a polling script never reads a
// partial address.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// servePprof exposes the net/http/pprof handlers on a side listener at
// addr. The handlers never ride the service mux: profiling must not
// widen the traffic-facing surface, and a saturated service port must
// not block a profile grab. It returns the bound address and a closer;
// serve errors after the close are discarded.
func servePprof(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}
