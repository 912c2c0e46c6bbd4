package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/lang"
	"idemproc/internal/machine"
	"idemproc/internal/server"
	"idemproc/internal/verify"
)

// replayCounts are the exact work counts the layer replay records.
type replayCounts struct {
	cuts, staticInstrs, spills    int64
	regions, violations           int64
	dyn, recoveries, injectedRuns int64
	artifactBytes, encodes        int64
	ops, failed                   int
	errs                          []string
}

// replayer re-executes, from the benchmark's own code and one call at a
// time, the layer calls the service makes for each op of the sequence,
// with a span around each call. Its cache mirrors the service's (same
// bound, same verify mode, its own store), so each build takes the tier
// it takes in the service: a memory hit, a disk hit (decode, re-verify,
// predecode) or a fresh compile (frontend, region construction,
// backend, verify, encode when a store is configured, predecode).
type replayer struct {
	tr *tracer
	or *oracle
	lc *buildcache.Cache
	n  replayCounts
}

func replay(ctx context.Context, wl *workloadDef, seed uint64, or *oracle, tr *tracer, scratch string) (replayCounts, error) {
	r := &replayer{tr: tr, or: or}
	keys := wl.warmup(seed, or.golden)
	// The service's own handler runs each op first, so the share of its
	// time the layers take compares calls made back to back. One batch
	// worker makes it run a batch's units one after another, as the
	// replay does.
	s, err := boot(wl, scratch, nil, 1)
	if err != nil {
		return r.n, err
	}
	defer func() {
		release(s.srv.Cache(), keys)
		s.close()
	}()
	if err := s.warmup(ctx, or, keys); err != nil {
		return r.n, err
	}
	dir := ""
	if wl.cacheDir {
		d, err := os.MkdirTemp(scratch, "replay-store-")
		if err != nil {
			return r.n, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	r.lc = buildcache.NewBoundedDisk(wl.cacheBytes, dir)
	r.lc.SetVerifyMode(buildcache.VerifyFull)
	defer func() { release(r.lc, keys) }()
	for _, u := range keys {
		if _, _, err := r.lc.Compile(ctx, u.buildWorkload(), u.mo()); err != nil {
			return r.n, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	seq := &sequence{src: wl.source(seed, or.golden)}
	for i := 0; i < wl.replayOps; i++ {
		o := seq.next()
		keys = append(keys, o.units...)
		req := int64(o.idx + 1)
		root := tr.start("replay."+opNames[o.kind], 0, req)
		errs := []error{r.handle(s.srv.Handler(), root.id(), req, &o)}
		for _, u := range o.units {
			errs = append(errs, r.unit(ctx, root.id(), req, u))
		}
		root.end()
		// Land the write-behind of the op's fresh compiles before the
		// next op, outside every span, so whether an evicted key comes
		// back from disk or is compiled afresh depends on the sequence
		// alone and the counts repeat exactly.
		for _, c := range []*buildcache.Cache{r.lc, s.srv.Cache()} {
			if d := c.Disk(); d != nil {
				if err := d.Flush(ctx); err != nil {
					return r.n, err
				}
			}
		}
		r.n.ops++
		if err := errors.Join(errs...); err != nil {
			r.n.failed++
			if len(r.n.errs) < 5 {
				r.n.errs = append(r.n.errs, fmt.Sprintf("replay op %d: %v", o.idx, err))
			}
		}
	}
	return r.n, nil
}

// handle times the service handler on o's request (its /v1/batch call,
// for a job) into an in-memory recorder and checks the response.
func (r *replayer) handle(h http.Handler, parent, req int64, o *op) error {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, o.path(), bytes.NewReader(o.body))
	s := r.tr.start("replay.handler", parent, req)
	h.ServeHTTP(rec, hr)
	s.end()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: %d %s", o.path(), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	_, err := r.or.check(o, rec.Body.Bytes())
	return err
}

func (r *replayer) unit(ctx context.Context, parent, req int64, u unit) error {
	w, mo := u.buildWorkload(), u.mo()
	before := r.lc.Stats()
	a := r.tr.start("buildcache.lookup", parent, req)
	p, bs, err := r.lc.Compile(ctx, w, mo)
	a.stop()
	after := r.lc.Stats()
	if err != nil {
		return err
	}
	switch {
	case after.Hits > before.Hits:
		a.s.Name = "buildcache.hit"
		a.commit()
	case after.DiskHits > before.DiskHits:
		a.commit()
		data := codegen.EncodeProgram(p, bs)
		s := r.tr.start("codegen.decode", parent, req)
		q, _, err := codegen.DecodeProgram(data)
		s.end()
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		r.verify(parent, req, q, mo)
		r.predecode(parent, req, q)
	default:
		a.commit()
		if err := r.compile(parent, req, u, mo); err != nil {
			return err
		}
	}
	if !u.simulate {
		rep := server.ReportForBuild(w, mo, bs)
		rep.Verified = r.lc.Verified(w, mo)
		return r.or.checkCompile(u, rep)
	}
	return r.simulate(parent, req, u, p)
}

// compile runs the fresh-compile path layer by layer.
func (r *replayer) compile(parent, req int64, u unit, mo codegen.ModuleOptions) error {
	w := u.buildWorkload()
	s := r.tr.start("lang.compile", parent, req)
	_, err := lang.Compile(w.Source)
	s.end()
	if err != nil {
		return err
	}
	if mo.Idempotent {
		m := w.Module()
		s = r.tr.start("core.construct", parent, req)
		opts := mo.Core
		if mo.PureCalls {
			opts.PureFuncs = core.PureFunctions(m)
		}
		for _, f := range m.Funcs {
			if opts.PureFuncs[f.Name] {
				continue
			}
			res, err := core.Construct(f, opts)
			if err != nil {
				s.end()
				return fmt.Errorf("construct %s: %w", f.Name, err)
			}
			r.n.cuts += int64(len(res.Cuts))
		}
		s.end()
	}
	m := w.Module()
	s = r.tr.start("codegen.compile_module", parent, req)
	p, st, err := codegen.CompileModuleOpts(m, "main", w.MemWords, mo)
	s.end()
	if err != nil {
		return err
	}
	r.n.staticInstrs += int64(st.StaticInstrs)
	r.n.spills += int64(st.SpillLoads + st.SpillStores)
	r.verify(parent, req, p, mo)
	if r.lc.Disk() != nil {
		s = r.tr.start("codegen.encode", parent, req)
		data := codegen.EncodeProgram(p, st)
		s.end()
		r.n.artifactBytes += int64(len(data))
		r.n.encodes++
	}
	r.predecode(parent, req, p)
	return nil
}

// verify runs the validator where the service's full mode does: on
// every program that carries region marks.
func (r *replayer) verify(parent, req int64, p *codegen.Program, mo codegen.ModuleOptions) {
	if p.Marks == 0 || mo.RelaxedAlloc {
		return
	}
	s := r.tr.start("verify.verify", parent, req)
	rep := verify.Verify(p)
	s.end()
	r.n.regions += int64(rep.Regions)
	r.n.violations += int64(len(rep.Violations))
}

// predecode decodes a program the replay owns and drops the memo again.
func (r *replayer) predecode(parent, req int64, p *codegen.Program) {
	s := r.tr.start("machine.predecode", parent, req)
	machine.Predecode(p)
	s.end()
	machine.DropPredecode(p)
}

// simulate mirrors the service's simulate path on the cached build p.
func (r *replayer) simulate(parent, req int64, u unit, p *codegen.Program) error {
	id, apply, cfg := schemeConfig(u.scheme)
	prog := p
	if apply {
		s := r.tr.start("fault.apply", parent, req)
		prog = fault.Apply(p, id)
		s.end()
		defer machine.DropPredecode(prog)
		s = r.tr.start("machine.predecode", parent, req)
		machine.Predecode(prog)
		s.end()
	}
	cfg.TrackPaths = u.scheme == "idem"
	cfg.Cache = machine.DefaultCache()
	cfg.MaxSteps = 1 << 28
	if len(u.injs) > 0 {
		cfg.WatchdogRef = u.watchdog
	}
	s := r.tr.start("machine.run."+u.scheme, parent, req)
	m := machine.New(prog, cfg)
	for _, is := range u.injs {
		ms, err := fault.ParseModels(is.Model)
		if err != nil || len(ms) != 1 {
			s.end()
			return fmt.Errorf("injection model %q", is.Model)
		}
		fault.Arm(m, fault.Injection{Model: ms[0], Step: is.Step, Mask: is.Mask,
			Addr: is.Addr, After: is.After, NestedMask: is.NestedMask})
	}
	r0, runErr := m.Run(u.w.Args...)
	s.s.Count = m.Stats.DynInstrs
	s.end()
	r.n.dyn += m.Stats.DynInstrs
	if len(u.injs) > 0 {
		r.n.injectedRuns++
		r.n.recoveries += m.Stats.Recoveries
	}
	rep := &server.SimulateReport{Workload: u.w.Name, Scheme: u.scheme, Result: r0,
		Digest: m.Snapshot(r0, runErr)}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	return r.or.checkSimulate(u, rep)
}

// schemeConfig maps a scheme to its instrumentation and machine
// configuration, as the service does.
func schemeConfig(name string) (fault.Scheme, bool, machine.Config) {
	var cfg machine.Config
	switch name {
	case "dmr":
		return fault.SchemeDMR, true, cfg
	case "tmr":
		cfg.Recovery = machine.RecoverTMR
		return fault.SchemeTMR, true, cfg
	case "cl":
		cfg.Recovery = machine.RecoverCheckpointLog
		return fault.SchemeCheckpointLog, true, cfg
	case "idem":
		cfg.Recovery = machine.RecoverIdempotence
		cfg.BufferStores = true
		return fault.SchemeIdempotence, true, cfg
	}
	return 0, false, cfg
}
