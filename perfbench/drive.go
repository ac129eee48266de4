package main

// One round against the shipped daemons: spawn them fresh, create the
// initial sessions (set-up), drive the round's fixed work from the
// closed-loop clients (the measured window), optionally crash and
// recover, then stop everything.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"calibsched/internal/server"
)

// runEnv is where a run finds its binaries and keeps its files.
type runEnv struct {
	bins string // directory holding calibserved and calibgate
	work string // per-run scratch (data dirs), removed by the caller
	logs string // daemon logs and spans, kept after the run
}

// finalSession is a streamed session's end state, checked after the
// measured window.
type finalSession struct {
	id     string
	script *sessionScript
	body   []byte // final GET .../schedule
	after  []byte // the same read after crash recovery (durable-long)
}

// solveCheck is one finished solve, checked after the measured window.
type solveCheck struct {
	req server.SolveRequest
	got server.SolveStatusResponse
}

// roundOut is what one round observed.
type roundOut struct {
	rec      recorder
	setup    time.Duration
	measured time.Duration
	recovery time.Duration
	rssMB    float64
	finals   []finalSession
	solves   []solveCheck
	// crashed marks a round whose daemon was SIGKILLed and restarted;
	// every final then holds its post-recovery read.
	crashed bool
	obs     *daemonObs // traced rounds only
}

// daemonObs holds the daemons' own counters around a traced round.
type daemonObs struct {
	srvCPU, gwCPU       time.Duration
	srvVars0, srvVars1  *debugVars
	spans0, spans1      server.TraceListResponse
	gwSpans0, gwSpans1  server.TraceListResponse
	diskWrite, logGrow  int64
	phases              map[string][]float64
	srvTraces, gwTraces []map[string]float64
	gwMetrics0          []byte
	gwMetrics1          []byte
	dataBytes           int64
	recoveredRecords    float64
	dataDir             string // copy of the post-crash dir for the recover rung
}

// roundOpts selects what a round does beyond the untraced drive.
type roundOpts struct {
	spans   *spanLog // client spans; nil when untraced
	observe bool     // collect daemonObs
	keepDir string   // copy the post-crash data dir here (durable workloads)
	// setupOnly stops after set-up: a cold start-up timed for setup_s.
	setupOnly bool
}

func runRound(ctx context.Context, w *workloadSpec, plan *roundPlan, env *runEnv, tag string, o roundOpts) (out *roundOut, err error) {
	out = &roundOut{}
	var live []*daemon
	defer func() {
		for i := len(live) - 1; i >= 0; i-- {
			live[i].stop()
		}
	}()
	srvArgs := []string{"-addr", "127.0.0.1:0"}
	dataDir := filepath.Join(env.work, tag+"-data")
	if w.durable() {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		srvArgs = append(srvArgs, "-data-dir", dataDir, "-fsync", w.fsync)
	}
	srvLog := filepath.Join(env.logs, tag+"-calibserved.log")

	setupStart := time.Now()
	srv, err := startDaemon(ctx, filepath.Join(env.bins, "calibserved"), "calibserved", srvLog, srvArgs...)
	if err != nil {
		return nil, err
	}
	live = append(live, srv)
	if err := srv.awaitReady(ctx, "/readyz", nil); err != nil {
		return nil, err
	}
	target, gw := srv, (*daemon)(nil)
	if w.gateway {
		gw, err = startDaemon(ctx, filepath.Join(env.bins, "calibgate"), "calibgate",
			filepath.Join(env.logs, tag+"-calibgate.log"), "-addr", "127.0.0.1:0", "-backends", srv.base)
		if err != nil {
			return nil, err
		}
		live = append(live, gw)
		if err := gw.awaitReady(ctx, "/healthz", gatewayReady); err != nil {
			return nil, err
		}
		target = gw
	}
	cls := make([]*client, clients)
	ids := make([][]string, clients)
	for c := range cls {
		cls[c] = newClient(target.base, o.spans)
		cls[c].keep = w.durable()
		defer cls[c].close()
		// The first session exists before the measured window opens.
		if cs := &plan.clients[c]; len(cs.sessions) > 0 {
			id, err := cls[c].create(&cs.sessions[0])
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			ids[c] = append(ids[c], id)
		} else {
			// Open the keep-alive connection outside the window.
			if _, _, err := cls[c].request(opRead, "GET", "/healthz", nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	out.setup = time.Since(setupStart)
	if o.setupOnly {
		return out, nil
	}

	if o.observe {
		out.obs = &daemonObs{}
		if err := out.obs.before(srv, gw, srvLog); err != nil {
			return nil, err
		}
	}
	finals := make([][]finalSession, clients)
	solves := make([][]solveCheck, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			finals[c], solves[c], errs[c] = driveClient(cls[c], &plan.clients[c], ids[c])
		}(c)
	}
	wg.Wait()
	out.measured = time.Since(start)
	for c := range cls {
		out.rec.merge(cls[c].rec)
		out.finals = append(out.finals, finals[c]...)
		out.solves = append(out.solves, solves[c]...)
		if errs[c] != nil {
			return out, errs[c]
		}
	}
	if o.observe {
		if err := out.obs.after(srv, gw, srvLog, dataDir, w.durable()); err != nil {
			return nil, err
		}
	}
	if out.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if gw != nil {
		mb, err := gw.peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.rssMB += mb
	}
	if w.durable() {
		if err := crashAndRecover(ctx, srv, srvArgs, dataDir, env, tag, out, o); err != nil {
			return out, err
		}
	}
	return out, nil
}

// gatewayReady accepts calibgate's /healthz once every backend is ready.
func gatewayReady(body []byte) bool {
	var h struct{ Nodes, Ready int }
	return json.Unmarshal(body, &h) == nil && h.Nodes > 0 && h.Ready == h.Nodes
}

// crashAndRecover SIGKILLs calibserved, restarts it on the same data
// dir, times restart → /readyz 200, and re-reads every session's
// schedule for the byte-identity check. With o.keepDir set it first
// copies the post-crash dir there, before the restart merges the
// journal and replays the WAL tails, so the recover rung replays what
// the restarted daemon did.
func crashAndRecover(ctx context.Context, srv *daemon, args []string, dataDir string, env *runEnv, tag string, out *roundOut, o roundOpts) error {
	srv.kill()
	out.crashed = true
	if o.keepDir != "" {
		if err := copyTree(dataDir, o.keepDir); err != nil {
			return err
		}
		out.obs.dataDir = o.keepDir
	}
	start := time.Now()
	re, err := startDaemon(ctx, filepath.Join(env.bins, "calibserved"), "calibserved",
		filepath.Join(env.logs, tag+"-calibserved-restart.log"), args...)
	if err != nil {
		return err
	}
	defer re.stop()
	if err := re.awaitReady(ctx, "/readyz", nil); err != nil {
		return err
	}
	out.recovery = time.Since(start)
	check := newClient(re.base, nil)
	defer check.close()
	for i := range out.finals {
		f := &out.finals[i]
		body, err := check.call(opRead, "GET", "/v1/sessions/"+f.id+"/schedule", nil)
		if err != nil {
			out.rec.merge(check.rec)
			return fmt.Errorf("post-recovery read: %w", err)
		}
		f.after = body
	}
	out.rec.merge(check.rec)
	if o.observe {
		v, err := re.vars()
		if err != nil {
			return err
		}
		out.obs.recoveredRecords = v.Counters["calibserved.recovery.records"]
	}
	return nil
}

// sessionDriver reaches a client's sessions: over HTTP (client) or by
// direct calls into a server.Manager (directDriver).
type sessionDriver interface {
	create(s *sessionScript) (string, error)
	runTick(id string, tk *tick) error
	// end drains the session, reads its final schedule and deletes it
	// unless the driver keeps its sessions.
	end(id string, s *sessionScript) error
}

// driveSessions runs a client's sessions one after another, closed
// loop. pre holds the IDs of the sessions created during set-up; the
// rest are created here.
func driveSessions(d sessionDriver, cs *clientScript, pre []string) error {
	for i := range cs.sessions {
		s := &cs.sessions[i]
		var id string
		if i < len(pre) {
			id = pre[i]
		} else {
			var err error
			if id, err = d.create(s); err != nil {
				return err
			}
		}
		for t := range s.ticks {
			if err := d.runTick(id, &s.ticks[t]); err != nil {
				return err
			}
		}
		if err := d.end(id, s); err != nil {
			return err
		}
	}
	return nil
}

// driveClient sends one client's script: its sessions, then its solves.
func driveClient(c *client, cs *clientScript, pre []string) ([]finalSession, []solveCheck, error) {
	c.timed = true
	if err := driveSessions(c, cs, pre); err != nil {
		return c.finals, nil, err
	}
	var solves []solveCheck
	for _, sv := range cs.solves {
		st, err := c.solve(sv.req)
		if err != nil {
			return c.finals, solves, err
		}
		solves = append(solves, solveCheck{req: sv.req, got: st})
	}
	return c.finals, solves, nil
}

func (o *daemonObs) before(srv, gw *daemon, srvLog string) error {
	var err error
	if o.srvVars0, err = srv.vars(); err != nil {
		return err
	}
	cpu, err := srv.cpuTicks()
	if err != nil {
		return err
	}
	o.srvCPU = -time.Duration(cpu) * clockTick
	if err := srv.getJSON("/v1/traces", &o.spans0); err != nil {
		return err
	}
	w, err := srv.procField("io", "write_bytes")
	if err != nil {
		return err
	}
	o.diskWrite = -w
	if st, err := os.Stat(srvLog); err == nil {
		o.logGrow = -st.Size()
	}
	if gw != nil {
		cpu, err := gw.cpuTicks()
		if err != nil {
			return err
		}
		o.gwCPU = -time.Duration(cpu) * clockTick
		if err := gw.getJSON("/v1/traces", &o.gwSpans0); err != nil {
			return err
		}
		if o.gwMetrics0, _, err = gw.get("/metrics"); err != nil {
			return err
		}
	}
	return nil
}

func (o *daemonObs) after(srv, gw *daemon, srvLog, dataDir string, durable bool) error {
	cpu, err := srv.cpuTicks()
	if err != nil {
		return err
	}
	o.srvCPU += time.Duration(cpu) * clockTick
	w, err := srv.procField("io", "write_bytes")
	if err != nil {
		return err
	}
	o.diskWrite += w
	if st, err := os.Stat(srvLog); err == nil {
		o.logGrow += st.Size()
	}
	if gw != nil {
		cpu, err := gw.cpuTicks()
		if err != nil {
			return err
		}
		o.gwCPU += time.Duration(cpu) * clockTick
	}
	if o.srvVars1, err = srv.vars(); err != nil {
		return err
	}
	if o.phases, o.srvTraces, o.spans1, err = srv.tracePhases(); err != nil {
		return err
	}
	if gw != nil {
		var list server.TraceListResponse
		if _, o.gwTraces, list, err = gw.tracePhases(); err != nil {
			return err
		}
		o.gwSpans1 = list
		if o.gwMetrics1, _, err = gw.get("/metrics"); err != nil {
			return err
		}
	}
	if durable {
		if o.dataBytes, err = dirBytes(dataDir); err != nil {
			return err
		}
	}
	return nil
}

// counter is a calibserved counter's change across the window.
func (o *daemonObs) counter(name string) float64 {
	return o.srvVars1.Counters[name] - o.srvVars0.Counters[name]
}

// gwCounter is a calibgate_* counter's change across the window.
func (o *daemonObs) gwCounter(name string) float64 {
	if o.gwMetrics1 == nil {
		return 0
	}
	return promCounter(o.gwMetrics1, name) - promCounter(o.gwMetrics0, name)
}
