package main

// The traced run: the same seed and op stream as round 0 of the
// end-to-end run, driven once untraced and once traced against the
// daemons (whose /metrics, /debug/vars, /v1/traces and /proc counters
// are read around the window), then replayed through the layers hosted
// in-process, one rung per layer:
//
//	engine   online.NewEngine → Step/SkipIdle, as the session worker calls it
//	session  server.Manager → Get(id).Arrivals/Step/Snapshot, no store
//	store    the same with a store.Store of the workload's fsync policy
//	http     client → wrapped cluster.Gateway.ServeHTTP → wrapped server.Server.ServeHTTP
//	recover  store.Open + Recover on a copy of the post-crash data dir
//
// Gaps between rungs are layer costs; the report compares them with
// the daemon's own span phases.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"calibsched/internal/cluster"
	"calibsched/internal/core"
	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/store"
	"calibsched/internal/trace"
)

// maxStepBatch is calibserved's default -max-step-batch.
const maxStepBatch = 100_000

func tracedRun(ctx context.Context, o *options, p report) (*result, error) {
	w := o.workload
	plan, err := w.plan(o.seed, 0, o.tiny)
	if err != nil {
		return nil, err
	}
	shares := plan.stats()
	p.linef("workload %s seed %d traced run inputs sha256:%s", w.name, o.seed, plan.digest())
	sv := newSolveVerifier()
	res := &result{Correct: true}
	check := func(stage string, out *roundOut, err error) error {
		if out != nil {
			res.Attempted += out.rec.attempted
			res.Failed += out.rec.failed
		}
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		bad, verr := verifyRound(out, sv)
		res.Failed += bad
		if verr != nil {
			p.linef("FAIL %s: %v", stage, verr)
			res.Correct = false
		}
		return nil
	}

	base, err := runRound(ctx, w, &plan, &o.env, "untraced", roundOpts{})
	if err := check("untraced round", base, err); err != nil {
		return nil, err
	}
	daemonSpans := newSpanLog()
	keep := ""
	if w.durable() {
		keep = filepath.Join(o.env.work, "post-crash-data")
	}
	tr, err := runRound(ctx, w, &plan, &o.env, "traced", roundOpts{spans: daemonSpans, observe: true, keepDir: keep})
	if err := check("traced round", tr, err); err != nil {
		return nil, err
	}
	obs := tr.obs

	eng, err := engineRung(&plan)
	if err != nil {
		return nil, err
	}
	sess, err := directRung(&plan, nil, w.durable())
	if err != nil {
		return nil, fmt.Errorf("session rung: %w", err)
	}
	storeR := sess
	if w.durable() {
		policy, err := store.ParseFsyncPolicy(w.fsync)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(filepath.Join(o.env.work, "store-rung"), store.Options{Fsync: policy, GroupCommit: true})
		if err != nil {
			return nil, err
		}
		storeR, err = directRung(&plan, st, true)
		st.Close()
		if err != nil {
			return nil, fmt.Errorf("store rung: %w", err)
		}
	}
	ladderSpans := newSpanLog()
	httpOut, err := httpRung(ctx, &plan, ladderSpans, w.durable())
	if err := check("http rung", httpOut, err); err != nil {
		return nil, err
	}
	var recoverMS, rungRecords float64
	if obs.dataDir != "" {
		if recoverMS, rungRecords, err = recoverRung(obs.dataDir); err != nil {
			return nil, err
		}
	}
	for name, l := range map[string]*spanLog{"client-spans.jsonl": daemonSpans, "ladder-spans.jsonl": ladderSpans} {
		if err := l.write(filepath.Join(o.env.logs, name)); err != nil {
			return nil, err
		}
	}

	ops := float64(tr.rec.ops())
	totals, self := selfTimes(ladderSpans.snapshot())
	httpUS := totals["server.http"]
	proxySelf := self["cluster.gateway"]
	ph := obs.phases
	spansAdded := float64(obs.spans1.Stats.SpansAdded - obs.spans0.Stats.SpansAdded +
		obs.gwSpans1.Stats.SpansAdded - obs.gwSpans0.Stats.SpansAdded)
	evicted := float64(obs.spans1.Stats.TracesEvicted - obs.spans0.Stats.TracesEvicted +
		obs.gwSpans1.Stats.TracesEvicted - obs.gwSpans0.Stats.TracesEvicted)
	groups := obs.counter("calibserved.wal.group_commits")
	diskPerOp := 0.0 // no data dir: the store is not on the path
	if w.durable() {
		diskPerOp = ratio(float64(obs.diskWrite-obs.logGrow), ops)
	}
	opsPerS := func(out *roundOut) float64 { return ratio(float64(out.rec.ops()), out.measured.Seconds()) }
	values := map[string]float64{
		"online.step_calls":         float64(eng.stepCalls),
		"online.skip_calls":         float64(eng.skipCalls),
		"online.waiting_step_share": ratio(float64(eng.waiting), float64(eng.simSteps)),
		"online.ns_per_step":        ratio(float64(eng.busy.Nanoseconds()), float64(eng.simSteps)),
		"online.busy_share":         ratio(eng.busy.Seconds(), tr.measured.Seconds()),

		"server.session_us_p50":     quantile(sess.perOp, 0.50),
		"server.session_us_p99":     quantile(sess.perOp, 0.99),
		"server.http_us_p50":        quantile(httpUS, 0.50),
		"server.http_us_p99":        quantile(httpUS, 0.99),
		"server.http_gap_us_p50":    quantile(httpUS, 0.50) - quantile(sess.perOp, 0.50),
		"server.queue_wait_us_p50":  quantile(ph[trace.PhaseQueueWait], 0.50),
		"server.queue_wait_us_p99":  quantile(ph[trace.PhaseQueueWait], 0.99),
		"server.engine_step_us_p50": quantile(ph[trace.PhaseEngineStep], 0.50),
		"server.req_bytes":          ratio(float64(tr.rec.reqBytes), ops),
		"server.resp_bytes":         ratio(float64(tr.rec.respBytes), ops),
		"server.cpu_us_per_op":      ratio(float64(obs.srvCPU.Microseconds()), ops),
		"server.alloc_bytes_per_op": ratio(float64(obs.srvVars1.Memstats.TotalAlloc-obs.srvVars0.Memstats.TotalAlloc), ops),
		"server.gc_cycles":          float64(obs.srvVars1.Memstats.NumGC - obs.srvVars0.Memstats.NumGC),
		"server.rejected_429":       float64(base.rec.rejected + tr.rec.rejected),
		"server.unavailable_503":    float64(base.rec.unavail + tr.rec.unavail),

		"store.wal_append_us_p50":       quantile(ph[trace.PhaseWALAppend], 0.50),
		"store.wal_append_us_p99":       quantile(ph[trace.PhaseWALAppend], 0.99),
		"store.fsync_wait_us_p50":       quantile(ph[trace.PhaseFsyncWait], 0.50),
		"store.fsync_wait_us_p99":       quantile(ph[trace.PhaseFsyncWait], 0.99),
		"store.group_records_mean":      ratio(obs.counter("calibserved.wal.group_commit_records"), groups),
		"store.group_commits_per_op":    ratio(groups, ops),
		"store.wal_bytes_per_op":        ratio(obs.counter("calibserved.wal.bytes"), ops),
		"store.disk_write_bytes_per_op": diskPerOp,
		"store.snapshots":               obs.counter("calibserved.snapshots.written"),
		"store.data_bytes_per_job":      ratio(float64(obs.dataBytes), float64(shares.jobs)),
		"store.rung_us_p50":             quantile(storeR.perOp, 0.50),
		"store.rung_us_p99":             quantile(storeR.perOp, 0.99),
		"store.late_early_ratio":        median(storeR.lateEarly),
		"store.recover_ms":              recoverMS,
		"store.recovered_records":       obs.recoveredRecords,

		"cluster.proxy_self_us_p50": quantile(proxySelf, 0.50),
		"cluster.proxy_self_us_p99": quantile(proxySelf, 0.99),
		"cluster.cpu_us_per_op":     ratio(float64(obs.gwCPU.Microseconds()), ops),
		"cluster.retries":           obs.gwCounter("calibgate_request_retries"),

		"solve.cache_hit_ratio":   ratio(obs.counter("calibserved.solve.cache.hits"), obs.counter("calibserved.solve.submitted")),
		"solve.repeat_share":      ratio(float64(shares.repeats), float64(shares.solves)),
		"solve.dedup_shared":      obs.counter("calibserved.solve.dedup.shared"),
		"solve.polls_per_solve":   ratio(float64(tr.rec.polls), float64(len(tr.rec.lat[opSolve]))),
		"solve.queue_wait_ms_p50": quantile(ph[trace.PhaseSolveQueue], 0.50) / 1e3,
		"offline.dp_ms_p50":       quantile(ph[trace.PhaseSolveDP], 0.50) / 1e3,
		"offline.dp_ms_p99":       quantile(ph[trace.PhaseSolveDP], 0.99) / 1e3,
		"offline.direct_ms_p50":   median(sv.direct),

		"trace.spans_per_op":   ratio(spansAdded, ops),
		"trace.traces_evicted": evicted,
		"bench.trace_overhead": ratio(opsPerS(tr), opsPerS(base)),
	}
	p.linef("rungs: engine %d step requests; session %d calls; store %d calls; http %d server spans; %d daemon traces sampled",
		len(eng.perReq), len(sess.perOp), len(storeR.perOp), len(httpUS), len(obs.spans1.Traces))
	for _, d := range perLayer {
		p.linef("layer  %-30s %14.6g %s", d.name, values[d.name], d.unit)
	}
	crossCheck(p, obs, eng, sess, storeR, httpUS, proxySelf, sv.direct)
	if obs.dataDir != "" {
		verdict := "agree"
		if rungRecords != obs.recoveredRecords {
			verdict = "DISAGREE"
		}
		p.linef("cross-check store    recovery records       daemon %10.0f  recover rung %10.0f  %s; restart to /readyz %.1f ms, rung Open+Recover %.1f ms",
			obs.recoveredRecords, rungRecords, verdict, ms(tr.recovery), recoverMS)
	}
	if err := res.fill(perLayer, values); err != nil {
		return nil, err
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// crossCheck prints, per layer, the daemon's span-phase median beside
// the ladder's estimate of the same cost, flagging pairs more than 2x
// apart. Rows without samples on both sides are skipped.
func crossCheck(p report, obs *daemonObs, eng *engineOut, sess, storeR *rungOut, httpUS, proxySelf, direct []float64) {
	ph := obs.phases
	// Per trace: the gateway's self time, and the node's http span net
	// of the store phases the in-memory http rung does not have.
	var gwSelf, httpNet []float64
	for _, t := range obs.gwTraces {
		if t[trace.PhaseProxy] > 0 && t[trace.PhaseHTTP] > 0 {
			gwSelf = append(gwSelf, t[trace.PhaseProxy]-t[trace.PhaseHTTP])
		}
	}
	for _, t := range obs.srvTraces {
		if t[trace.PhaseHTTP] > 0 {
			httpNet = append(httpNet, t[trace.PhaseHTTP]-t[trace.PhaseWALAppend]-t[trace.PhaseFsyncWait])
		}
	}
	var storeGap []float64
	if storeR != sess {
		storeGap = storeR.perOp
	}
	rows := []struct {
		layer, phase, rung string
		daemon, ladder     []float64
		offset             float64
	}{
		{"server", "http - store phases", "http rung server span", httpNet, httpUS, 0},
		{"online", "engine-step", "engine rung per request", ph[trace.PhaseEngineStep], eng.perReq, 0},
		{"server", "queue-wait", "session step - engine", ph[trace.PhaseQueueWait], sess.steps, -quantile(eng.perReq, 0.5)},
		{"store", "wal-append+fsync-wait", "store rung - session rung", sumPhases(ph, trace.PhaseWALAppend, trace.PhaseFsyncWait), storeGap, -quantile(sess.perOp, 0.5)},
		{"cluster", "proxy - http", "gateway self time", gwSelf, proxySelf, 0},
		{"offline", "solve-dp", "direct OptimalTotalCost", ph[trace.PhaseSolveDP], scale(direct, 1e3), 0},
	}
	p.linef("cross-check: daemon span-phase p50 vs ladder gap p50 (us); daemon phases from the last %d traces its store retains", len(obs.srvTraces))
	for _, r := range rows {
		if len(r.daemon) == 0 || len(r.ladder) == 0 {
			continue
		}
		d := quantile(r.daemon, 0.5)
		l := quantile(r.ladder, 0.5) + r.offset
		verdict := "agree"
		switch q := ratio(d, l); {
		case l <= 0:
			verdict = "unresolved (ladder gap within rung noise)"
		case q < 0.5 || q > 2:
			verdict = "DISAGREE"
		}
		p.linef("cross-check %-8s %-22s daemon %10.1f (n=%d)  %-26s %10.1f  ratio %.2f  %s",
			r.layer, r.phase, d, len(r.daemon), r.rung, l, ratio(d, l), verdict)
	}
}

// sumPhases pairs up two phases' samples by index (both are recorded
// once per persisted command) and sums them.
func sumPhases(ph map[string][]float64, a, b string) []float64 {
	x, y := ph[a], ph[b]
	n := min(len(x), len(y))
	out := make([]float64, n)
	for i := range out {
		out[i] = x[i] + y[i]
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// engineOut is the engine rung's tally.
type engineOut struct {
	stepCalls, skipCalls, waiting, simSteps int64
	busy                                    time.Duration
	perReq                                  []float64 // µs per step request
}

// engineRung replays every session of the plan through a bare engine,
// stepping exactly as the session worker does: SkipIdle across empty
// stretches up to the next buffered release, Step otherwise.
func engineRung(plan *roundPlan) (*engineOut, error) {
	out := &engineOut{}
	for c := range plan.clients {
		for i := range plan.clients[c].sessions {
			if err := out.replay(&plan.clients[c].sessions[i]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (e *engineOut) replay(s *sessionScript) error {
	eng, err := online.NewEngine(s.create.Alg, s.create.T, s.create.G)
	if err != nil {
		return err
	}
	skipper, _ := eng.(online.IdleSkipper)
	var buf []core.Job // released-later jobs, in release order
	nextID := 0
	var arrivals []core.Job
	stepReq := func(k int64) {
		start := time.Now()
		for i := int64(0); i < k; {
			now := eng.Now()
			if skipper != nil && eng.Pending() == 0 {
				target := now + (k - i)
				if len(buf) > 0 && buf[0].Release < target {
					target = buf[0].Release
				}
				if target > now {
					skipper.SkipIdle(target)
					e.skipCalls++
					i += target - now
					continue
				}
			}
			arrivals = arrivals[:0]
			for len(buf) > 0 && buf[0].Release == now {
				arrivals = append(arrivals, buf[0])
				buf = buf[1:]
			}
			ev := eng.Step(arrivals)
			e.stepCalls++
			if !ev.Calibrated && ev.Ran < 0 && eng.Pending() > 0 {
				e.waiting++
			}
			i++
		}
		d := time.Since(start)
		e.busy += d
		e.simSteps += k
		e.perReq = append(e.perReq, us(d.Nanoseconds()))
	}
	for _, tk := range s.ticks {
		for _, j := range tk.jobs {
			buf = append(buf, core.Job{ID: nextID, Release: j.Release, Weight: j.Weight})
			nextID++
		}
		stepReq(tk.steps)
	}
	for n := 0; len(buf) > 0 || eng.Pending() > 0; n++ {
		if n == 1000 {
			return fmt.Errorf("engine rung: session not done after %d drain steps", 1000*s.drain)
		}
		stepReq(s.drain)
	}
	return nil
}

// rungOut is a direct-call rung's timings.
type rungOut struct {
	perOp     []float64 // µs per call
	steps     []float64 // µs per step call, drains included (a subset of perOp)
	lateEarly []float64 // per session: mean tick-call time of the last tenth ÷ first tenth
}

// directRung drives the plan's sessions through a Manager in-process,
// two goroutines as on the wire, timing each Get(id)+call. keep leaves
// ended sessions alive, as the wire clients of a durable workload do.
func directRung(plan *roundPlan, st *store.Store, keep bool) (*rungOut, error) {
	mgr, err := server.NewManager(server.Config{Store: st})
	if err != nil {
		return nil, err
	}
	defer mgr.Shutdown(context.Background())
	outs := make([]rungOut, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range plan.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := &directDriver{mgr: mgr, out: &outs[c], keep: keep, ticks: make(map[string][]float64)}
			errs[c] = driveSessions(d, &plan.clients[c], nil)
		}(c)
	}
	wg.Wait()
	all := &rungOut{}
	for c := range outs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all.perOp = append(all.perOp, outs[c].perOp...)
		all.steps = append(all.steps, outs[c].steps...)
		all.lateEarly = append(all.lateEarly, outs[c].lateEarly...)
	}
	return all, nil
}

// directDriver reaches a Manager's sessions by direct calls.
type directDriver struct {
	mgr   *server.Manager
	out   *rungOut
	keep  bool                 // leave ended sessions alive
	ticks map[string][]float64 // per live session: µs of each tick call
}

// timed runs one call and records its time (µs).
func (d *directDriver) timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	t := us(time.Since(start).Nanoseconds())
	d.out.perOp = append(d.out.perOp, t)
	return t, err
}

func (d *directDriver) create(s *sessionScript) (string, error) {
	var id string
	_, err := d.timed(func() error {
		info, err := d.mgr.Create(s.create)
		id = info.ID
		return err
	})
	return id, err
}

func (d *directDriver) step(id string, k int64) (server.StepResponse, float64, error) {
	var resp server.StepResponse
	t, err := d.timed(func() error {
		sess, err := d.mgr.Get(id)
		if err != nil {
			return err
		}
		resp, err = sess.Step(k, maxStepBatch, nil)
		return err
	})
	d.out.steps = append(d.out.steps, t)
	return resp, t, err
}

func (d *directDriver) read(id string) (float64, error) {
	return d.timed(func() error {
		sess, err := d.mgr.Get(id)
		if err != nil {
			return err
		}
		_, err = sess.Snapshot()
		return err
	})
}

func (d *directDriver) runTick(id string, tk *tick) error {
	if len(tk.jobs) > 0 {
		t, err := d.timed(func() error {
			sess, err := d.mgr.Get(id)
			if err != nil {
				return err
			}
			_, err = sess.Arrivals(tk.jobs, nil)
			return err
		})
		if err != nil {
			return err
		}
		d.ticks[id] = append(d.ticks[id], t)
	}
	_, t, err := d.step(id, tk.steps)
	if err != nil {
		return err
	}
	d.ticks[id] = append(d.ticks[id], t)
	if tk.read {
		t, err := d.read(id)
		if err != nil {
			return err
		}
		d.ticks[id] = append(d.ticks[id], t)
	}
	return nil
}

func (d *directDriver) end(id string, s *sessionScript) error {
	for n := 0; ; n++ {
		if n == 1000 {
			return fmt.Errorf("session %s not done after %d drain steps", id, 1000*s.drain)
		}
		resp, _, err := d.step(id, s.drain)
		if err != nil {
			return err
		}
		if resp.Done {
			break
		}
	}
	if _, err := d.read(id); err != nil {
		return err
	}
	if !d.keep {
		if _, err := d.timed(func() error { return d.mgr.Delete(id) }); err != nil {
			return err
		}
	}
	d.out.lateEarly = append(d.out.lateEarly, lateEarly(d.ticks[id]))
	delete(d.ticks, id)
	return nil
}

// lateEarly is the mean of the last tenth of a session's call times
// over the mean of its first tenth.
func lateEarly(times []float64) float64 {
	n := len(times) / 10
	if n == 0 {
		return 1
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return ratio(mean(times[len(times)-n:]), mean(times[:n]))
}

// httpRung hosts server.Server and cluster.Gateway in-process on
// loopback listeners, each wrapped in a span, and drives the plan
// through the gateway with the closed-loop clients. keep leaves ended
// sessions alive, as the wire clients of a durable workload do.
func httpRung(ctx context.Context, plan *roundPlan, spans *spanLog, keep bool) (*roundOut, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(ctx)
	srvURL, stopSrv, err := serveWrapped(srv, spans, "server.http", false)
	if err != nil {
		return nil, err
	}
	defer stopSrv()
	gw, err := cluster.NewGateway(cluster.Options{
		Backends:       []string{srvURL},
		Client:         &http.Client{Timeout: 2 * time.Minute},
		HealthInterval: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	gwURL, stopGw, err := serveWrapped(gw, spans, "cluster.gateway", true)
	if err != nil {
		return nil, err
	}
	defer stopGw()

	out := &roundOut{}
	cls := make([]*client, clients)
	finals := make([][]finalSession, clients)
	solves := make([][]solveCheck, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cls {
		cls[c] = newClient(gwURL, spans)
		cls[c].keep = keep
		defer cls[c].close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			finals[c], solves[c], errs[c] = driveClient(cls[c], &plan.clients[c], nil)
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
	return out, nil
}

// serveWrapped serves h on a loopback listener, recording one span per
// request around h.ServeHTTP. It returns the base URL and a stop func.
func serveWrapped(h http.Handler, spans *spanLog, name string, nest bool) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := spans.startLayer(name, r.Header.Get("traceparent"), nest)
		h.ServeHTTP(w, r)
		spans.end(sp)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	stop := func() {
		hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// recoverRung times store.Open + Recover on a copy of the post-crash data
// dir, closing the logs it reopens, and counts the records left to
// replay, as calibserved.recovery.records counts them at boot.
func recoverRung(dir string) (msecs, records float64, err error) {
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	rec, err := st.Recover()
	d := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	for _, rs := range rec.Sessions {
		records += float64(len(rs.Commands))
		if err := rs.Log.Close(); err != nil {
			return 0, 0, err
		}
	}
	if len(rec.Failed) > 0 {
		return 0, 0, fmt.Errorf("recovery rung: %d sessions failed to recover", len(rec.Failed))
	}
	return ms(d), records, nil
}
