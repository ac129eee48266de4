package main

// Performance mode (-perf): a small hand-rolled measurement harness that
// times the hot paths of the reproduction — the Alg1/Alg2 steppers, the
// offline DP, and the decision-tracing overhead contract (untraced vs
// nil-sink vs live ring) — and writes a machine-readable JSON report for
// `make bench`. A hand-rolled loop rather than testing.Benchmark keeps
// `go test ./...` fast and lets the report carry steps/sec alongside
// ns/op and allocs/op.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/solve"
	"calibsched/internal/store"
	"calibsched/internal/trace"
	"calibsched/internal/workload"
)

// perfResult is one benchmark case in the report.
type perfResult struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// StepsPerSec is the simulated-step throughput (stepper cases only).
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
}

// perfSchema versions the BENCH_<date>.json format. v2 added the
// schema and commit fields.
const perfSchema = "calibbench/v2"

// perfReport is the BENCH_<date>.json schema.
type perfReport struct {
	Schema    string       `json:"schema"`
	Commit    string       `json:"commit"`
	Date      string       `json:"date"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Results   []perfResult `json:"results"`
}

// measure runs fn in a timed loop for roughly d (after one warm-up call)
// and reports iterations, ns/op, and allocs/op. stepsPerOp, when nonzero,
// scales into steps/sec.
func measure(name string, d time.Duration, stepsPerOp int64, fn func()) perfResult {
	fn() // warm-up: first call pays one-time allocations
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var iters int64
	for time.Since(start) < d || iters == 0 {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	res := perfResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(iters),
	}
	if stepsPerOp > 0 {
		res.StepsPerSec = float64(stepsPerOp*iters) / elapsed.Seconds()
	}
	return res
}

// perfInstance is the shared stepper workload: Poisson arrivals with
// uniform weights, the same shape as the internal/online benchmarks.
func perfInstance(n int) (*core.Instance, error) {
	return (workload.Spec{
		N: n, P: 1, T: 16, Seed: 42,
		Arrival: workload.ArrivalPoisson, Lambda: 0.4,
		Weights: workload.WeightUniform, WMax: 10,
	}).Build()
}

// unitPerfInstance is the unit-weight variant for Algorithm 1.
func unitPerfInstance(n int) (*core.Instance, error) {
	return (workload.Spec{
		N: n, P: 1, T: 16, Seed: 42,
		Arrival: workload.ArrivalPoisson, Lambda: 0.4,
		Weights: workload.WeightUnit,
	}).Build()
}

// arrivalPlan is an instance's arrivals pre-bucketed by release time, so
// driving a stepper does not rebuild the map every op. The per-op map
// construction used to dominate the harness (thousands of allocations
// per drive), burying the code under test in noise — it is what made the
// nil-sink tier read slower than the untraced baseline in the 2026-08-08
// report even though the two run identical stepper code.
type arrivalPlan struct {
	byTime map[int64][]core.Job
	last   int64
}

// planArrivals buckets the instance's jobs by release time, once.
func planArrivals(in *core.Instance) *arrivalPlan {
	p := &arrivalPlan{byTime: make(map[int64][]core.Job, len(in.Jobs))}
	for _, j := range in.Jobs {
		p.byTime[j.Release] = append(p.byTime[j.Release], j)
		if j.Release > p.last {
			p.last = j.Release
		}
	}
	return p
}

// driveStepper runs a fresh stepper across the plan's full horizon and
// returns the number of simulated steps.
func driveStepper(st *online.Stepper, plan *arrivalPlan) int64 {
	var steps int64
	for st.Pending() > 0 || st.Now() <= plan.last {
		st.Step(plan.byTime[st.Now()])
		steps++
	}
	return steps
}

// perfCase is one filterable entry in the -perf suite.
type perfCase struct {
	name  string
	steps int64
	fn    func()
}

// matchCase reports whether name is selected by the -perf-filter value: a
// comma-separated list of substrings, empty selecting everything.
func matchCase(filter, name string) bool {
	if filter == "" {
		return true
	}
	for _, part := range strings.Split(filter, ",") {
		if part = strings.TrimSpace(part); part != "" && strings.Contains(name, part) {
			return true
		}
	}
	return false
}

// runPerf measures every case selected by filter for duration d each and
// writes the JSON report to out.
func runPerf(out io.Writer, d time.Duration, n int, filter string) error {
	const g = 64
	weighted, err := perfInstance(n)
	if err != nil {
		return err
	}
	unit, err := unitPerfInstance(n)
	if err != nil {
		return err
	}
	// The DP is cubic in the job count with a heavy constant; a small
	// instance keeps one op in the milliseconds.
	dpIn, err := perfInstance(12)
	if err != nil {
		return err
	}
	sweepK := dpIn.N()

	unitPlan, weightedPlan := planArrivals(unit), planArrivals(weighted)
	steps1 := driveStepper(online.NewAlg1Stepper(unit.T, g), unitPlan)
	steps2 := driveStepper(online.NewAlg2Stepper(weighted.T, g), weightedPlan)

	// The solve-pool tier: one Submit+Wait per op against a warm result
	// cache, priced against the offline/dp tier (the same instance and G
	// solved cold) to show what the cache saves on repeat solves.
	pool := solve.New(solve.Options{CacheSize: 8})
	defer pool.Close()
	solveReq := solve.Request{Instance: dpIn, Kind: solve.KindTotalCost, G: g}

	cases := []perfCase{
		{"alg1/stepper", steps1, func() {
			driveStepper(online.NewAlg1Stepper(unit.T, g), unitPlan)
		}},
		{"alg2/stepper", steps2, func() {
			driveStepper(online.NewAlg2Stepper(weighted.T, g), weightedPlan)
		}},
		{"alg2/stepper/nil-sink", steps2, func() {
			driveStepper(online.NewAlg2Stepper(weighted.T, g, online.WithSink(nil)), weightedPlan)
		}},
		{"alg2/stepper/ring-sink", steps2, func() {
			driveStepper(online.NewAlg2Stepper(weighted.T, g, online.WithSink(trace.NewRing(1024))), weightedPlan)
		}},
		{"offline/dp", 0, func() {
			if _, _, _, err := offline.OptimalTotalCost(dpIn, g); err != nil {
				panic("calibbench: offline DP failed on the perf instance: " + err.Error())
			}
		}},
		{"offline/dp/parallel", 0, func() {
			if _, _, _, err := offline.OptimalTotalCostParallel(dpIn, g, 0); err != nil {
				panic("calibbench: parallel DP failed on the perf instance: " + err.Error())
			}
		}},
		{"offline/sweep", 0, func() {
			if _, err := offline.BudgetSweep(dpIn, sweepK); err != nil {
				panic("calibbench: budget sweep failed on the perf instance: " + err.Error())
			}
		}},
		{"offline/sweep/parallel", 0, func() {
			if _, err := offline.BudgetSweepParallel(dpIn, sweepK, 0); err != nil {
				panic("calibbench: parallel sweep failed on the perf instance: " + err.Error())
			}
		}},
		{"solve/cache-hit", 0, func() {
			// The warm-up call inside measure pays the one cold solve;
			// every timed iteration is a cache hit.
			id, err := pool.Submit(solveReq)
			if err != nil {
				panic("calibbench: solve submit failed: " + err.Error())
			}
			st, err := pool.Wait(context.Background(), id)
			if err != nil || st.Err != "" {
				panic(fmt.Sprintf("calibbench: solve failed: %v %s", err, st.Err))
			}
		}},
	}

	report := perfReport{
		Schema:    perfSchema,
		Commit:    commit,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range cases {
		if matchCase(filter, c.name) {
			report.Results = append(report.Results, measure(c.name, d, c.steps, c.fn))
		}
	}

	// The serving-layer persistence tiers: one arrival + one step per op
	// through a session worker, in-memory (the nil-persister fast path)
	// against each WAL fsync policy. The in-memory case is the zero-
	// overhead baseline; the tiers price durability.
	for _, sc := range []struct {
		name   string
		policy store.FsyncPolicy
		wal    bool
		spans  bool
	}{
		{name: "serve/step/in-memory"},
		{name: "serve/step/wal-none", policy: store.FsyncNone, wal: true},
		{name: "serve/step/wal-batch", policy: store.FsyncBatch, wal: true},
		{name: "serve/step/wal-always", policy: store.FsyncAlways, wal: true},
		// Span-recording overhead tiers: span-nil is the untraced request
		// path (nil *trace.Active through the worker — must sit within
		// noise of serve/step/in-memory), span-ring opens, stamps, and
		// lands a full span tree per op against a live SpanStore.
		{name: "serve/step/span-nil"},
		{name: "serve/step/span-ring", spans: true},
	} {
		if !matchCase(filter, sc.name) {
			continue
		}
		res, err := measureServe(sc.name, d, sc.wal, sc.policy, sc.spans)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
	}

	// Multi-session tiers: the group-commit acceptance surface. N session
	// workers drive arrivals+steps concurrently; ns/op is aggregate wall
	// time per op across the fleet, so shared fsyncs show up directly.
	// wal-always/multi runs with group commit, multi-nogroup is the same
	// load on per-record fsyncs (the pre-group-commit behavior), and
	// wal-batch/multi is the comparison floor the ~3x target is against.
	for _, sc := range []struct {
		name   string
		policy store.FsyncPolicy
		group  bool
	}{
		{name: "serve/step/wal-batch/multi", policy: store.FsyncBatch},
		{name: "serve/step/wal-always/multi", policy: store.FsyncAlways, group: true},
		{name: "serve/step/wal-always/multi-nogroup", policy: store.FsyncAlways},
	} {
		if !matchCase(filter, sc.name) {
			continue
		}
		res, err := measureServeMulti(sc.name, d, 8, sc.policy, sc.group)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// measureServe times the calibserved hot path — one accepted arrival and
// one simulated step per op against a live session worker — with the
// given persistence configuration. With spans set, each op additionally
// opens an http root span, threads it through the worker (queue-wait and
// engine-step phases), and lands the finished tree in a live SpanStore.
func measureServe(name string, d time.Duration, wal bool, policy store.FsyncPolicy, spans bool) (perfResult, error) {
	var st *store.Store
	if wal {
		dir, err := os.MkdirTemp("", "calibbench-wal-*")
		if err != nil {
			return perfResult{}, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{Fsync: policy}); err != nil {
			return perfResult{}, err
		}
	}
	mgr, err := server.NewManager(server.Config{Store: st, SnapshotEvery: 256})
	if err != nil {
		return perfResult{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	info, err := mgr.Create(server.CreateSessionRequest{Alg: "alg2", T: 8, G: 24})
	if err != nil {
		return perfResult{}, err
	}
	sess, err := mgr.Get(info.ID)
	if err != nil {
		return perfResult{}, err
	}
	var spanStore *trace.SpanStore
	if spans {
		spanStore = trace.NewSpanStore(512, 0, "bench")
	}
	var clock int64
	job := []server.JobSpec{{Weight: 3}}
	return measure(name, d, 1, func() {
		var act *trace.Active
		if spanStore != nil {
			act = spanStore.StartSpan(trace.PhaseHTTP, trace.SpanContext{}, nil)
		}
		job[0].Release = clock
		if _, err := sess.Arrivals(job, act); err != nil {
			panic("calibbench: serve arrivals failed: " + err.Error())
		}
		if _, err := sess.Step(1, 1, act); err != nil {
			panic("calibbench: serve step failed: " + err.Error())
		}
		act.Finish()
		clock++
	}), nil
}

// measureServeMulti times the serving hot path under concurrent
// sessions: `sessions` workers each own one session and loop one
// arrival + one step per op until the clock runs out. NsPerOp is wall
// time divided by total ops across the fleet — the amortized cost a
// client sees when the daemon is busy, which is where group commit's
// shared fsync pays off.
func measureServeMulti(name string, d time.Duration, sessions int, policy store.FsyncPolicy, group bool) (perfResult, error) {
	dir, err := os.MkdirTemp("", "calibbench-wal-*")
	if err != nil {
		return perfResult{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Fsync: policy, GroupCommit: group})
	if err != nil {
		return perfResult{}, err
	}
	defer st.Close()
	mgr, err := server.NewManager(server.Config{Store: st, SnapshotEvery: 256})
	if err != nil {
		return perfResult{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()

	// Manager.Get returns the unexported session worker type; this
	// interface captures the two calls the harness drives.
	type serveSession interface {
		Arrivals([]server.JobSpec, *trace.Active) (server.ArrivalsResponse, error)
		Step(int64, int64, *trace.Active) (server.StepResponse, error)
	}
	workers := make([]serveSession, sessions)
	for i := range workers {
		info, err := mgr.Create(server.CreateSessionRequest{Alg: "alg2", T: 8, G: 24})
		if err != nil {
			return perfResult{}, err
		}
		if workers[i], err = mgr.Get(info.ID); err != nil {
			return perfResult{}, err
		}
	}

	oneOp := func(sess serveSession, clock int64) {
		if _, err := sess.Arrivals([]server.JobSpec{{Release: clock, Weight: 3}}, nil); err != nil {
			panic("calibbench: serve arrivals failed: " + err.Error())
		}
		if _, err := sess.Step(1, 1, nil); err != nil {
			panic("calibbench: serve step failed: " + err.Error())
		}
	}
	clocks := make([]int64, sessions)
	for i, sess := range workers { // warm-up, one op per session
		oneOp(sess, clocks[i])
		clocks[i]++
	}

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	var stop atomic.Bool
	counts := make([]int64, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i, sess := range workers {
		wg.Add(1)
		go func(i int, sess serveSession, clock int64) {
			defer wg.Done()
			// At least one op per session, so the count divided by below
			// is never 0 however short the window.
			for {
				oneOp(sess, clock)
				clock++
				counts[i]++
				if stop.Load() {
					break
				}
			}
		}(i, sess, clocks[i])
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	var total int64
	for _, c := range counts {
		total += c
	}
	return perfResult{
		Name:        name,
		Iters:       total,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(total),
		AllocsPerOp: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(total),
	}, nil
}

// runPerfCmd is the -perf entry point: it writes the report to path (or
// stdout when path is empty) and a one-line summary per case to stderr.
func runPerfCmd(path string, d time.Duration, n int, filter string) error {
	var out io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := runPerf(out, d, n, filter); err != nil {
		return err
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "calibbench: wrote %s\n", path)
	}
	return nil
}
