// Command perfbench is calibsched's end-to-end and per-layer benchmark.
// It drives the shipped calibserved and calibgate binaries as child
// processes from two closed-loop clients, checks every output, and
// prints the metrics as one JSON line. See README.md for the workloads
// and metrics; run.sh builds the binaries and runs it:
//
//	bash perfbench/run.sh --workload chatty-gateway --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload *workloadSpec
	seed     uint64
	budget   time.Duration
	traced   bool
	tiny     bool
	env      runEnv
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: durable-long, chatty-gateway, bulk-step or solve-mix")
	seed := fs.Uint64("seed", 1, "input seed; the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "rounds keep starting until the run has taken this long")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	bins := fs.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the calibserved and calibgate binaries")
	work := fs.String("work", ".bench_build", "directory for data dirs and kept logs")
	tiny := fs.Bool("tiny", false, "smoke mode: every workload shrunk to a few requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload (durable-long|chatty-gateway|bulk-step|solve-mix), --seconds >= 1 and --trace 0|1")
		return 2
	}
	for _, b := range []string{"calibserved", "calibgate"} {
		if _, err := os.Stat(filepath.Join(*bins, b)); err != nil {
			fmt.Fprintf(stderr, "perfbench: missing binary: %v\n", err)
			return 2
		}
	}
	o := &options{
		workload: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, tiny: *tiny,
	}
	o.env.bins = *bins
	o.env.logs = filepath.Join(*work, "logs", fmt.Sprintf("%s-trace%d", w.name, *traceFlag))
	o.env.work = filepath.Join(*work, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(o.env.logs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, d := range []string{o.env.logs, o.env.work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(o.env.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	if o.traced {
		res, err = tracedRun(ctx, o, report{stdout})
	} else {
		res, err = endToEndRun(ctx, o, report{stdout})
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// minRounds makes every figure a summary of several rounds. setup_s is
// a median of at least minSetups start-ups: workloads whose rounds are
// long add cold start-ups without a measured window to reach it.
const (
	minRounds = 3
	minSetups = 15
)

// endToEndRun runs rounds of the workload's fixed work against the
// daemons until the time budget is spent, checks every output, and
// fills the end-to-end metrics.
func endToEndRun(ctx context.Context, o *options, p report) (*result, error) {
	w := o.workload
	var (
		all               recorder
		setups, rss, rec  []float64
		rates, p50s, p99s []float64
		measured          time.Duration
		rounds            int
		badOps            int
		firstErr          error
		digest            = sha256.New()
		round0            string
		shares            planStats
		plan0             roundPlan
	)
	sv := newSolveVerifier()
	runStart := time.Now()
	for r := 0; r < minRounds || time.Since(runStart) < o.budget; r++ {
		roundStart := time.Now()
		plan, err := w.plan(o.seed, r, o.tiny)
		if err != nil {
			return nil, err
		}
		d := plan.digest()
		if r == 0 {
			round0, shares, plan0 = d, plan.stats(), plan
		}
		digest.Write([]byte(d))
		out, err := runRound(ctx, w, &plan, &o.env, fmt.Sprintf("round%d", r), roundOpts{})
		if out != nil {
			all.merge(&out.rec)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			firstErr = fmt.Errorf("round %d: %w", r, err)
			badOps++
			break
		}
		rounds++
		bad, err := verifyRound(out, sv)
		badOps += bad
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("round %d: %w", r, err)
		}
		p.linef("round %d wall %.3fs setup %.4fs measured %.3fs ops %d (%.1f/s) tick p50 %.4fms p99 %.4fms",
			r, time.Since(roundStart).Seconds(), out.setup.Seconds(), out.measured.Seconds(), out.rec.ops(),
			ratio(float64(out.rec.ops()), out.measured.Seconds()),
			quantile(out.rec.ticks, 0.5), quantile(out.rec.ticks, 0.99))
		setups = append(setups, out.setup.Seconds())
		rates = append(rates, ratio(float64(out.rec.ops()), out.measured.Seconds()))
		p50s = append(p50s, quantile(out.rec.ticks, 0.50))
		p99s = append(p99s, quantile(out.rec.ticks, 0.99))
		rss = append(rss, out.rssMB)
		if w.durable() {
			rec = append(rec, out.recovery.Seconds())
		}
		measured += out.measured
	}
	for i := 0; len(setups) < minSetups && firstErr == nil; i++ {
		out, err := runRound(ctx, w, &plan0, &o.env, fmt.Sprintf("setup%d", i), roundOpts{setupOnly: true})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			firstErr = fmt.Errorf("start-up %d: %w", i, err)
			break
		}
		setups = append(setups, out.setup.Seconds())
	}

	p.linef("workload %s seed %d rounds %d start-ups %d", w.name, o.seed, rounds, len(setups))
	p.linef("inputs round0 sha256:%s all-rounds sha256:%s", round0, hex.EncodeToString(digest.Sum(nil)))
	p.linef("inputs per round: %d sessions, %d ticks, %d jobs, %d steps, %d solves (%d repeated, share %.4f)",
		shares.sessions, shares.ticks, shares.jobs, shares.steps, shares.solves, shares.repeats,
		ratio(float64(shares.repeats), float64(shares.solves)))
	failed := all.failed + badOps
	if firstErr != nil {
		p.linef("FAIL %v", firstErr)
	}
	if len(all.errs) > 0 {
		p.linef("errors: %s", strings.Join(all.errs, "; "))
	}
	ops := all.ops()
	secs := measured.Seconds()
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          median(rates),
		"tick_p50_ms":        median(p50s),
		"daemon_peak_rss_mb": median(rss),
	}
	p.metric("setup_s", values["setup_s"], "s", len(setups))
	p.metric("ops_per_s", values["ops_per_s"], "1/s", ops)
	p.metric("tick_p50_ms", values["tick_p50_ms"], "ms", len(all.ticks))
	p.metric("tick_p99_ms", median(p99s), "ms", len(all.ticks))
	p.metric("daemon_peak_rss_mb", values["daemon_peak_rss_mb"], "MiB", len(rss))
	p.linef("(figures above are medians of %d rounds; pooled over all rounds: %.1f ops/s, tick p50 %.4fms p99 %.4fms)",
		rounds, ratio(float64(ops), secs), quantile(all.ticks, 0.50), quantile(all.ticks, 0.99))
	if all.simSteps > 0 {
		p.metric("sim_steps_per_s", ratio(float64(all.simSteps), secs), "1/s", int(all.simSteps))
	}
	for k := opKind(0); k < numOpKinds; k++ {
		if l := all.lat[k]; len(l) > 0 {
			name := opNames[k]
			p.metric(name+"_p50_ms", quantile(l, 0.50), "ms", len(l))
			p.metric(name+"_p99_ms", quantile(l, 0.99), "ms", len(l))
		}
	}
	if w.durable() {
		p.metric("recovery_s", median(rec), "s", len(rec))
	}
	p.metric("fail_share", ratio(float64(failed), float64(all.attempted)), "share", all.attempted)

	res := &result{Correct: failed == 0 && firstErr == nil && rounds > 0, Attempted: max(all.attempted, 1), Failed: failed}
	if err := res.fill(endToEnd, values); err != nil {
		return nil, err
	}
	return res, nil
}
