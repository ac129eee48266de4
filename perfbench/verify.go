package main

// Correctness checks, run after each measured window so they add no
// time to it. A streamed session's final schedule must cost exactly
// what the batch form of its algorithm costs on the same jobs (the
// check calibload's verifySession makes); a solve's optimum must equal
// a local exact DP on the canonical instance; and a recovered session
// must read back byte-identical to its pre-crash schedule.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/solve"
)

// verifySession checks one finished alg2 session against a batch rerun
// and, when its daemon crashed after the session ended, its
// post-recovery read against the pre-crash one.
func verifySession(f *finalSession, crashed bool) error {
	var sched server.ScheduleResponse
	if err := json.Unmarshal(f.body, &sched); err != nil {
		return fmt.Errorf("session %s: decoding schedule: %w", f.id, err)
	}
	jobs := f.script.jobs()
	if !sched.Done || sched.Assigned != len(jobs) {
		return fmt.Errorf("session %s: final schedule not done: %d/%d assigned", f.id, sched.Assigned, len(jobs))
	}
	in, err := specInstance(f.script.create.T, jobs)
	if err != nil {
		return fmt.Errorf("session %s: %w", f.id, err)
	}
	res, err := online.Alg2(in, f.script.create.G)
	if err != nil {
		return fmt.Errorf("session %s: batch rerun: %w", f.id, err)
	}
	want := core.TotalCost(in, res.Schedule, f.script.create.G)
	if sched.TotalCost != want || len(sched.Calibrations) != res.Schedule.NumCalibrations() {
		return fmt.Errorf("session %s: served cost %d with %d calibrations, batch cost %d with %d",
			f.id, sched.TotalCost, len(sched.Calibrations), want, res.Schedule.NumCalibrations())
	}
	if crashed && !bytes.Equal(f.body, f.after) {
		return fmt.Errorf("session %s: schedule after recovery differs from the pre-crash read", f.id)
	}
	return nil
}

// specInstance builds the single-machine instance of a job list.
func specInstance(t int64, jobs []server.JobSpec) (*core.Instance, error) {
	releases := make([]int64, len(jobs))
	weights := make([]int64, len(jobs))
	for i, j := range jobs {
		releases[i] = j.Release
		weights[i] = j.Weight
	}
	in, err := core.NewInstance(1, t, releases, weights)
	if err != nil {
		return nil, fmt.Errorf("rebuilding instance: %w", err)
	}
	return in, nil
}

// solveVerifier checks solve results, solving each distinct canonical
// instance once. It is safe for concurrent use.
type solveVerifier struct {
	mu      sync.Mutex
	optimum map[string]*optimum
	// direct holds the time of each local DP (ms).
	direct []float64
}

// optimum is one canonical instance's local DP result.
type optimum struct {
	once sync.Once
	cost int64
	err  error
}

func newSolveVerifier() *solveVerifier {
	return &solveVerifier{optimum: make(map[string]*optimum)}
}

func (v *solveVerifier) check(sc *solveCheck) error {
	in, err := specInstance(sc.req.T, sc.req.Jobs)
	if err != nil {
		return err
	}
	canon := in.Canonicalize()
	key := solve.InstanceKey(canon, solve.KindTotalCost, sc.req.G)
	v.mu.Lock()
	o, ok := v.optimum[key]
	if !ok {
		o = &optimum{}
		v.optimum[key] = o
	}
	v.mu.Unlock()
	o.once.Do(func() {
		start := time.Now()
		o.cost, _, _, o.err = offline.OptimalTotalCost(canon, sc.req.G)
		d := ms(time.Since(start))
		v.mu.Lock()
		v.direct = append(v.direct, d)
		v.mu.Unlock()
	})
	if o.err != nil {
		return fmt.Errorf("local DP: %w", o.err)
	}
	if sc.got.Total == nil || *sc.got.Total != o.cost {
		got := "none"
		if sc.got.Total != nil {
			got = fmt.Sprint(*sc.got.Total)
		}
		return fmt.Errorf("solve %s: served optimum %s, local DP %d", sc.got.ID, got, o.cost)
	}
	return nil
}

// verifyRound checks every output of a round, on one goroutine per
// client so the checks keep pace with the round, and returns how many
// operations failed their check, with the first failure.
func verifyRound(out *roundOut, sv *solveVerifier) (int, error) {
	errs := make([]error, len(out.finals)+len(out.solves))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if i < len(out.finals) {
					errs[i] = verifySession(&out.finals[i], out.crashed)
				} else {
					errs[i] = sv.check(&out.solves[i-len(out.finals)])
				}
			}
		}()
	}
	for i := range errs {
		next <- i
	}
	close(next)
	wg.Wait()
	bad, first := 0, error(nil)
	for _, err := range errs {
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}
