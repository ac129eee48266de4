package server

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/online"
	"calibsched/internal/workload"
)

// TestServedMatchesBatch is the determinism-across-the-network-boundary
// gate: driving calibserved over HTTP with the arrivals of a random
// instance must produce a schedule and total cost byte-identical (as
// canonical JSON) to the batch Alg1/Alg2 run on the same instance.
//
// Arrivals are fed in instance order, so the server's dense acceptance
// IDs coincide with the instance's job IDs and the comparison is exact,
// not merely cost-equal. Two feeding disciplines are exercised: all jobs
// buffered up front (stressing the maturation heap) and just-in-time
// batches interleaved with steps.
func TestServedMatchesBatch(t *testing.T) {
	_, ts := testServer(t, Config{MaxBuffer: 1 << 14})
	rng := rand.New(rand.NewPCG(2026, 85))

	for trial := 0; trial < 40; trial++ {
		alg := "alg1"
		weights := workload.WeightUnit
		if trial%2 == 1 {
			alg = "alg2"
			weights = workload.WeightZipf
		}
		spec := workload.Spec{
			N: 5 + rng.IntN(40), P: 1, T: int64(2 + rng.IntN(12)),
			Seed:    uint64(1000 + trial),
			Arrival: workload.ArrivalPoisson, Lambda: 0.1 + rng.Float64(),
			Weights: weights, WMax: 9, ZipfS: 1.3,
		}
		in, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := int64(rng.IntN(60))
		upfront := trial%4 < 2

		var batch *online.Result
		if alg == "alg1" {
			batch, err = online.Alg1(in, g)
		} else {
			batch, err = online.Alg2(in, g)
		}
		if err != nil {
			t.Fatal(err)
		}

		got := driveServed(t, ts.URL, alg, in, g, upfront, 7)

		want := renderExpected(in, g, batch)
		if gotJSON, wantJSON := canonical(t, got), canonical(t, want); gotJSON != wantJSON {
			t.Fatalf("trial %d (%s G=%d T=%d upfront=%v): served != batch\nserved: %s\nbatch:  %s",
				trial, alg, g, in.T, upfront, gotJSON, wantJSON)
		}
		if wantCost := core.TotalCost(in, batch.Schedule, g); got.TotalCost != wantCost {
			t.Fatalf("trial %d: served cost %d, batch cost %d", trial, got.TotalCost, wantCost)
		}
	}

	// High-G sparse sessions: G=4096 far above T*w and about 0.02 jobs per
	// step, stepped 10^4 steps per request, so the worker's skips jump
	// over waiting stretches with jobs pending. The reference is the
	// batch engine stepping every tick.
	for trial := 0; trial < 8; trial++ {
		alg, weights := "alg1", workload.WeightUnit
		if trial%2 == 1 {
			alg, weights = "alg2", workload.WeightZipf
		}
		in, err := workload.Spec{
			N: 40 + rng.IntN(40), P: 1, T: 16, Seed: uint64(4096 + trial),
			Arrival: workload.ArrivalPoisson, Lambda: 0.02,
			Weights: weights, WMax: 9, ZipfS: 1.3,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		const g = 4096
		run := online.Alg1
		if alg == "alg2" {
			run = online.Alg2
		}
		batch, err := run(in, g, online.WithNaiveStepping())
		if err != nil {
			t.Fatal(err)
		}
		upfront := trial%4 < 2
		got := driveServed(t, ts.URL, alg, in, g, upfront, 10_000)
		if gotJSON, wantJSON := canonical(t, got), canonical(t, renderExpected(in, g, batch)); gotJSON != wantJSON {
			t.Fatalf("sparse trial %d (%s upfront=%v): served != batch\nserved: %s\nbatch:  %s",
				trial, alg, upfront, gotJSON, wantJSON)
		}
	}
}

// servedResult is the comparable slice of a schedule snapshot.
type servedResult struct {
	Calibrations []CalibrationJSON `json:"calibrations"`
	Assignments  []AssignmentJSON  `json:"assignments"`
	Flow         int64             `json:"flow"`
	TotalCost    int64             `json:"total_cost"`
}

// driveServed runs one full session over HTTP, stepping window steps per
// request, and returns the final snapshot reduced to its comparable parts.
func driveServed(t *testing.T, base, alg string, in *core.Instance, g int64, upfront bool, window int64) servedResult {
	t.Helper()
	id := mustCreate(t, base, CreateSessionRequest{T: in.T, G: g, Alg: alg})
	url := base + "/v1/sessions/" + id

	jobs := make([]JobSpec, in.N())
	for i, j := range in.Jobs {
		jobs[i] = JobSpec{Release: j.Release, Weight: j.Weight}
	}

	post := func(batch []JobSpec) {
		t.Helper()
		var ar ArrivalsResponse
		if status := doJSON(t, "POST", url+"/arrivals", ArrivalsRequest{Jobs: batch}, &ar); status != 200 {
			t.Fatalf("arrivals: status %d", status)
		}
	}

	next := 0 // first not-yet-posted job (just-in-time mode)
	if upfront {
		post(jobs)
		next = len(jobs)
	}
	done := false
	for steps := int64(0); !done; {
		if !upfront {
			// Post every job released within the next step window before
			// stepping over it.
			var sr SessionInfo
			if status := doJSON(t, "GET", url, nil, &sr); status != 200 {
				t.Fatalf("info: status %d", status)
			}
			end := sr.Now + window
			batch := []JobSpec{}
			for next < len(jobs) && jobs[next].Release < end {
				batch = append(batch, jobs[next])
				next++
			}
			if len(batch) > 0 {
				post(batch)
			}
		}
		var sr StepResponse
		if status := doJSON(t, "POST", url+"/step", StepRequest{Steps: window}, &sr); status != 200 {
			t.Fatalf("step: status %d", status)
		}
		done = sr.Done && next >= len(jobs)
		if steps += window; steps > 5_000_000 {
			t.Fatal("session never finished")
		}
	}

	var sched ScheduleResponse
	if status := doJSON(t, "GET", url+"/schedule", nil, &sched); status != 200 {
		t.Fatalf("schedule: status %d", status)
	}
	if !sched.Done {
		t.Fatalf("snapshot not done: %+v", sched.Session)
	}
	doJSON(t, "DELETE", url, nil, nil)
	return servedResult{
		Calibrations: sched.Calibrations,
		Assignments:  sched.Assignments,
		Flow:         sched.Flow,
		TotalCost:    sched.TotalCost,
	}
}

// renderExpected converts a batch result into the server's wire shape.
func renderExpected(in *core.Instance, g int64, res *online.Result) servedResult {
	out := servedResult{
		Calibrations: make([]CalibrationJSON, len(res.Schedule.Calendar)),
		Assignments:  make([]AssignmentJSON, len(res.Schedule.Assignments)),
	}
	for i, c := range res.Schedule.Calendar {
		out.Calibrations[i] = CalibrationJSON{Machine: c.Machine, Start: c.Start, Trigger: res.Triggers[i].String()}
	}
	for i, a := range res.Schedule.Assignments {
		j := in.Jobs[i]
		out.Assignments[i] = AssignmentJSON{
			Job: j.ID, Release: j.Release, Weight: j.Weight,
			Machine: a.Machine, Start: a.Start,
		}
	}
	out.Flow = core.Flow(in, res.Schedule)
	out.TotalCost = core.TotalCost(in, res.Schedule, g)
	return out
}

// canonical marshals v deterministically for byte comparison.
func canonical(t *testing.T, v servedResult) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServedMatchesBatchFixed pins one hand-checked instance end to end,
// so a differential failure above has a small reproducer nearby.
func TestServedMatchesBatchFixed(t *testing.T) {
	_, ts := testServer(t, Config{})
	in := core.MustInstance(1, 5, []int64{0, 3, 20}, []int64{1, 1, 1})
	const g = 16
	batch, err := online.Alg1(in, g)
	if err != nil {
		t.Fatal(err)
	}
	got := driveServed(t, ts.URL, "alg1", in, g, true, 7)
	want := renderExpected(in, g, batch)
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("served %+v\nbatch  %+v", got, want)
	}
}
