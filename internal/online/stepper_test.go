package online

import (
	"math/rand/v2"
	"sort"
	"testing"

	"calibsched/internal/core"
)

// driveStepper runs a stepper over the instance's arrivals until all jobs
// are scheduled, returning the assembled schedule and triggers.
func driveStepper(st *Stepper, in *core.Instance) (*core.Schedule, []Trigger) {
	byTime := map[int64][]core.Job{}
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	scheduled := 0
	for scheduled < in.N() {
		ev := st.Step(byTime[st.Now()])
		if ev.Ran >= 0 {
			scheduled++
		}
		if st.Now() > in.MaxRelease()+1_000_000 {
			panic("stepper did not finish")
		}
	}
	return st.Schedule(in.N()), st.Triggers()
}

func TestStepperMatchesBatchAlg1(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	for trial := 0; trial < 300; trial++ {
		in := randomInstance(rng, 1, false)
		g := int64(rng.IntN(40))
		batch, err := Alg1(in, g)
		if err != nil {
			t.Fatal(err)
		}
		sched, triggers := driveStepper(NewAlg1Stepper(in.T, g), in)
		if err := core.Validate(in, sched); err != nil {
			t.Fatalf("trial %d: stepper schedule invalid: %v", trial, err)
		}
		if !sameSchedule(batch.Schedule, sched) {
			t.Fatalf("trial %d (G=%d T=%d): stepper != batch\nbatch: %v\nstep:  %v",
				trial, g, in.T, batch.Schedule.Assignments, sched.Assignments)
		}
		if len(triggers) != len(batch.Triggers) {
			t.Fatalf("trial %d: %d triggers vs batch %d", trial, len(triggers), len(batch.Triggers))
		}
		for i := range triggers {
			if triggers[i] != batch.Triggers[i] {
				t.Fatalf("trial %d: trigger %d = %v, batch %v", trial, i, triggers[i], batch.Triggers[i])
			}
		}
	}
}

func TestStepperMatchesBatchAlg2(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 2))
	for trial := 0; trial < 300; trial++ {
		in := randomInstance(rng, 1, true)
		g := int64(rng.IntN(50))
		for _, opt := range [][]Option{nil, {WithLightestFirst()}} {
			batch, err := Alg2(in, g, opt...)
			if err != nil {
				t.Fatal(err)
			}
			var st *Stepper
			if len(opt) == 0 {
				st = NewAlg2Stepper(in.T, g)
			} else {
				st = NewAlg2Stepper(in.T, g, WithLightestFirst())
			}
			sched, _ := driveStepper(st, in)
			if !sameSchedule(batch.Schedule, sched) {
				t.Fatalf("trial %d (G=%d): stepper != batch", trial, g)
			}
		}
	}
}

func TestStepperEvents(t *testing.T) {
	// One job at 0, T=20 >= G=10: count trigger at step 0, job runs at 0.
	st := NewAlg1Stepper(20, 10)
	if st.CalibratedNow() {
		t.Error("calibrated before any step")
	}
	ev := st.Step([]core.Job{{ID: 0, Release: 0, Weight: 1}})
	if !ev.Calibrated || ev.Trigger != TriggerCount || ev.Ran != 0 || ev.Time != 0 {
		t.Fatalf("event = %+v", ev)
	}
	if st.Now() != 1 {
		t.Errorf("Now = %d", st.Now())
	}
	if !st.CalibratedNow() {
		t.Error("interval should cover step 1")
	}
	if st.Pending() != 0 {
		t.Errorf("Pending = %d", st.Pending())
	}
	ev = st.Step(nil)
	if ev.Calibrated || ev.Ran != -1 {
		t.Errorf("idle step event = %+v", ev)
	}
}

func TestStepperRejectsTimeTravel(t *testing.T) {
	st := NewAlg1Stepper(5, 5)
	st.Step(nil) // step 0
	defer func() {
		if recover() == nil {
			t.Error("no panic on job released in the past")
		}
	}()
	st.Step([]core.Job{{ID: 0, Release: 0, Weight: 1}}) // step 1 fed a release-0 job
}

// TestStepperAdaptiveAdversary drives the Lemma 3.1 adversary literally:
// decisions are observed live instead of replayed.
func TestStepperAdaptiveAdversary(t *testing.T) {
	const T, G = 64, 32 // T >= G: Algorithm 1 calibrates at time 0
	st := NewAlg1Stepper(T, G)
	ev := st.Step([]core.Job{{ID: 0, Release: 0, Weight: 1}})
	if !ev.Calibrated {
		t.Fatal("expected eager calibration (T >= G)")
	}
	// Adversary answers with a job at time T.
	for st.Now() < T {
		st.Step(nil)
	}
	ran := -1
	for steps := 0; ran == -1 && steps < 10*int(T+G); steps++ {
		var arr []core.Job
		if st.Now() == T {
			arr = []core.Job{{ID: 1, Release: T, Weight: 1}}
		}
		ev := st.Step(arr)
		if ev.Ran == 1 {
			ran = 1
		}
	}
	if ran != 1 {
		t.Fatal("second job never ran")
	}
	sched := st.Schedule(2)
	in := core.MustInstance(1, T, []int64{0, T}, []int64{1, 1})
	if err := core.Validate(in, sched); err != nil {
		t.Fatal(err)
	}
	if got := core.TotalCost(in, sched, G); got != 2*G+2 {
		t.Errorf("adversary case-1 cost = %d, want %d", got, 2*G+2)
	}
}

// skipHorizon is how far past the last release a skipping driver asks
// to jump. Only an empty queue can jump that far, and with every job
// released an empty queue means the run is over.
const skipHorizon = 1 << 40

// driveLockstep runs two steppers over the instance: skip is driven the
// way the serving layer drives engines, calling SkipIdle up to the next
// release before every Step, and ref steps every tick literally. Each
// time skip's clock moves, ref is stepped up to it and every step it
// takes on the way must be quiet; then the clocks and MarshalState bytes
// must match before both simulate the same step. It returns the number
// of SkipIdle calls that moved the clock with jobs pending.
func driveLockstep(t *testing.T, skip, ref *Stepper, in *core.Instance) int {
	t.Helper()
	byTime := map[int64][]core.Job{}
	var times []int64
	for _, j := range in.Jobs {
		if _, ok := byTime[j.Release]; !ok {
			times = append(times, j.Release)
		}
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	skips := 0
	for scheduled := 0; scheduled < in.N(); {
		to := skip.Now() + skipHorizon
		if next, ok := nextReleaseAfter(times, skip.Now()); ok {
			to = next
		}
		before := skip.Now()
		skip.SkipIdle(to)
		if skip.Now() > to || skip.Now() < before {
			t.Fatalf("SkipIdle(%d) from %d moved the clock to %d", to, before, skip.Now())
		}
		if skip.Now() > before && skip.Pending() > 0 {
			skips++
		}
		for ref.Now() < skip.Now() {
			if ev := ref.Step(byTime[ref.Now()]); ev.Calibrated || ev.Ran >= 0 {
				t.Fatalf("SkipIdle from %d to %d jumped over event %+v", before, skip.Now(), ev)
			}
		}
		if ref.Now() != skip.Now() {
			t.Fatalf("clock %d, literal stepping %d", skip.Now(), ref.Now())
		}
		mustSameState(t, skip, ref)
		arr := byTime[skip.Now()]
		ev, refEv := skip.Step(arr), ref.Step(arr)
		if ev != refEv {
			t.Fatalf("step event %+v, literal %+v", ev, refEv)
		}
		if ev.Ran >= 0 {
			scheduled++
		}
		if skip.Now() > in.MaxRelease()+1_000_000 {
			t.Fatal("stepper did not finish")
		}
	}
	mustSameState(t, skip, ref)
	return skips
}

// mustSameState requires the two steppers' encoded states to be
// byte-identical.
func mustSameState(t *testing.T, a, b *Stepper) {
	t.Helper()
	as, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(as) != string(bs) {
		t.Fatalf("state diverged at %d:\nskip:    %s\nliteral: %s", a.Now(), as, bs)
	}
}

// nextReleaseAfter returns the first release time >= now.
func nextReleaseAfter(times []int64, now int64) (int64, bool) {
	for _, tm := range times {
		if tm >= now {
			return tm, true
		}
	}
	return 0, false
}

// TestSkipIdleMatchesIdleSteps pins the IdleSkipper contract
// differentially against literal Step(nil) loops over random sparse
// instances, in lockstep (see driveLockstep): schedule, triggers, clock
// and MarshalState bytes must be identical. The first 300 trials stretch
// releases so long idle gaps (empty queue) occur mid-run; the rest set
// G far above T*w so pending jobs wait for the flow trigger, the waiting
// stretches SkipIdle jumps in closed form, and some of those release
// bursts so intervals end with a queue trigger due, where it must not.
func TestSkipIdleMatchesIdleSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 3))
	waitingSkips := 0 // skips over waiting stretches in the high-G trials
	for trial := 0; trial < 450; trial++ {
		in := randomInstance(rng, 1, trial%2 == 1)
		// Stretch releases to open idle gaps far longer than T.
		stretch := int64(1 + rng.IntN(50))
		releases := make([]int64, in.N())
		weights := make([]int64, in.N())
		for i, j := range in.Jobs {
			releases[i] = j.Release * stretch
			weights[i] = j.Weight
		}
		g := int64(rng.IntN(40))
		waiting := trial >= 300
		if waiting {
			g = 200 + int64(rng.IntN(4000))
		}
		in = core.MustInstance(1, in.T, releases, weights).Canonicalize()
		if waiting && trial%4 == 1 {
			// Alg2 bursts, as a served session may see them: 20–39 jobs
			// released in [0,10), not canonicalized, with T <= 4, so
			// intervals often end with queue-full due again.
			n := 20 + rng.IntN(20)
			releases, weights = make([]int64, n), make([]int64, n)
			for i := range releases {
				releases[i] = int64(rng.IntN(10))
				weights[i] = 1 + int64(rng.IntN(6))
			}
			in = core.MustInstance(1, int64(1+rng.IntN(4)), releases, weights)
		}

		mk := NewAlg2Stepper
		if trial%2 == 0 {
			mk = NewAlg1Stepper
		}
		skipSt, refSt := mk(in.T, g), mk(in.T, g)
		skips := driveLockstep(t, skipSt, refSt, in)
		if waiting {
			waitingSkips += skips
		}

		refSched, refTriggers := refSt.Schedule(in.N()), refSt.Triggers()
		skipSched, skipTriggers := skipSt.Schedule(in.N()), skipSt.Triggers()
		if !sameSchedule(refSched, skipSched) {
			t.Fatalf("trial %d (stretch=%d G=%d): skip != literal\nref:  %v\nskip: %v",
				trial, stretch, g, refSched.Assignments, skipSched.Assignments)
		}
		if len(refTriggers) != len(skipTriggers) {
			t.Fatalf("trial %d: %d triggers vs %d", trial, len(skipTriggers), len(refTriggers))
		}
		for i := range refTriggers {
			if refTriggers[i] != skipTriggers[i] {
				t.Fatalf("trial %d: trigger %d = %v, ref %v", trial, i, skipTriggers[i], refTriggers[i])
			}
		}
	}
	if waitingSkips == 0 {
		t.Fatal("no waiting stretch was skipped")
	}
}

// TestSkipIdleGuards pins the edge contract on one fixture (T=4, G=8):
// a no-op when the target is in the past, a stop at the flow-trigger
// step with a job pending, and a no-op mid-interval with jobs pending;
// then a no-op where an interval ends with a queue trigger due.
func TestSkipIdleGuards(t *testing.T) {
	st := NewAlg2Stepper(4, 8)
	st.SkipIdle(10)
	if st.Now() != 10 {
		t.Fatalf("Now = %d after SkipIdle(10)", st.Now())
	}
	st.SkipIdle(3) // past: no-op
	if st.Now() != 10 {
		t.Fatalf("Now = %d after no-op skip, want 10", st.Now())
	}
	// One weight-1 job at 10: W*T = 4 < G and |Q| < T, so only the flow
	// trigger can fire; f(tau+1) = (tau+1) - 9 >= 8 first at tau = 16.
	if ev := st.Step([]core.Job{{ID: 0, Release: 10, Weight: 1}}); ev.Calibrated {
		t.Fatalf("calibrated at 10: %+v", ev)
	}
	st.SkipIdle(14) // short of the trigger: goes all the way
	if st.Now() != 14 {
		t.Fatalf("Now = %d after SkipIdle(14), want 14", st.Now())
	}
	st.SkipIdle(100)
	if st.Now() != 16 {
		t.Fatalf("Now = %d after SkipIdle(100), want the flow-trigger step 16", st.Now())
	}
	st.SkipIdle(100) // the trigger fires at 16: nothing to skip
	if st.Now() != 16 {
		t.Fatalf("Now = %d after a second SkipIdle(100), want 16", st.Now())
	}
	ev := st.Step(nil)
	if !ev.Calibrated || ev.Trigger != TriggerFlow || ev.Ran != 0 {
		t.Fatalf("step 16 = %+v, want a flow calibration running job 0", ev)
	}
	// Two arrivals inside the interval [16,20): one runs, one waits.
	st.Step([]core.Job{{ID: 1, Release: 17, Weight: 1}, {ID: 2, Release: 17, Weight: 1}})
	if st.Pending() != 1 || !st.CalibratedNow() {
		t.Fatalf("pending %d, calibrated %v at %d", st.Pending(), st.CalibratedNow(), st.Now())
	}
	st.SkipIdle(100) // a job runs at 18: no-op
	if st.Now() != 18 {
		t.Fatalf("Now = %d after a mid-interval SkipIdle, want 18", st.Now())
	}

	// An interval that ends with a queue trigger due: T=2, so three jobs
	// fire queue-full at 0, and two more arrive inside [0,2). At 2 the
	// machine is uncalibrated with three jobs pending, far from the flow
	// trigger, but queue-full fires again: no-op.
	st = NewAlg2Stepper(2, 1000)
	st.Step([]core.Job{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}})
	st.Step([]core.Job{{ID: 3, Release: 1, Weight: 1}, {ID: 4, Release: 1, Weight: 1}})
	if st.CalibratedNow() || st.Pending() != 3 {
		t.Fatalf("calibrated %v, pending %d at %d", st.CalibratedNow(), st.Pending(), st.Now())
	}
	st.SkipIdle(100)
	if st.Now() != 2 {
		t.Fatalf("Now = %d after SkipIdle with a queue trigger due, want 2", st.Now())
	}
	if ev := st.Step(nil); ev.Trigger != TriggerQueueFull {
		t.Fatalf("step 2 = %+v, want a queue-full calibration", ev)
	}
}

// BenchmarkStepperWaiting measures a waiting-dominated stretch shaped like
// a bulk step request: alg2 with G=4096 far above T*w, T=16, and jobs of
// weight 1–3 arriving at about 0.02 per step. On 87% of the steps a queue
// of up to about ten jobs (4.4 on average) waits for the flow trigger.
// One op is a 10^5-step stretch on a
// fresh stepper. "skip" drives it the way the session worker does
// (SkipIdle up to the next release, then Step); "literal" calls Step on
// every tick. ns/step is per simulated step.
func BenchmarkStepperWaiting(b *testing.B) {
	const T, G, steps = 16, 4096, 100_000
	rng := rand.New(rand.NewPCG(4096, 16))
	var times []int64
	var arrivals [][]core.Job // arrivals[i] are released at times[i]
	for t := int64(0); t < steps; t++ {
		if rng.IntN(50) == 0 {
			times = append(times, t)
			arrivals = append(arrivals, []core.Job{{ID: len(times) - 1, Release: t, Weight: 1 + int64(rng.IntN(3))}})
		}
	}
	for _, skip := range []bool{true, false} {
		name := "literal"
		if skip {
			name = "skip"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := NewAlg2Stepper(T, G)
				next := 0
				for st.Now() < steps {
					if skip {
						to := int64(steps)
						if next < len(times) {
							to = times[next]
						}
						if st.SkipIdle(to); st.Now() >= steps {
							break
						}
					}
					var arr []core.Job
					if next < len(times) && times[next] == st.Now() {
						arr = arrivals[next]
						next++
					}
					st.Step(arr)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/step")
		})
	}
}
