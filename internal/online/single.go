package online

import (
	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/simul"
)

// singlePolicy captures how Algorithms 1 and 2 differ inside the shared
// single-machine engine.
type singlePolicy struct {
	alg              string // rule-identifier prefix for decision events
	order            func(a, b core.Job) bool
	countTrigger     bool // Alg1: |Q| >= G/T (as T*|Q| >= G)
	weightTrigger    bool // Alg2: sum w >= G/T (as T*sum >= G)
	queueFullTrigger bool // Alg2: |Q| >= T
	immediate        bool // Alg1: calibrate on arrival after a light interval
}

// queueTrigger evaluates the triggers that depend on the queue's contents
// alone (count, weight, queue-full), in cascade order. Between a queue's
// changes its answer is fixed.
func (p singlePolicy) queueTrigger(q *queue.JobQueue, T, g int64) Trigger {
	switch {
	case p.countTrigger && core.MustMul(int64(q.Len()), T) >= g:
		return TriggerCount
	case p.weightTrigger && core.MustMul(q.TotalWeight(), T) >= g:
		return TriggerWeight
	case p.queueFullTrigger && int64(q.Len()) >= T:
		return TriggerQueueFull
	}
	return TriggerNone
}

// decide is the trigger cascade of Algorithms 1 and 2 at an uncalibrated
// step t with a non-empty queue: the queue triggers, then the flow
// trigger, then the immediate trigger, which needs an arrival at t after
// an interval whose flow stayed below g/2.
func (p singlePolicy) decide(q *queue.JobQueue, T, g, t int64, lightInterval, arrived bool) Trigger {
	if tr := p.queueTrigger(q, T, g); tr != TriggerNone {
		return tr
	}
	if q.FlowIfScheduledFrom(t+1) >= g {
		return TriggerFlow
	}
	if p.immediate && lightInterval && arrived {
		return TriggerImmediate
	}
	return TriggerNone
}

// Alg1 runs Algorithm 1 of the paper (online unweighted calibration on one
// machine, 3-competitive). The instance must have P = 1 and unit weights.
func Alg1(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := checkInput(in, g, true, true); err != nil {
		return nil, err
	}
	pol := singlePolicy{
		alg:          "alg1",
		order:        queue.ByRelease,
		countTrigger: !o.FlowTriggerOnly,
		immediate:    !o.NoImmediateCalibrations && !o.FlowTriggerOnly,
	}
	return runSingle(in, g, pol, o), nil
}

// Alg2 runs Algorithm 2 of the paper (online weighted calibration on one
// machine, 12-competitive). The instance must have P = 1; weights are
// arbitrary positive integers.
func Alg2(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := checkInput(in, g, true, false); err != nil {
		return nil, err
	}
	order := queue.ByWeightDesc
	if o.LightestFirst {
		order = queue.ByWeightAsc
	}
	pol := singlePolicy{
		alg:              "alg2",
		order:            order,
		weightTrigger:    !o.FlowTriggerOnly,
		queueFullTrigger: !o.FlowTriggerOnly,
	}
	return runSingle(in, g, pol, o), nil
}

// runSingle is the shared engine for Algorithms 1 and 2. Each iteration of
// the loop either consumes an arrival, calibrates, schedules at least one
// job, or advances the clock to the next event (arrival or analytically
// solved flow-trigger time), so the fast path runs in O((n + calibrations)
// * queue cost) independent of the time horizon; with naive set the clock
// instead advances one step at a time, matching the paper's pseudocode
// line by line.
func runSingle(in *core.Instance, g int64, pol singlePolicy, o Options) *Result {
	naive := o.Naive
	q := queue.NewJobQueue(pol.order)
	arr := simul.NewArrivals(in)
	sched := core.NewSchedule(in.N())
	res := &Result{Schedule: sched}
	T := in.T
	tracer := newDecisionTracer(o.Sink, pol.alg, g)

	var calStart, calEnd int64 = -1, -1
	hadInterval := false
	var intervalFlow int64 // flow of jobs scheduled in the most recent interval

	calibrate := func(t int64, tr Trigger) {
		sched.Calibrate(0, t)
		res.Triggers = append(res.Triggers, tr)
		res.FlowAtCalibration = append(res.FlowAtCalibration, q.FlowIfScheduledFrom(t))
		if tracer != nil {
			tracer.emit(t, 0, tr, q, len(sched.Calendar))
		}
		calStart, calEnd = t, t+T
		hadInterval = true
		intervalFlow = 0
	}

	t := int64(0)
	for arr.Remaining() > 0 || !q.Empty() {
		// With an empty queue nothing can happen before the next arrival.
		if q.Empty() {
			nt, ok := arr.NextTime()
			if !ok {
				break
			}
			if nt > t {
				t = nt
			}
		}
		arrivedNow := false
		for _, j := range arr.PopAt(t) {
			q.Push(j)
			arrivedNow = true
		}

		calibrated := calStart >= 0 && calStart <= t && t < calEnd
		if !calibrated && !q.Empty() {
			if tr := pol.decide(q, T, g, t, hadInterval && 2*intervalFlow < g, arrivedNow); tr != TriggerNone {
				calibrate(t, tr)
				calibrated = true
			}
		}

		if calibrated && !q.Empty() {
			if naive {
				j := q.Pop()
				sched.Assign(j.ID, 0, t)
				intervalFlow += j.Flow(t)
				t++
				continue
			}
			// Batch-schedule until the interval ends, the queue drains, or
			// an arrival could change the pop order.
			end := calEnd
			if na, ok := arr.NextTime(); ok && na < end {
				end = na
			}
			for t < end && !q.Empty() {
				j := q.Pop()
				sched.Assign(j.ID, 0, t)
				intervalFlow += j.Flow(t)
				t++
			}
			continue
		}

		// Nothing happened at t: advance the clock.
		if naive {
			t++
			continue
		}
		next := int64(-1)
		if na, ok := arr.NextTime(); ok {
			next = na
		}
		if !q.Empty() {
			// The only trigger that can newly fire without an arrival is
			// the flow trigger.
			if tau := q.FlowTriggerStep(g, t); next < 0 || tau < next {
				next = tau
			}
		}
		if next < 0 {
			break
		}
		if next <= t {
			next = t + 1
		}
		t = next
	}
	return res
}
