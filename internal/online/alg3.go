package online

import (
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/simul"
)

// Alg3 runs Algorithm 3 of the paper (online unweighted calibration on
// multiple machines, 12-competitive). The instance may have any P >= 1;
// weights must be 1.
//
// The paper's algorithm assigns jobs to intervals explicitly the moment it
// calibrates (so they stop counting as waiting jobs), and notes that in
// practice "one would almost certainly only use Algorithm 3 to determine
// calibration times, and use Observation 2.1 for the actual assignments".
// That replay is the default here; WithoutObservationReplay keeps the
// explicit packing (the variant actually analyzed), and E11 measures the
// gap.
func Alg3(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := checkInput(in, g, false, true); err != nil {
		return nil, err
	}
	res := runAlg3(in, g, o)
	if o.NoObservationReplay {
		return res, nil
	}
	times := make([]int64, len(res.Schedule.Calendar))
	for i, c := range res.Schedule.Calendar.Sorted() {
		times[i] = c.Start
	}
	replayed, err := AssignTimes(in, times)
	if err != nil {
		// The explicit packing proves the calendar has room for every job,
		// and the Observation 2.1 assignment is optimal for the calendar,
		// so replay cannot fail.
		panic(fmt.Sprintf("online: Observation 2.1 replay of Algorithm 3 calendar failed: %v", err))
	}
	return &Result{Schedule: replayed, Triggers: res.Triggers}, nil
}

// alg3Machine tracks one machine's calibrated horizon and slot occupancy.
type alg3Machine struct {
	end      int64          // one past the last calibrated step; 0 if never calibrated
	occupied map[int64]bool // occupied time steps (within calibrated ranges)
	calIdx   int            // index into the calendar of this machine's latest calibration
}

func (m *alg3Machine) coveredAt(t int64) bool { return t < m.end }

// firstFree returns the earliest step in [t, m.end) that is unoccupied, or
// -1 if none. Calibrated ranges are contiguous up to end because
// calibrations only extend the horizon forward from the current time.
func (m *alg3Machine) firstFree(t int64) int64 {
	for s := t; s < m.end; s++ {
		if !m.occupied[s] {
			return s
		}
	}
	return -1
}

// hasFreeSlot reports whether any step in [from, to) is unoccupied.
func (m *alg3Machine) hasFreeSlot(from, to int64) bool {
	for s := from; s < to; s++ {
		if !m.occupied[s] {
			return true
		}
	}
	return false
}

func runAlg3(in *core.Instance, g int64, o Options) *Result {
	naive := o.Naive
	q := queue.NewJobQueue(queue.ByRelease)
	arr := simul.NewArrivals(in)
	sched := core.NewSchedule(in.N())
	res := &Result{Schedule: sched}
	T := in.T
	tracer := newDecisionTracer(o.Sink, "alg3", g)

	machines := make([]alg3Machine, in.P)
	for i := range machines {
		machines[i].occupied = make(map[int64]bool)
		machines[i].calIdx = -1
	}
	attribute := func(m *alg3Machine, job int) {
		res.JobsByCalibration[m.calIdx] = append(res.JobsByCalibration[m.calIdx], job)
	}
	rr := 0 // round-robin cursor

	// packCap is the paper's "up to G/T jobs" per fresh interval,
	// implemented as ceil(G/T) and at least 1 so each calibration makes
	// progress even when G < T.
	packCap := int64(1)
	if g > 0 {
		packCap = simul.CeilDiv(g, T)
	}

	t := int64(0)
	for arr.Remaining() > 0 || !q.Empty() {
		if q.Empty() {
			nt, ok := arr.NextTime()
			if !ok {
				break
			}
			if nt > t {
				t = nt
			}
		}
		for _, j := range arr.PopAt(t) {
			q.Push(j)
		}

		// Steps 6-9: every calibrated machine idle at t runs the
		// earliest-released waiting job.
		for mi := range machines {
			if q.Empty() {
				break
			}
			m := &machines[mi]
			if m.coveredAt(t) && !m.occupied[t] {
				j := q.Pop()
				sched.Assign(j.ID, mi, t)
				m.occupied[t] = true
				attribute(m, j.ID)
			}
		}

		// Steps 10-14: while the waiting jobs warrant it, calibrate the
		// next machine round-robin and pack up to ceil(G/T) waiting jobs
		// into the fresh interval in release-time order.
		for !q.Empty() {
			tr := TriggerNone
			if core.MustMul(int64(q.Len()), T) >= g {
				tr = TriggerCount
			} else if q.FlowIfScheduledFrom(t+1) >= g {
				tr = TriggerFlow
			} else {
				break
			}
			mi := rr % in.P
			m := &machines[mi]
			// Guard against the degenerate case the paper's pseudocode
			// leaves open: if the round-robin machine's window [t, t+T) is
			// already fully occupied, recalibrating it now adds no
			// capacity (and the literal while-loop would spin forever).
			// Defer until a slot frees up. See DESIGN.md note 7.
			if !m.hasFreeSlot(t, t+T) {
				break
			}
			rr++
			sched.Calibrate(mi, t)
			res.Triggers = append(res.Triggers, tr)
			if tracer != nil {
				tracer.emit(t, mi, tr, q, len(sched.Calendar))
			}
			res.JobsByCalibration = append(res.JobsByCalibration, nil)
			m.calIdx = len(res.JobsByCalibration) - 1
			if t+T > m.end {
				m.end = t + T
			}
			packed := int64(0)
			for slot := t; slot < t+T && packed < packCap && !q.Empty(); slot++ {
				if m.occupied[slot] {
					continue
				}
				j := q.Pop()
				sched.Assign(j.ID, mi, slot)
				m.occupied[slot] = true
				attribute(m, j.ID)
				packed++
			}
			if packed == 0 && !q.Empty() {
				// A fresh interval always exposes at least one free slot
				// (the previous interval on this machine started strictly
				// earlier, so it ends strictly earlier than t+T).
				panic("online: Algorithm 3 packed no job into a fresh interval")
			}
		}

		if naive {
			t++
			continue
		}
		// Advance to the next event: an arrival, the analytic flow-trigger
		// time, or the first moment a calibrated machine has a free slot.
		next := int64(-1)
		consider := func(v int64) {
			if v > t && (next < 0 || v < next) {
				next = v
			}
		}
		if na, ok := arr.NextTime(); ok {
			consider(na)
		}
		if !q.Empty() {
			consider(q.FlowTriggerStep(g, t))
			for mi := range machines {
				if free := machines[mi].firstFree(t + 1); free >= 0 {
					consider(free)
				}
			}
		}
		if next < 0 {
			break
		}
		t = next
	}
	return res
}
