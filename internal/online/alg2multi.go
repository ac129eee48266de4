package online

import (
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/simul"
)

// Alg2Multi schedules weighted jobs on multiple machines online — the
// setting the paper leaves open ("constant-competitive for weighted jobs
// on a single machine"; no weighted multi-machine algorithm is given).
//
// EXTENSION, NOT FROM THE PAPER. The algorithm fuses Algorithm 2's
// triggers with Algorithm 3's round-robin calendar construction:
//
//   - maintain one queue of waiting jobs ordered heaviest-first;
//   - while the queued weight reaches G/T, or T jobs wait, or the
//     prospective flow reaches G: calibrate the next machine round-robin
//     and reserve up to ceil(G/T) waiting jobs for it (heaviest first),
//     so they stop counting toward further triggers;
//   - the final assignment replays the calendar through the Observation
//     2.1 list scheduler, which is optimal for the calendar.
//
// No competitive ratio is proved here; experiment E15 measures it against
// the weighted Figure 1 LP bound (worst measured cells are small constant
// factors). On P = 1 the calendar decisions coincide with Algorithm 2's
// except that reserved jobs stop feeding triggers one step earlier, so
// costs may differ slightly in either direction on ties.
func Alg2Multi(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := checkInput(in, g, false, false); err != nil {
		return nil, err
	}
	res := runAlg2Multi(in, g, o)
	if o.NoObservationReplay {
		return res, nil
	}
	times := make([]int64, len(res.Schedule.Calendar))
	for i, c := range res.Schedule.Calendar.Sorted() {
		times[i] = c.Start
	}
	replayed, err := AssignTimes(in, times)
	if err != nil {
		panic(fmt.Sprintf("online: Observation 2.1 replay of Alg2Multi calendar failed: %v", err))
	}
	return &Result{Schedule: replayed, Triggers: res.Triggers}, nil
}

func runAlg2Multi(in *core.Instance, g int64, o Options) *Result {
	naive := o.Naive
	q := queue.NewJobQueue(queue.ByWeightDesc)
	arr := simul.NewArrivals(in)
	sched := core.NewSchedule(in.N())
	res := &Result{Schedule: sched}
	T := in.T
	tracer := newDecisionTracer(o.Sink, "alg2multi", g)

	machines := make([]alg3Machine, in.P)
	for i := range machines {
		machines[i].occupied = make(map[int64]bool)
		machines[i].calIdx = -1
	}
	rr := 0
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

		// Serve idle covered machines heaviest-first.
		for mi := range machines {
			if q.Empty() {
				break
			}
			m := &machines[mi]
			if m.coveredAt(t) && !m.occupied[t] {
				j := q.Pop()
				sched.Assign(j.ID, mi, t)
				m.occupied[t] = true
			}
		}

		// Calibrate while a trigger holds, reserving jobs per interval.
		for !q.Empty() {
			tr := TriggerNone
			switch {
			case core.MustMul(q.TotalWeight(), T) >= g:
				tr = TriggerWeight
			case int64(q.Len()) >= T:
				tr = TriggerQueueFull
			case q.FlowIfScheduledFrom(t+1) >= g:
				tr = TriggerFlow
			}
			if tr == TriggerNone {
				break
			}
			mi := rr % in.P
			m := &machines[mi]
			if !m.hasFreeSlot(t, t+T) {
				break // same degenerate-recalibration guard as Algorithm 3
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
				res.JobsByCalibration[m.calIdx] = append(res.JobsByCalibration[m.calIdx], j.ID)
				packed++
			}
			if packed == 0 && !q.Empty() {
				panic("online: Alg2Multi packed no job into a fresh interval")
			}
		}

		if naive {
			t++
			continue
		}
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
