package queue

import (
	"testing"
	"testing/quick"

	"calibsched/internal/core"
)

// TestQuickFlowLinearity: FlowIfScheduledFrom is linear in the start time
// with slope equal to the total queued weight.
func TestQuickFlowLinearity(t *testing.T) {
	f := func(relSeeds, wSeeds []uint8, delta uint8) bool {
		q := NewJobQueue(ByWeightDesc)
		n := len(relSeeds)
		if len(wSeeds) < n {
			n = len(wSeeds)
		}
		if n > 20 {
			n = 20
		}
		for i := 0; i < n; i++ {
			q.Push(core.Job{ID: i, Release: int64(relSeeds[i] % 30), Weight: 1 + int64(wSeeds[i]%7)})
		}
		base := int64(40)
		d := int64(delta%16) + 1
		f0 := q.FlowIfScheduledFrom(base)
		f1 := q.FlowIfScheduledFrom(base + d)
		return f1-f0 == d*q.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFlowCoefficientsCache: the cached flow constant never goes
// stale. Random interleavings of Push, Pop and FlowCoefficients (queries
// often repeat back to back, so cache hits are exercised) must answer
// every query exactly as a from-scratch drain of the current contents,
// under every queue order, with unit and with mixed weights.
func TestQuickFlowCoefficientsCache(t *testing.T) {
	orders := []struct {
		name string
		less func(a, b core.Job) bool
	}{{"ByWeightDesc", ByWeightDesc}, {"ByWeightAsc", ByWeightAsc}, {"ByRelease", ByRelease}}
	const start = 100 // after every release below
	for _, o := range orders {
		for _, unit := range []bool{true, false} {
			f := func(ops []uint8) bool {
				q := NewJobQueue(o.less)
				id := 0
				for _, op := range ops {
					switch {
					case op%4 == 0 && !q.Empty():
						q.Pop()
					case op%4 == 1:
						w, c := q.FlowCoefficients()
						if w != q.TotalWeight() || w*start+c != flowByDraining(q.Jobs(), o.less, start) {
							return false
						}
					default:
						weight := int64(1)
						if !unit {
							weight = 1 + int64(op>>4)%7
						}
						q.Push(core.Job{ID: id, Release: int64(op % 23), Weight: weight})
						id++
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatalf("%s unit=%v: %v", o.name, unit, err)
			}
		}
	}
}

// TestFlowCoefficientsAllocs: on a weighted queue a repeated query on an
// unchanged queue, and a recompute once the scratch buffer has grown,
// allocate nothing.
func TestFlowCoefficientsAllocs(t *testing.T) {
	q := NewJobQueue(ByWeightDesc)
	for i := 0; i < 64; i++ {
		q.Push(core.Job{ID: i, Release: int64(i % 13), Weight: 1 + int64(i%5)})
	}
	q.FlowCoefficients() // warm-up: grows the scratch buffer
	if a := testing.AllocsPerRun(100, func() { q.FlowCoefficients() }); a != 0 {
		t.Errorf("repeated query: %v allocs/op, want 0", a)
	}
	recompute := func() {
		q.Push(q.Pop()) // invalidates the cache, keeps the length
		q.FlowCoefficients()
	}
	if a := testing.AllocsPerRun(100, recompute); a != 0 {
		t.Errorf("recompute after warm-up: %v allocs/op, want 0", a)
	}
}

// TestQuickFlowTriggerStep: FlowTriggerStep(g, t) is the smallest
// tau > t with FlowIfScheduledFrom(tau+1) >= g.
func TestQuickFlowTriggerStep(t *testing.T) {
	f := func(relSeeds, wSeeds []uint8, gSeed uint16, tSeed uint8) bool {
		q := NewJobQueue(ByWeightDesc)
		for i := 0; i < len(relSeeds) && i < len(wSeeds) && i < 12; i++ {
			q.Push(core.Job{ID: i, Release: int64(relSeeds[i] % 30), Weight: 1 + int64(wSeeds[i]%7)})
		}
		if q.Empty() {
			return true
		}
		g := int64(gSeed % 5000)
		now := 30 + int64(tSeed)
		tau := q.FlowTriggerStep(g, now)
		if tau <= now || q.FlowIfScheduledFrom(tau+1) < g {
			return false
		}
		return tau == now+1 || q.FlowIfScheduledFrom(tau) < g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAggregatesMatchRecount: cached totals equal recomputed totals
// after arbitrary push/pop interleavings.
func TestQuickAggregatesMatchRecount(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewJobQueue(ByRelease)
		id := 0
		for _, op := range ops {
			if q.Empty() || op%3 > 0 {
				q.Push(core.Job{ID: id, Release: int64(op % 17), Weight: 1 + int64(op%5)})
				id++
			} else {
				q.Pop()
			}
		}
		var w int64
		for _, j := range q.Jobs() {
			w += j.Weight
		}
		return w == q.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeapPopMonotone: successive pops never go backward under the
// heap's order.
func TestQuickHeapPopMonotone(t *testing.T) {
	f := func(vals []int32) bool {
		h := New(func(a, b int32) bool { return a < b })
		for _, v := range vals {
			h.Push(v)
		}
		prev, first := int32(0), true
		for !h.Empty() {
			v := h.Pop()
			if !first && v < prev {
				return false
			}
			prev, first = v, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
