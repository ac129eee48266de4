// Package queue provides the priority queues used by the online calibration
// algorithms: a generic binary heap plus job-specific orderings (earliest
// release first for the unweighted algorithms, heaviest weight first with
// earliest-release tie-break for the weighted algorithm, matching
// Observation 2.1 of the paper).
//
// The heap is written from scratch rather than wrapping container/heap so
// the hot paths are monomorphic and allocation-free after warm-up.
package queue

import (
	"calibsched/internal/core"
	"calibsched/internal/simul"
)

// Heap is a binary min-heap under the supplied less function. The zero
// value is not usable; construct with New.
type Heap[T any] struct {
	data []T
	less func(a, b T) bool
}

// New returns an empty heap ordered by less (the "smallest" element per
// less is popped first).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.data) }

// Empty reports whether the heap has no elements.
func (h *Heap[T]) Empty() bool { return len(h.data) == 0 }

// Push inserts v.
func (h *Heap[T]) Push(v T) {
	h.data = append(h.data, v)
	h.up(len(h.data) - 1)
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap.
func (h *Heap[T]) Peek() T {
	if len(h.data) == 0 {
		panic("queue: Peek on empty heap")
	}
	return h.data[0]
}

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	if len(h.data) == 0 {
		panic("queue: Pop on empty heap")
	}
	top := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	var zero T
	h.data[last] = zero
	h.data = h.data[:last]
	if len(h.data) > 0 {
		h.down(0)
	}
	return top
}

// Items returns the heap's backing slice in heap order (not sorted). The
// slice must not be modified; it is exposed for iteration over the current
// contents (e.g. summing queued weights).
func (h *Heap[T]) Items() []T { return h.data }

// Clear removes all elements, retaining capacity.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.data {
		h.data[i] = zero
	}
	h.data = h.data[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.data[i], h.data[parent]) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.data[l], h.data[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.data[r], h.data[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
}

// ByRelease orders jobs by earliest release time, breaking ties by ID.
// This is the queue order of Algorithms 1 and 3.
func ByRelease(a, b core.Job) bool {
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.ID < b.ID
}

// ByWeightDesc orders jobs heaviest first, breaking ties by earliest
// release then ID — the extraction order mandated by Observation 2.1 (and
// used by Algorithm 2; see DESIGN.md note 1 on the paper's line-13 typo).
func ByWeightDesc(a, b core.Job) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.ID < b.ID
}

// ByWeightAsc orders jobs lightest first with the same tie-breaks; it
// implements the paper's literal Algorithm 2 line 13 for the E8 ablation.
func ByWeightAsc(a, b core.Job) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.ID < b.ID
}

// JobQueue is a heap of jobs with cached aggregate statistics: the total
// weight of queued jobs, the sum of their release times, and the constant
// term of the flow function, which together let the online algorithms
// evaluate their calibration triggers in O(1) while the queue is unchanged.
type JobQueue struct {
	heap        *Heap[core.Job]
	totalWeight int64
	releaseSum  int64 // sum of r_j over queued jobs, maintained incrementally

	// flowC caches the C of FlowCoefficients for weighted queues while
	// flowOK is set; Push and Pop clear flowOK. scratch is the drain
	// buffer a recompute reuses, so recomputes allocate nothing once its
	// capacity has grown to the queue's high-water mark.
	flowC   int64
	flowOK  bool
	scratch Heap[core.Job]
}

// NewJobQueue returns an empty job queue under the given order.
func NewJobQueue(less func(a, b core.Job) bool) *JobQueue {
	return &JobQueue{heap: New(less), scratch: Heap[core.Job]{less: less}}
}

// Len returns the number of queued jobs.
func (q *JobQueue) Len() int { return q.heap.Len() }

// Empty reports whether the queue is empty.
func (q *JobQueue) Empty() bool { return q.heap.Empty() }

// Push enqueues j.
func (q *JobQueue) Push(j core.Job) {
	q.heap.Push(j)
	q.totalWeight += j.Weight
	q.releaseSum += j.Release
	q.flowOK = false
}

// Pop dequeues the front job.
func (q *JobQueue) Pop() core.Job {
	j := q.heap.Pop()
	q.totalWeight -= j.Weight
	q.releaseSum -= j.Release
	q.flowOK = false
	return j
}

// Peek returns the front job without dequeueing.
func (q *JobQueue) Peek() core.Job { return q.heap.Peek() }

// TotalWeight returns the sum of queued job weights.
func (q *JobQueue) TotalWeight() int64 { return q.totalWeight }

// Jobs returns the queued jobs in heap order (not sorted); the slice must
// not be modified.
func (q *JobQueue) Jobs() []core.Job { return q.heap.Items() }

// FlowIfScheduledFrom returns the total weighted flow the queued jobs would
// incur if scheduled consecutively starting at time start, in the order the
// queue would pop them. This is the quantity "f <- flow cost of scheduling
// all j in Q starting at t+1" in Algorithms 1–3.
func (q *JobQueue) FlowIfScheduledFrom(start int64) int64 {
	w, c := q.FlowCoefficients()
	return w*start + c
}

// FlowCoefficients returns (W, C) such that FlowIfScheduledFrom(start) ==
// W*start + C for every start large enough that no queued job would begin
// before its release (always true in the algorithms, which only evaluate f
// at times >= every queued release). W is the total queued weight.
//
// Job k of m (k = 0..m-1, in pop order) completes at start+k+1, so
// C = sum_k w_k*(k+1-r_k). For unit weights the order does not matter and
// C = m(m+1)/2 - sum r_k comes from cached sums. For weighted queues the
// pop order matters (Observation 2.1): C is computed by draining a copy in
// pop order, O(m log m), and cached until the next Push or Pop, so a
// repeated query on an unchanged queue is O(1).
func (q *JobQueue) FlowCoefficients() (w, c int64) {
	m := int64(q.heap.Len())
	if m == 0 {
		return 0, 0
	}
	if q.totalWeight == m { // all unit weights: order-independent
		return m, m*(m+1)/2 - q.releaseSum
	}
	if !q.flowOK {
		q.scratch.data = append(q.scratch.data[:0], q.heap.data...)
		q.flowC = 0
		for k := int64(1); !q.scratch.Empty(); k++ {
			j := q.scratch.Pop()
			q.flowC += j.Weight * (k - j.Release)
		}
		q.flowOK = true
	}
	return q.totalWeight, q.flowC
}

// FlowTriggerStep returns the first step after t at which the flow
// trigger of Algorithms 1–3 fires on the unchanged queue: the smallest
// tau > t with FlowIfScheduledFrom(tau+1) = W*(tau+1) + C >= g. f is
// affine in the start time with slope W >= 1, so this is one ceiling
// division. The queue must be non-empty.
func (q *JobQueue) FlowTriggerStep(g, t int64) int64 {
	w, c := q.FlowCoefficients()
	return max(simul.CeilDiv(g-c, w)-1, t+1)
}
