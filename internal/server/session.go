package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/online"
	"calibsched/internal/queue"
	"calibsched/internal/server/metrics"
	"calibsched/internal/trace"
)

// session is one live scheduling session: an online.Engine plus a bounded
// buffer of accepted-but-not-yet-released arrivals, owned by a single
// worker goroutine. All engine and buffer state is touched only by the
// worker, so the scheduling hot path needs no locks; HTTP handlers submit
// closures through do and block for the reply, which serializes every
// operation per session while keeping distinct sessions fully concurrent.
type session struct {
	id        string
	spec      online.EngineSpec
	t, g      int64
	maxBuffer int

	cmds chan func()
	quit chan struct{} // closed by stop(): worker drains and exits
	done chan struct{} // closed by the worker on exit
	stop sync.Once

	// lastActive is the unix-nano time of the last accepted command,
	// read by the manager's idle janitor.
	lastActive atomic.Int64

	// depth is this session's live contribution to the global
	// metrics.QueueDepth gauge. It is the accounting of record for
	// teardown: retire subtracts depth.Swap(0), not a rederived buffer
	// length, so the gauge returns exactly what this session added even
	// if a panic interrupted an operation between buffer mutation and
	// metric update (the staleness bug the janitor used to expose).
	depth atomic.Int64

	// ring buffers the engine's calibration decision events; written by
	// the worker via the engine's sink, read directly (and concurrently)
	// by the HTTP trace handler. trace.Ring synchronizes internally.
	ring *trace.Ring

	// Worker-owned state. Never touched outside the worker goroutine
	// (boot recovery counts: it owns the session until go s.work()).
	eng    online.Engine
	buffer *queue.Heap[core.Job] // future arrivals, ordered by (Release, ID)
	jobs   []core.Job            // every accepted job, indexed by ID
	broken error                 // sticky failure from a recovered panic

	// skipper caches the engine's IdleSkipper capability (nil when the
	// backend can't fast-forward); refreshed whenever eng is replaced
	// (snapshot restore). Worker-owned like eng.
	skipper online.IdleSkipper

	// arrivals is the maturation scratch slice reused across every
	// sub-step of every Step call, so feeding buffered jobs to the
	// engine allocates nothing in steady state. Worker-owned.
	arrivals []core.Job

	// per is the write-ahead persistence hook; nil runs in-memory only,
	// and every persistence call sits behind that one pointer check so
	// the nil path costs nothing on the hot path.
	per *persister
	// replaying is set while boot recovery replays logged commands:
	// appends and traffic counters are skipped (the records are already
	// on disk and were counted in their first life) and admission
	// backpressure is bypassed (accepted is accepted), but state
	// mutations and the queue-depth gauge apply normally.
	replaying bool
}

// newSession builds a session and starts its worker.
func newSession(id string, spec online.EngineSpec, t, g int64, maxBuffer, traceRing int, per *persister, now time.Time) *session {
	s := makeSession(id, spec, t, g, maxBuffer, traceRing, per, now)
	go s.work()
	return s
}

// makeSession builds a session without starting the worker, so boot
// recovery can replay state into it first.
func makeSession(id string, spec online.EngineSpec, t, g int64, maxBuffer, traceRing int, per *persister, now time.Time) *session {
	ring := trace.NewRing(traceRing)
	s := &session{
		id:        id,
		spec:      spec,
		t:         t,
		g:         g,
		maxBuffer: maxBuffer,
		ring:      ring,
		per:       per,
		cmds:      make(chan func()), // unbuffered: a submitted command is always executed
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		eng:       spec.New(t, g, online.WithSink(ring)),
		buffer: queue.New(func(a, b core.Job) bool {
			if a.Release != b.Release {
				return a.Release < b.Release
			}
			return a.ID < b.ID
		}),
	}
	s.skipper, _ = s.eng.(online.IdleSkipper)
	s.lastActive.Store(now.UnixNano())
	return s
}

// noEvents is the shared empty event list for quiet step batches. Its
// capacity is zero, so any append allocates a fresh backing array — the
// shared value itself is never mutated.
var noEvents = make([]StepEventJSON, 0)

// ranPool recycles the per-command completion channels of doTraced. The
// channels are buffered (capacity 1) so completion is signalled by a
// send, which unlike close leaves the channel reusable.
var ranPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// work is the session's worker loop. On quit it finishes every command
// that was already accepted (the channel is unbuffered, so "accepted"
// means a handler is already blocked on the reply) and exits.
func (s *session) work() {
	defer close(s.done)
	for {
		select {
		case fn := <-s.cmds:
			fn()
		case <-s.quit:
			for {
				select {
				case fn := <-s.cmds:
					fn()
				default:
					return
				}
			}
		}
	}
}

// halt asks the worker to exit after draining in-flight work. Safe to
// call multiple times; does not wait (read s.done for that).
func (s *session) halt() {
	s.stop.Do(func() { close(s.quit) })
}

// do runs fn on the worker and waits for it to finish. It fails with a
// 503 once the session has shut down.
func (s *session) do(fn func()) error { return s.doTraced(nil, fn) }

// doTraced is do with latency attribution: when act is recording, the
// gap between handler submit and worker pickup lands as a queue-wait
// phase, stamped on the worker goroutine. The worker writes into act
// directly — safe without locks because the handler blocks on ran until
// the closure finishes, so ownership is handed off, never shared.
func (s *session) doTraced(act *trace.Active, fn func()) error {
	ran := ranPool.Get().(chan struct{})
	var submitted time.Time
	if act != nil {
		submitted = time.Now()
	}
	wrapped := func() {
		defer func() { ran <- struct{}{} }()
		if act != nil {
			act.Phase(trace.PhaseQueueWait, submitted, time.Since(submitted))
		}
		fn()
	}
	select {
	case s.cmds <- wrapped:
		s.lastActive.Store(time.Now().UnixNano())
		<-ran
		ranPool.Put(ran)
		return nil
	case <-s.done:
		// wrapped was never submitted, so nothing will ever send on ran;
		// it is clean for reuse.
		ranPool.Put(ran)
		return &apiError{status: 503, msg: fmt.Sprintf("session %s is shut down", s.id)}
	}
}

// guard wraps a worker-side operation: a broken session stays broken, and
// a panic (e.g. int64 overflow in the engine's exact cost arithmetic) is
// converted into a sticky error instead of killing the daemon.
func (s *session) guard(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.broken = &apiError{status: 500, msg: fmt.Sprintf("session %s failed during %s: %v", s.id, op, r)}
			err = s.broken
		}
	}()
	if s.broken != nil {
		return s.broken
	}
	return fn()
}

// Arrivals buffers a batch of jobs atomically: every job is validated
// against the session clock, the weight contract, and the buffer bound
// before any is admitted. act, when recording, receives the queue-wait
// and persistence phases (nil for untraced calls).
func (s *session) Arrivals(specs []JobSpec, act *trace.Active) (resp ArrivalsResponse, err error) {
	doErr := s.doTraced(act, func() {
		err = s.guard("arrivals", func() error {
			resp, err = s.admit(specs, act)
			return err
		})
	})
	if doErr != nil {
		return ArrivalsResponse{}, doErr
	}
	return resp, err
}

func (s *session) admit(specs []JobSpec, act *trace.Active) (ArrivalsResponse, error) {
	if len(specs) == 0 {
		return ArrivalsResponse{}, &apiError{status: 400, msg: "arrivals request carries no jobs"}
	}
	now := s.eng.Now()
	for i, js := range specs {
		if js.Release < now {
			return ArrivalsResponse{}, &apiError{status: 409, msg: fmt.Sprintf(
				"job %d released at %d but the session clock is already at %d; arrivals must not time-travel", i, js.Release, now)}
		}
		if js.Weight < 1 {
			return ArrivalsResponse{}, &apiError{status: 400, msg: fmt.Sprintf("job %d has weight %d, want >= 1", i, js.Weight)}
		}
		if s.spec.UnitWeightsOnly && js.Weight != 1 {
			return ArrivalsResponse{}, &apiError{status: 400, msg: fmt.Sprintf(
				"engine %s is unweighted: job %d has weight %d, want 1", s.spec.Name, i, js.Weight)}
		}
	}
	// The buffer bound is admission policy, not state: replay bypasses it
	// so a restart with a smaller -buffer cannot refuse jobs the log
	// already accepted.
	if s.buffer.Len()+len(specs) > s.maxBuffer && !s.replaying {
		metrics.ArrivalsRejected.Add(int64(len(specs)))
		return ArrivalsResponse{}, &apiError{
			status:     429,
			retryAfter: true,
			msg: fmt.Sprintf("arrival buffer full (%d/%d buffered, %d offered); step the session and retry",
				s.buffer.Len(), s.maxBuffer, len(specs)),
		}
	}
	// Write-ahead: the batch lands in the log before it mutates state, so
	// every accepted command is durable per the fsync policy. On append
	// failure nothing was applied — the client sees a 500 and may retry.
	if s.per != nil && !s.replaying {
		if err := s.per.appendArrivals(specs, len(s.jobs), act); err != nil {
			return ArrivalsResponse{}, &apiError{status: 500, msg: fmt.Sprintf("persisting arrivals: %v", err)}
		}
	}
	ids := make([]int, len(specs))
	for i, js := range specs {
		j := core.Job{ID: len(s.jobs), Release: js.Release, Weight: js.Weight}
		s.jobs = append(s.jobs, j)
		s.buffer.Push(j)
		ids[i] = j.ID
	}
	if !s.replaying {
		metrics.ArrivalsAccepted.Add(int64(len(specs)))
	}
	metrics.QueueDepth.Add(int64(len(specs)))
	s.depth.Add(int64(len(specs)))
	if s.per != nil && !s.replaying {
		s.per.maybeSnapshot(s)
	}
	return ArrivalsResponse{
		Accepted: len(specs),
		IDs:      ids,
		Buffered: s.buffer.Len(),
		Capacity: s.maxBuffer,
	}, nil
}

// Step advances the session k time steps, feeding buffered arrivals to
// the engine as they mature. Quiet steps are elided from the event list.
// act, when recording, receives the queue-wait, engine-step, and
// persistence phases (nil for untraced calls).
func (s *session) Step(k, maxBatch int64, act *trace.Active) (resp StepResponse, err error) {
	doErr := s.doTraced(act, func() {
		err = s.guard("step", func() error {
			resp, err = s.advance(k, maxBatch, act)
			return err
		})
	})
	if doErr != nil {
		return StepResponse{}, doErr
	}
	return resp, err
}

func (s *session) advance(k, maxBatch int64, act *trace.Active) (StepResponse, error) {
	if k < 1 {
		return StepResponse{}, &apiError{status: 400, msg: fmt.Sprintf("steps = %d, want >= 1", k)}
	}
	if k > maxBatch {
		return StepResponse{}, &apiError{status: 400, msg: fmt.Sprintf("steps = %d exceeds the per-request limit %d; split the request", k, maxBatch)}
	}
	// Write-ahead: the step command is durable before the engine moves.
	// If the engine panics mid-batch, replay re-runs the same command and
	// panics at the same sub-step — the recovered session is broken in
	// exactly the way the live one was.
	if s.per != nil && !s.replaying {
		if err := s.per.appendSteps(k, act); err != nil {
			return StepResponse{}, &apiError{status: 500, msg: fmt.Sprintf("persisting step: %v", err)}
		}
	}
	resp := StepResponse{Events: noEvents, Stepped: k}
	var stepStart time.Time
	if act != nil {
		stepStart = time.Now()
	}
	for i := int64(0); i < k; {
		now := s.eng.Now()
		// Fast-forward (internal/simul's event-skipping, ported to the
		// serving path): the engine jumps over the steps on which no
		// event can occur, up to the next buffered release, which is the
		// next arrival. Those steps are quiet and elided from the event
		// list anyway, so the jump is response- and replay-identical to
		// stepping them one by one (see online.IdleSkipper). The engine
		// then runs one Step per event instead of one per tick.
		if s.skipper != nil {
			target := now + (k - i)
			if !s.buffer.Empty() {
				target = min(target, s.buffer.Peek().Release)
			}
			s.skipper.SkipIdle(target)
			if moved := s.eng.Now() - now; moved > 0 {
				i += moved
				continue
			}
		}
		s.arrivals = s.arrivals[:0]
		for !s.buffer.Empty() && s.buffer.Peek().Release == now {
			s.arrivals = append(s.arrivals, s.buffer.Pop())
		}
		if len(s.arrivals) > 0 {
			// Settle the gauge before Step: if the engine panics (overflow
			// in its exact arithmetic), the fed jobs are already off the
			// depth gauge instead of lingering as a stale contribution.
			metrics.QueueDepth.Add(-int64(len(s.arrivals)))
			s.depth.Add(-int64(len(s.arrivals)))
		}
		ev := s.eng.Step(s.arrivals)
		if ev.Calibrated || ev.Ran >= 0 {
			e := StepEventJSON{Time: ev.Time, Calibrated: ev.Calibrated, Ran: ev.Ran}
			if ev.Calibrated {
				e.Trigger = ev.Trigger.String()
			}
			resp.Events = append(resp.Events, e)
		}
		i++
	}
	if act != nil {
		// One engine-step phase covers the whole k-step batch, maturation
		// feeding included — that is the unit a client requested.
		act.Phase(trace.PhaseEngineStep, stepStart, time.Since(stepStart))
	}
	if !s.replaying {
		metrics.StepsServed.Add(k)
	}
	if s.per != nil && !s.replaying {
		s.per.maybeSnapshot(s)
	}
	resp.Now = s.eng.Now()
	resp.Pending = s.eng.Pending()
	resp.Buffered = s.buffer.Len()
	resp.Done = s.isDone()
	return resp, nil
}

// isDone reports whether every accepted job has been scheduled (worker
// side). With an empty buffer, done == nothing pending inside the engine.
func (s *session) isDone() bool {
	return s.buffer.Empty() && s.eng.Pending() == 0
}

// Info returns a consistent snapshot of the session's identity and state.
func (s *session) Info() (info SessionInfo, err error) {
	doErr := s.do(func() {
		err = s.guard("info", func() error {
			info = s.infoLocked()
			return nil
		})
	})
	if doErr != nil {
		return SessionInfo{}, doErr
	}
	return info, err
}

func (s *session) infoLocked() SessionInfo {
	return SessionInfo{
		ID:       s.id,
		Alg:      s.spec.Name,
		T:        s.t,
		G:        s.g,
		Now:      s.eng.Now(),
		Pending:  s.eng.Pending(),
		Buffered: s.buffer.Len(),
		Jobs:     len(s.jobs),
	}
}

// Snapshot assembles the schedule built so far with exact cost accounting
// over the assigned jobs. Overflow in the cost sums surfaces as a 500,
// not a panic: the snapshot is a read and must not kill the session.
func (s *session) Snapshot() (resp ScheduleResponse, err error) {
	doErr := s.do(func() {
		err = s.guard("schedule", func() error {
			resp, err = s.snapshot()
			return err
		})
	})
	if doErr != nil {
		return ScheduleResponse{}, doErr
	}
	return resp, err
}

func (s *session) snapshot() (ScheduleResponse, error) {
	sched := s.eng.Schedule(len(s.jobs))
	triggers := s.eng.Triggers()
	resp := ScheduleResponse{
		Session:      s.infoLocked(),
		Calibrations: make([]CalibrationJSON, len(sched.Calendar)),
		Assignments:  make([]AssignmentJSON, len(sched.Assignments)),
	}
	for i, c := range sched.Calendar {
		tr := ""
		if i < len(triggers) {
			tr = triggers[i].String()
		}
		resp.Calibrations[i] = CalibrationJSON{Machine: c.Machine, Start: c.Start, Trigger: tr}
	}
	var flow int64
	for i, a := range sched.Assignments {
		j := s.jobs[i]
		resp.Assignments[i] = AssignmentJSON{
			Job: j.ID, Release: j.Release, Weight: j.Weight,
			Machine: a.Machine, Start: a.Start,
		}
		if a.Start < 0 {
			continue
		}
		resp.Assigned++
		f, ok := core.MulCheck(j.Weight, a.Start+1-j.Release)
		if !ok {
			return ScheduleResponse{}, &apiError{status: 500, msg: fmt.Sprintf("int64 overflow computing flow of job %d", j.ID)}
		}
		if flow, ok = core.AddCheck(flow, f); !ok {
			return ScheduleResponse{}, &apiError{status: 500, msg: "int64 overflow accumulating weighted flow"}
		}
	}
	calCost, ok := core.MulCheck(s.g, int64(len(sched.Calendar)))
	if !ok {
		return ScheduleResponse{}, &apiError{status: 500, msg: "int64 overflow computing calibration cost"}
	}
	total, ok := core.AddCheck(calCost, flow)
	if !ok {
		return ScheduleResponse{}, &apiError{status: 500, msg: "int64 overflow computing total cost"}
	}
	resp.Flow = flow
	resp.TotalCost = total
	resp.Done = resp.Assigned == len(s.jobs) && s.buffer.Empty()
	return resp, nil
}
