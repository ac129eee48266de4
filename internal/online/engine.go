package online

import (
	"fmt"
	"strings"

	"calibsched/internal/core"
)

// Engine is the incremental scheduling interface a serving layer drives:
// an online algorithm packaged as a state machine that consumes arrivals
// one time step at a time and can report its schedule so far at any
// moment. *Stepper implements it for Algorithms 1 and 2; future backends
// (Alg2Multi, the baselines) plug in by satisfying the same contract and
// registering an EngineSpec.
//
// The contract matches Stepper exactly: Step must be called for
// consecutive time steps starting at 0, each call fed only the jobs
// released at the current step.
type Engine interface {
	// Step simulates the current time step with the given arrivals and
	// advances the clock.
	Step(arrivals []core.Job) StepEvent
	// Now returns the next step Step will simulate.
	Now() int64
	// Pending returns the number of jobs waiting in the queue.
	Pending() int
	// CalibratedNow reports whether the machine is calibrated for the
	// next step.
	CalibratedNow() bool
	// Schedule assembles the schedule built so far for an n-job
	// instance; unscheduled jobs keep Start -1.
	Schedule(n int) *core.Schedule
	// Triggers returns the trigger behind each calendar entry so far.
	Triggers() []Trigger
}

var _ Engine = (*Stepper)(nil)

// IdleSkipper is the optional fast-forward extension of Engine: it jumps
// the clock over steps on which no event can occur, where repeated
// Step(nil) calls would cost one call per tick. This is internal/simul's
// event-skipping optimization surfaced to serving-layer drivers. The
// contract is that SkipIdle(to) leaves the engine in exactly the state
// that Step(nil) repeated over the skipped steps would; it may stop short
// of to, at the first step where a trigger could fire or a job could run,
// or not move at all, so callers read Now() afterwards. Callers cap to at
// their next buffered release, since an arrival is an event. Stepper's
// SkipIdle explains why its skip is exact; DESIGN.md §7 has the argument.
type IdleSkipper interface {
	// SkipIdle advances the clock toward step `to` without simulating
	// the intervening eventless steps. No-op when to <= Now().
	SkipIdle(to int64)
}

var _ IdleSkipper = (*Stepper)(nil)

// EngineSpec describes one registered engine backend.
type EngineSpec struct {
	// Name is the identifier used by the serving API ("alg1", "alg2").
	Name string
	// Doc is a one-line description for listings and error messages.
	Doc string
	// UnitWeightsOnly marks engines that accept only weight-1 jobs
	// (Algorithm 1's unweighted analysis); the serving layer enforces
	// this at arrival time since the stepper itself cannot reject a
	// weight retroactively.
	UnitWeightsOnly bool
	// New constructs a fresh engine for calibration length T and cost G.
	New func(t, g int64, opts ...Option) Engine
	// Restore reconstructs an engine from a state snapshot produced by
	// its Snapshotter (crash recovery; see snapshot.go). nil for
	// backends without snapshot support — their sessions recover by
	// replaying the full command log instead.
	Restore func(t, g int64, state []byte, opts ...Option) (Engine, error)
}

// engineSpecs is the backend registry, in listing order.
var engineSpecs = []EngineSpec{
	{
		Name:            "alg1",
		Doc:             "Algorithm 1: unweighted single machine, 3-competitive",
		UnitWeightsOnly: true,
		New: func(t, g int64, opts ...Option) Engine {
			return NewAlg1Stepper(t, g, opts...)
		},
		Restore: restoreStepper("alg1", NewAlg1Stepper),
	},
	{
		Name: "alg2",
		Doc:  "Algorithm 2: weighted single machine, 12-competitive",
		New: func(t, g int64, opts ...Option) Engine {
			return NewAlg2Stepper(t, g, opts...)
		},
		Restore: restoreStepper("alg2", NewAlg2Stepper),
	},
}

// Engines lists the registered engine backends.
func Engines() []EngineSpec {
	return append([]EngineSpec(nil), engineSpecs...)
}

// EngineNames lists the registered backend names, for error messages and
// flag docs.
func EngineNames() []string {
	names := make([]string, len(engineSpecs))
	for i, s := range engineSpecs {
		names[i] = s.Name
	}
	return names
}

// LookupEngine finds a backend by name.
func LookupEngine(name string) (EngineSpec, bool) {
	for _, s := range engineSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return EngineSpec{}, false
}

// NewEngine validates the parameters and constructs the named backend.
func NewEngine(name string, t, g int64, opts ...Option) (Engine, error) {
	spec, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("online: unknown engine %q (have %s)", name, strings.Join(EngineNames(), ", "))
	}
	if t < 1 {
		return nil, fmt.Errorf("online: calibration length T = %d, want >= 1", t)
	}
	if g < 0 {
		return nil, fmt.Errorf("online: calibration cost G = %d, want >= 0", g)
	}
	return spec.New(t, g, opts...), nil
}
