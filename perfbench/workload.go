package main

// Seeded op streams for the four workloads. A round's stream is a pure
// function of (workload, seed, round): the same arguments always yield
// byte-identical requests, which inputDigest proves across runs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"

	"calibsched/internal/server"
	"calibsched/internal/workload"
)

// clients is the closed-loop client count: one goroutine and one
// keep-alive connection each, matching the two cores the benchmark was
// sized on.
const clients = 2

const minTicks = 1000

// opKind names one client operation.
type opKind uint8

const (
	opCreate opKind = iota
	opArrivals
	opStep
	opRead
	opDelete
	opSolve
	numOpKinds
)

var opNames = [numOpKinds]string{"create", "arrivals", "step", "read", "delete", "solve"}

// tick is one unit of session-owner work: feed the window's arrivals
// (no request when the window is empty), step the window, and read the
// schedule when due.
type tick struct {
	jobs  []server.JobSpec
	steps int64
	read  bool
}

// sessionScript is one session's whole life on the wire.
type sessionScript struct {
	create server.CreateSessionRequest
	ticks  []tick
	// drain is the step size of the requests sent after the last tick
	// until the session reports done.
	drain int64
}

// jobs lists every job the script feeds, in request order, which is
// also the server's dense job-ID order.
func (s *sessionScript) jobs() []server.JobSpec {
	var all []server.JobSpec
	for _, tk := range s.ticks {
		all = append(all, tk.jobs...)
	}
	return all
}

// solveScript is one POST /v1/solve; repeat marks a permuted copy of a
// recent instance, which canonicalization maps onto a cached result.
type solveScript struct {
	req    server.SolveRequest
	repeat bool
}

// clientScript is what one closed-loop client sends in a round: its
// sessions one after another, then its solves.
type clientScript struct {
	sessions []sessionScript
	solves   []solveScript
}

// roundPlan is one round's fixed work. Every full-size round has at
// least minTicks ticks (a whole solve counts as one), so the round's
// tick p99 has ten samples beyond it.
type roundPlan struct {
	clients [clients]clientScript
}

// workloadSpec is one named workload: its deployment and its generator.
type workloadSpec struct {
	name string
	why  string
	// gateway fronts the single calibserved with calibgate.
	gateway bool
	// fsync, when set, makes the workload durable (see durable); empty
	// means in-memory.
	fsync string
	plan  func(seed uint64, round int, tiny bool) (roundPlan, error)
}

// durable reports whether calibserved runs with a fresh -data-dir and
// the workload's -fsync policy. A durable workload keeps its sessions
// past their end, SIGKILLs calibserved after the measured window,
// restarts it on the same data dir, times recovery and re-reads every
// session.
func (w *workloadSpec) durable() bool { return w.fsync != "" }

var workloads = []*workloadSpec{
	{
		name:  "durable-long",
		why:   "WAL append, journal fsync and full-history snapshots dominate; per-op cost grows with session age",
		fsync: "always",
		plan:  planDurableLong,
	},
	{
		name:    "chatty-gateway",
		why:     "per-request fixed costs dominate: gateway hop, HTTP/JSON codec, worker handoff, span recording",
		gateway: true,
		plan:    planChattyGateway,
	},
	{
		name: "bulk-step",
		why:  "the engine dominates: long step batches whose steps mostly wait with a non-empty queue",
		plan: planBulkStep,
	},
	{
		name: "solve-mix",
		why:  "the solve pool, LRU cache, canonical key and exact DP run; one submission in four repeats",
		plan: planSolveMix,
	},
}

func lookupWorkload(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// subSeed derives an independent generator seed for one stream of a
// round; the string tag keeps workloads' streams apart.
func subSeed(seed uint64, tag string, round, client, index int) uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/%d/%d/%d", tag, seed, round, client, index)
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// chunkJobs bounds how many jobs are canonicalized at once: core's
// Canonicalize re-sorts the whole instance after every release it
// bumps, which made one 12k-job stream take most of a second.
const chunkJobs = 512

// buildJobs draws a job stream from the repository's workload
// generator, in release order. A long stream is drawn chunk by chunk,
// each chunk with a seed derived from the spec's and its releases
// starting one step after the previous chunk's last, so the stream
// stays canonical: distinct releases for P = 1.
func buildJobs(spec workload.Spec) ([]server.JobSpec, error) {
	jobs := make([]server.JobSpec, 0, spec.N)
	base := int64(0)
	for c := uint64(0); len(jobs) < spec.N; c++ {
		part := spec
		part.N = min(chunkJobs, spec.N-len(jobs))
		part.Seed = spec.Seed + c*0x9e3779b97f4a7c15
		in, err := part.Build()
		if err != nil {
			return nil, fmt.Errorf("generating jobs: %w", err)
		}
		for _, j := range in.Jobs {
			jobs = append(jobs, server.JobSpec{Release: base + j.Release, Weight: j.Weight})
		}
		base = jobs[len(jobs)-1].Release + 1
	}
	return jobs, nil
}

// windowTicks cuts a release-ordered job stream into ticks of width
// steps each, covering the horizon [0, n*width).
func windowTicks(jobs []server.JobSpec, n int, width int64) []tick {
	ticks := make([]tick, n)
	next := 0
	for i := range ticks {
		end := int64(i+1) * width
		start := next
		for next < len(jobs) && jobs[next].Release < end {
			next++
		}
		ticks[i] = tick{jobs: jobs[start:next:next], steps: width}
	}
	return ticks
}

// Weights follow calibload's defaults: Zipf(1.4) over 1..9.
const (
	zipfS = 1.4
	wMax  = 9
)

func streamSpec(n int, t int64, lambda float64, seed uint64) workload.Spec {
	return workload.Spec{
		N: n, P: 1, T: t, Seed: seed,
		Arrival: workload.ArrivalPoisson, Lambda: lambda,
		Weights: workload.WeightZipf, WMax: wMax, ZipfS: zipfS,
	}
}

// planDurableLong: one long-lived alg2 session per client (T=16, G=64),
// Poisson arrivals at 0.5 jobs/step fed in 8-step windows, each window
// an arrivals request plus one step request. 3072 ticks write about
// 6100 WAL records per session, two dozen snapshots at the default
// -snapshot-every 256.
func planDurableLong(seed uint64, round int, tiny bool) (roundPlan, error) {
	const (
		t, g   = 16, 64
		width  = 8
		lambda = 0.5
	)
	ticks := 3072
	if tiny {
		ticks = 64
	}
	var p roundPlan
	for c := range p.clients {
		n := int(lambda * float64(ticks*width))
		jobs, err := buildJobs(streamSpec(n, t, lambda, subSeed(seed, "durable-long", round, c, 0)))
		if err != nil {
			return p, err
		}
		p.clients[c].sessions = []sessionScript{{
			create: server.CreateSessionRequest{T: t, G: g, Alg: "alg2"},
			ticks:  windowTicks(jobs, ticks, width),
			drain:  1024,
		}}
	}
	return p, nil
}

// planChattyGateway: short alg2 sessions churning through calibgate.
// Each session is 256 ticks of one job plus a 1-step request, a
// schedule read every 16 ticks, then a drain, a final read and DELETE.
func planChattyGateway(seed uint64, round int, tiny bool) (roundPlan, error) {
	const (
		t, g      = 16, 64
		ticks     = 256
		readEvery = 16
	)
	perClient := 3
	if tiny {
		perClient = 1
	}
	var p roundPlan
	for c := range p.clients {
		var cs clientScript
		for s := 0; s < perClient; s++ {
			jobs, err := buildJobs(workload.Spec{
				N: ticks, P: 1, T: t, Seed: subSeed(seed, "chatty-gateway", round, c, s),
				Arrival: workload.ArrivalPeriodic, Period: 1,
				Weights: workload.WeightZipf, WMax: wMax, ZipfS: zipfS,
			})
			if err != nil {
				return p, err
			}
			tks := windowTicks(jobs, ticks, 1)
			for i := readEvery - 1; i < ticks; i += readEvery {
				tks[i].read = true
			}
			cs.sessions = append(cs.sessions, sessionScript{
				create: server.CreateSessionRequest{T: t, G: g, Alg: "alg2"},
				ticks:  tks,
				drain:  512,
			})
		}
		p.clients[c] = cs
	}
	return p, nil
}

// planBulkStep: alg2 sessions with G=4096 ≫ T·w and 0.02 jobs/step,
// stepped 10⁴ steps per request, each preceded by that window's
// arrivals. Most simulated steps wait with a non-empty queue.
func planBulkStep(seed uint64, round int, tiny bool) (roundPlan, error) {
	const (
		t, g   = 16, 4096
		width  = 10_000
		lambda = 0.02
	)
	perClient, ticks := 8, 64
	if tiny {
		perClient, ticks = 1, 4
	}
	var p roundPlan
	for c := range p.clients {
		var cs clientScript
		for s := 0; s < perClient; s++ {
			n := int(lambda * float64(ticks*width))
			jobs, err := buildJobs(streamSpec(n, t, lambda, subSeed(seed, "bulk-step", round, c, s)))
			if err != nil {
				return p, err
			}
			cs.sessions = append(cs.sessions, sessionScript{
				create: server.CreateSessionRequest{T: t, G: g, Alg: "alg2"},
				ticks:  windowTicks(jobs, ticks, width),
				drain:  width,
			})
		}
		p.clients[c] = cs
	}
	return p, nil
}

// planSolveMix: kind "total" solves of 40 Zipf-weighted jobs released
// uniformly over 80 steps (G=64, T=16). One submission in four repeats
// one of the client's last eight instances with its jobs permuted.
func planSolveMix(seed uint64, round int, tiny bool) (roundPlan, error) {
	const (
		t, g       = 16, 64
		n          = 40
		horizon    = 80
		recent     = 8
		repeatEach = 4
	)
	perClient := 500
	if tiny {
		perClient = 8
	}
	var p roundPlan
	for c := range p.clients {
		rng := rand.New(rand.NewPCG(subSeed(seed, "solve-mix", round, c, -1), 0))
		var cs clientScript
		for i := 0; i < perClient; i++ {
			if i >= recent && rng.IntN(repeatEach) == 0 {
				orig := cs.solves[len(cs.solves)-1-rng.IntN(recent)].req
				jobs := append([]server.JobSpec(nil), orig.Jobs...)
				rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
				orig.Jobs = jobs
				cs.solves = append(cs.solves, solveScript{req: orig, repeat: true})
				continue
			}
			jobs, err := buildJobs(workload.Spec{
				N: n, P: 1, T: t, Seed: subSeed(seed, "solve-mix", round, c, i),
				Arrival: workload.ArrivalUniform, Horizon: horizon,
				Weights: workload.WeightZipf, WMax: wMax, ZipfS: zipfS,
			})
			if err != nil {
				return p, err
			}
			cs.solves = append(cs.solves, solveScript{
				req: server.SolveRequest{T: t, Kind: "total", G: g, Jobs: jobs},
			})
		}
		p.clients[c] = cs
	}
	return p, nil
}

// streamDigest folds a round's whole request stream into h.
func (p *roundPlan) writeTo(h hash.Hash) {
	for c, cs := range p.clients {
		fmt.Fprintf(h, "client %d\n", c)
		for _, s := range cs.sessions {
			fmt.Fprintf(h, "session %s t=%d g=%d drain=%d\n", s.create.Alg, s.create.T, s.create.G, s.drain)
			for _, tk := range s.ticks {
				fmt.Fprintf(h, "tick %d %t", tk.steps, tk.read)
				for _, j := range tk.jobs {
					fmt.Fprintf(h, " %d:%d", j.Release, j.Weight)
				}
				h.Write([]byte{'\n'})
			}
		}
		for _, sv := range cs.solves {
			fmt.Fprintf(h, "solve %s t=%d g=%d k=%d repeat=%t", sv.req.Kind, sv.req.T, sv.req.G, sv.req.K, sv.repeat)
			for _, j := range sv.req.Jobs {
				fmt.Fprintf(h, " %d:%d", j.Release, j.Weight)
			}
			h.Write([]byte{'\n'})
		}
	}
}

// digest is the SHA-256 of the round's request stream, hex-encoded.
func (p *roundPlan) digest() string {
	h := sha256.New()
	p.writeTo(h)
	return hex.EncodeToString(h.Sum(nil))
}

// planStats are the input properties a round's stream fixes.
type planStats struct {
	sessions, ticks, jobs int
	steps                 int64
	solves, repeats       int
}

func (p *roundPlan) stats() planStats {
	var st planStats
	for _, cs := range p.clients {
		st.sessions += len(cs.sessions)
		for _, s := range cs.sessions {
			st.ticks += len(s.ticks)
			for _, tk := range s.ticks {
				st.jobs += len(tk.jobs)
				st.steps += tk.steps
			}
		}
		st.solves += len(cs.solves)
		for _, sv := range cs.solves {
			if sv.repeat {
				st.repeats++
			}
		}
	}
	return st
}
