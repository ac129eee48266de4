package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
)

// hardKill simulates kill -9 at the session layer: every worker stops
// where it is and its log is closed without sync, settle, or final
// snapshot — recovery sees exactly the bytes the OS had. Writes go
// through unbuffered os.File, so for an in-process kill nothing is lost
// regardless of fsync policy; the policies differ only under machine
// crash.
func hardKill(m *Manager) {
	m.mu.Lock()
	ss := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.sessions = make(map[string]*session)
	m.closed = true
	m.mu.Unlock()
	for _, s := range ss {
		s.halt()
		<-s.done
		if s.per != nil {
			s.per.log.Abort()
		}
		// Keep the process-global gauges sane for the other tests.
		metrics.QueueDepth.Add(-s.depth.Swap(0))
		metrics.SessionsActive.Add(-1)
	}
}

// scriptOp is one scripted command, applied identically to the
// store-backed manager and the in-memory reference.
type scriptOp struct {
	sess  int
	jobs  []JobSpec // arrivals when non-nil
	steps int64     // step count otherwise
}

// scriptSession is one session's construction request in the script.
type scriptSession struct {
	req CreateSessionRequest
}

// buildScript generates a deterministic multi-session traffic script:
// arrival batches with releases valid for the session clock at the point
// they are issued, interleaved with step batches.
func buildScript(rng *rand.Rand, numOps int) ([]scriptSession, []scriptOp) {
	sessions := []scriptSession{
		{req: CreateSessionRequest{Alg: "alg1", T: 5, G: 7}},
		{req: CreateSessionRequest{Alg: "alg2", T: 8, G: 20}},
		{req: CreateSessionRequest{Alg: "alg2", T: 3, G: 0}},
	}
	clock := make([]int64, len(sessions))
	var ops []scriptOp
	for len(ops) < numOps {
		si := rng.IntN(len(sessions))
		if rng.IntN(2) == 0 {
			n := 1 + rng.IntN(3)
			jobs := make([]JobSpec, n)
			for j := range jobs {
				w := int64(1)
				if sessions[si].req.Alg == "alg2" {
					w = 1 + int64(rng.IntN(9))
				}
				jobs[j] = JobSpec{Release: clock[si] + int64(rng.IntN(20)), Weight: w}
			}
			ops = append(ops, scriptOp{sess: si, jobs: jobs})
		} else {
			k := 1 + int64(rng.IntN(12))
			ops = append(ops, scriptOp{sess: si, steps: k})
			clock[si] += k
		}
	}
	return sessions, ops
}

// buildSparseScript is buildScript for high-G sparse sessions: G=4096
// far above T*w, T=16 and about 0.02 jobs per step. Each arrivals op
// releases jobs across the session's next 10^4-step window and the step
// op after it steps through that window, so most steps wait with jobs
// pending.
func buildSparseScript(rng *rand.Rand, numOps int) ([]scriptSession, []scriptOp) {
	const window = 10_000
	sessions := []scriptSession{
		{req: CreateSessionRequest{Alg: "alg1", T: 16, G: 4096}},
		{req: CreateSessionRequest{Alg: "alg2", T: 16, G: 4096}},
	}
	clock := make([]int64, len(sessions))
	var ops []scriptOp
	for len(ops) < numOps {
		si := rng.IntN(len(sessions))
		var jobs []JobSpec
		for r := clock[si]; r < clock[si]+window; r++ {
			if rng.IntN(50) == 0 {
				w := int64(1)
				if sessions[si].req.Alg == "alg2" {
					w = 1 + int64(rng.IntN(9))
				}
				jobs = append(jobs, JobSpec{Release: r, Weight: w})
			}
		}
		if len(jobs) > 0 {
			ops = append(ops, scriptOp{sess: si, jobs: jobs})
		}
		ops = append(ops, scriptOp{sess: si, steps: window})
		clock[si] += window
	}
	return sessions, ops
}

// applyOp drives one scripted command against a manager.
func applyOp(t *testing.T, m *Manager, ids []string, o scriptOp) {
	t.Helper()
	s, err := m.Get(ids[o.sess])
	if err != nil {
		t.Fatalf("get %s: %v", ids[o.sess], err)
	}
	if o.jobs != nil {
		if _, err := s.Arrivals(o.jobs, nil); err != nil {
			t.Fatalf("arrivals on %s: %v", ids[o.sess], err)
		}
	} else {
		if _, err := s.Step(o.steps, 100_000, nil); err != nil {
			t.Fatalf("step on %s: %v", ids[o.sess], err)
		}
	}
}

// scheduleJSON reduces a session to its canonical byte representation.
func scheduleJSON(t *testing.T, m *Manager, id string) string {
	t.Helper()
	s, err := m.Get(id)
	if err != nil {
		t.Fatalf("get %s: %v", id, err)
	}
	resp, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot %s: %v", id, err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrashRecoveryDifferential is the acceptance gate for calibstore:
// a store-backed manager is hard-killed at a random point in a random
// multi-session traffic script and recovered into a fresh manager, which
// finishes the script; an in-memory reference manager runs the whole
// script uninterrupted. The recovered schedules — assignments,
// calibrations, triggers, flow, and total cost — must be byte-identical
// JSON to the reference for every session, across fsync policies and
// snapshot cadences (including cadence 1, all-snapshot, and a cadence
// that never snapshots).
func TestCrashRecoveryDifferential(t *testing.T) {
	configs := []store.Options{
		{Fsync: store.FsyncNone},
		{Fsync: store.FsyncBatch, BatchEvery: 7},
		{Fsync: store.FsyncAlways},
		{Fsync: store.FsyncAlways, GroupCommit: true},
	}
	cadences := []int{1, 3, 5, 1 << 30}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewPCG(77, uint64(trial)))
		sessions, ops := buildScript(rng, 60)
		killAt := rng.IntN(len(ops) + 1)
		crashDifferential(t, fmt.Sprintf("trial %d", trial), sessions, ops, killAt,
			configs[trial%len(configs)], cadences[trial%len(cadences)], false)
	}
	// High-G sparse sessions stepped 10^4 steps per request: the workers
	// skip waiting stretches with jobs pending, live and in WAL replay,
	// and the reference steps every tick.
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewPCG(4096, uint64(trial)))
		sessions, ops := buildSparseScript(rng, 12)
		killAt := rng.IntN(len(ops) + 1)
		crashDifferential(t, fmt.Sprintf("sparse trial %d", trial), sessions, ops, killAt,
			configs[trial%len(configs)], cadences[trial%len(cadences)], true)
	}
}

// crashDifferential runs one trial of TestCrashRecoveryDifferential: the
// store-backed manager is hard-killed after ops[:killAt], recovered, and
// finishes the script next to an uninterrupted in-memory reference. With
// literalRef the reference's workers never skip, so every tick runs
// through Step.
func crashDifferential(t *testing.T, name string, sessions []scriptSession, ops []scriptOp, killAt int, opts store.Options, cadence int, literalRef bool) {
	t.Helper()
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, SnapshotEvery: cadence}
	a, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, len(sessions))
	for i, ss := range sessions {
		infoA, err := a.Create(ss.req)
		if err != nil {
			t.Fatal(err)
		}
		infoR, err := ref.Create(ss.req)
		if err != nil {
			t.Fatal(err)
		}
		if infoA.ID != infoR.ID {
			t.Fatalf("%s: id mismatch %s vs %s", name, infoA.ID, infoR.ID)
		}
		ids[i] = infoA.ID
		if literalRef {
			s, err := ref.Get(infoR.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.do(func() { s.skipper = nil }); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, o := range ops[:killAt] {
		applyOp(t, a, ids, o)
		applyOp(t, ref, ids, o)
	}

	hardKill(a)
	b, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("%s: recovery boot: %v", name, err)
	}
	if b.Len() != len(sessions) {
		t.Fatalf("%s (kill at %d/%d): recovered %d of %d sessions",
			name, killAt, len(ops), b.Len(), len(sessions))
	}

	for _, o := range ops[killAt:] {
		applyOp(t, b, ids, o)
		applyOp(t, ref, ids, o)
	}

	for i, id := range ids {
		got, want := scheduleJSON(t, b, id), scheduleJSON(t, ref, id)
		if got != want {
			t.Fatalf("%s (kill at %d/%d, fsync=%s, group=%v, snapshot-every=%d): session %d diverged after recovery\nrecovered: %s\nreference: %s",
				name, killAt, len(ops), opts.Fsync, opts.GroupCommit, cadence, i, got, want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestGroupCommitDifferentialConcurrent drives N sessions concurrently —
// their appends interleaving inside shared commit groups — and requires
// every schedule byte-identical to an in-memory reference run of the
// same per-session scripts. Under -race this also proves the committer's
// synchronization with N live session workers.
func TestGroupCommitDifferentialConcurrent(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, err := NewManager(Config{Store: st, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}

	const numSessions = 6
	type script struct {
		id  string
		ops []scriptOp
	}
	scripts := make([]script, numSessions)
	for i := range scripts {
		req := CreateSessionRequest{Alg: "alg2", T: 4 + int64(i), G: 3 * int64(i)}
		infoA, err := m.Create(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Create(req); err != nil {
			t.Fatal(err)
		}
		// One single-session script per goroutine, so each session's
		// command order is deterministic while the sessions interleave
		// freely inside shared commit groups.
		rng := rand.New(rand.NewPCG(99, uint64(i)))
		var clock int64
		ops := make([]scriptOp, 0, 40)
		for len(ops) < 40 {
			if rng.IntN(2) == 0 {
				jobs := make([]JobSpec, 1+rng.IntN(3))
				for j := range jobs {
					jobs[j] = JobSpec{Release: clock + int64(rng.IntN(20)), Weight: 1 + int64(rng.IntN(9))}
				}
				ops = append(ops, scriptOp{jobs: jobs})
			} else {
				k := 1 + int64(rng.IntN(12))
				ops = append(ops, scriptOp{steps: k})
				clock += k
			}
		}
		scripts[i] = script{id: infoA.ID, ops: ops}
	}

	var wg sync.WaitGroup
	errs := make([]error, numSessions*2)
	for si, sc := range scripts {
		for mi, mgr := range []*Manager{m, ref} {
			wg.Add(1)
			go func(slot int, mgr *Manager, sc script) {
				defer wg.Done()
				s, err := mgr.Get(sc.id)
				if err != nil {
					errs[slot] = err
					return
				}
				for _, o := range sc.ops {
					if o.jobs != nil {
						_, err = s.Arrivals(o.jobs, nil)
					} else {
						_, err = s.Step(o.steps, 100_000, nil)
					}
					if err != nil {
						errs[slot] = err
						return
					}
				}
			}(si*2+mi, mgr, sc)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, sc := range scripts {
		got, want := scheduleJSON(t, m, sc.id), scheduleJSON(t, ref, sc.id)
		if got != want {
			t.Fatalf("session %d diverged under concurrent group commit\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	if c := st.Committer(); c.Records() == 0 {
		t.Fatal("no records rode the group committer")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownPersistsSessions pins the settle path: shutdown
// writes a final snapshot and closes the log, so the next boot restores
// the session with zero records replayed and the identical schedule.
func TestGracefulShutdownPersistsSessions(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, SnapshotEvery: 1 << 30} // never snapshot mid-run
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(CreateSessionRequest{Alg: "alg2", T: 6, G: 12})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrivals([]JobSpec{{Release: 0, Weight: 5}, {Release: 4, Weight: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(9, 100, nil); err != nil {
		t.Fatal(err)
	}
	want := scheduleJSON(t, m, info.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	replayedBefore := metrics.RecoveredRecords.Value()
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.RecoveredRecords.Value() - replayedBefore; got != 0 {
		t.Fatalf("graceful shutdown left %d records to replay; settle must snapshot", got)
	}
	if got := scheduleJSON(t, m2, info.ID); got != want {
		t.Fatalf("schedule changed across graceful restart\nbefore: %s\nafter:  %s", want, got)
	}
	// The restored session keeps serving.
	s2, err := m2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Step(5, 100, nil); err != nil {
		t.Fatalf("step after restore: %v", err)
	}
	if err := m2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRemovesSessionDirectory is the orphaned-directory regression
// test: DELETE must retire the on-disk state with the in-memory session,
// and a restart must not resurrect it.
func TestDeleteRemovesSessionDirectory(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(CreateSessionRequest{Alg: "alg1", T: 4, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrivals([]JobSpec{{Release: 2, Weight: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID)); err != nil {
		t.Fatalf("session dir missing while live: %v", err)
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID)); !os.IsNotExist(err) {
		t.Fatalf("session dir survives DELETE: %v", err)
	}
	m2, err := NewManager(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 0 {
		t.Fatalf("deleted session resurrected: %d live after restart", m2.Len())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJanitorRetiresDiskState: idle eviction removes the session's
// directory along with the in-memory session.
func TestJanitorRetiresDiskState(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Store: st, IdleTTL: 50 * time.Millisecond, JanitorInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(CreateSessionRequest{Alg: "alg1", T: 4, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The janitor removes the session from the table before retiring its
	// disk state, so the directory disappears shortly after Len hits 0 —
	// poll rather than stat once.
	for {
		if _, err := os.Stat(filepath.Join(dir, info.ID)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session dir survives idle eviction")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestNewSessionsSkipOnDiskIDs: after recovery — including directories
// that failed to recover — new session numbering continues past
// everything on disk, so creation can never collide with an existing
// directory.
func TestNewSessionsSkipOnDiskIDs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Create(CreateSessionRequest{Alg: "alg1", T: 4, G: 3}); err != nil {
			t.Fatal(err)
		}
	}
	hardKill(m)
	// An unrecoverable directory with a higher number must still advance
	// the counter.
	if err := os.Mkdir(filepath.Join(dir, "s-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 2 {
		t.Fatalf("recovered %d sessions, want 2", m2.Len())
	}
	info, err := m2.Create(CreateSessionRequest{Alg: "alg1", T: 4, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != fmt.Sprintf("s-%06d", 8) {
		t.Fatalf("new session got ID %s, want s-000008 (past the on-disk s-000007)", info.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
