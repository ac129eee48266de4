package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return namePattern.MatchString(s) }

// validUnit reports whether s is a legal unit.
func validUnit(s string) bool { return unitPattern.MatchString(s) }

func TestQuantileAndRatio(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.99); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestLateEarly(t *testing.T) {
	times := make([]float64, 100)
	for i := range times {
		times[i] = 1
	}
	for i := 90; i < 100; i++ {
		times[i] = 3
	}
	if got := lateEarly(times); got != 3 {
		t.Errorf("lateEarly = %v, want 3", got)
	}
	if got := lateEarly([]float64{1, 2}); got != 1 {
		t.Errorf("lateEarly of a short session = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "client", ID: "a", Start: 0, End: 10_000},
		{Name: "gateway", ID: "b", Parent: "a", Start: 1_000, End: 9_000},
		{Name: "server", ID: "c", Parent: "b", Start: 2_000, End: 5_000},
		{Name: "server", ID: "d", Parent: "b", Start: 4_000, End: 6_000}, // overlaps c
	}
	total, self := selfTimes(spans)
	if got := self["gateway"][0]; got != 4 { // 8µs minus the 4µs [2,6) its children cover
		t.Errorf("gateway self = %vµs, want 4", got)
	}
	if got := self["client"][0]; got != 2 {
		t.Errorf("client self = %vµs, want 2", got)
	}
	if got := total["server"]; len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("server totals = %v, want [3 2]", got)
	}
}

func TestResultFill(t *testing.T) {
	var r result
	if err := r.fill(endToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("fill accepted a run missing most end-to-end metrics")
	}
	values := make(map[string]float64)
	for _, d := range endToEnd {
		values[d.name] = 1.5
	}
	r = result{Correct: true, Attempted: 3}
	if err := r.fill(endToEnd, values); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, buf.Bytes())
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(back), buf.Bytes())
	}
}

func TestMetricNamesValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.name) {
				t.Errorf("metric name %q is not letters, digits, '_', '.', '-'", d.name)
			}
			if !validUnit(d.unit) {
				t.Errorf("metric %s: unit %q is invalid", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or clashes", w.name)
		}
		seen[w.name] = true
	}
	for _, bad := range []string{"", "-lead", "a b", "x/y", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: json %d+%d, code %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: json %s %s, code %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: json %s %s, code %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestPlansDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.plan(7, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.plan(7, 1, false)
		c, _ := w.plan(8, 1, false)
		d, _ := w.plan(7, 2, false)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed and round gave different streams", w.name)
		}
		if a.digest() == c.digest() || a.digest() == d.digest() {
			t.Errorf("%s: another seed or round gave the same stream", w.name)
		}
		if st := a.stats(); st.ticks+st.solves < minTicks {
			t.Errorf("%s: %d ticks and solves per round, want at least %d", w.name, st.ticks+st.solves, minTicks)
		}
	}
	p, _ := planSolveMix(7, 0, false)
	st := p.stats()
	if share := ratio(float64(st.repeats), float64(st.solves)); share < 0.15 || share > 0.3 {
		t.Errorf("solve-mix repeat share %.3f, want about 1/4", share)
	}
}

// TestSmokeWorkloads builds the daemons and runs every workload in the
// tiny mode, untraced and traced, through the same entry point the
// benchmark command uses.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	bins := t.TempDir()
	build := exec.Command("go", "build", "-o", bins+string(filepath.Separator), "./cmd/calibserved", "./cmd/calibgate")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building daemons: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", traced,
					"--tiny", "--bin", bins, "--work", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or mis-united: %+v", d.name, m)
					}
				}
			})
		}
	}
}

func TestRefusesMissingBinaries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "bulk-step", "--bin", t.TempDir(), "--work", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d with stdout %q; want a non-zero exit and no result", code, stdout.String())
	}
}

func TestBuildJobsCanonicalAcrossChunks(t *testing.T) {
	jobs, err := buildJobs(streamSpec(3*chunkJobs+7, 16, 0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3*chunkJobs+7 {
		t.Fatalf("%d jobs, want %d", len(jobs), 3*chunkJobs+7)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Release <= jobs[i-1].Release {
			t.Fatalf("job %d released at %d after job %d at %d", i, jobs[i].Release, i-1, jobs[i-1].Release)
		}
	}
}
