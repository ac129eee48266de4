package main

// Metric names, summaries and the result line. Percentiles come from
// internal/stats.Quantile, the interpolating quantile calibload uses.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"calibsched/internal/stats"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatchesCode keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd is the result line of every untraced run, on every
// workload, so each is defined for all four: a tick is one
// session-owner round of requests (arrivals + step + due read) or one
// whole solve. tick_p99_ms is printed but not gated: on the 2-core VM
// the benchmark was sized on it drifted by over a quarter between two
// sets of ten runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"tick_p50_ms", "ms"},
	{"daemon_peak_rss_mb", "MiB"},
}

// perLayer is printed by every traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"online.step_calls", "count"},
	{"online.skip_calls", "count"},
	{"online.waiting_step_share", "share"},
	{"online.ns_per_step", "ns"},
	{"online.busy_share", "share"},
	{"server.session_us_p50", "us"},
	{"server.session_us_p99", "us"},
	{"server.http_us_p50", "us"},
	{"server.http_us_p99", "us"},
	{"server.http_gap_us_p50", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.engine_step_us_p50", "us"},
	{"server.req_bytes", "B/op"},
	{"server.resp_bytes", "B/op"},
	{"server.cpu_us_per_op", "us/op"},
	{"server.alloc_bytes_per_op", "B/op"},
	{"server.gc_cycles", "count"},
	{"server.rejected_429", "count"},
	{"server.unavailable_503", "count"},
	{"store.wal_append_us_p50", "us"},
	{"store.wal_append_us_p99", "us"},
	{"store.fsync_wait_us_p50", "us"},
	{"store.fsync_wait_us_p99", "us"},
	{"store.group_records_mean", "records"},
	{"store.group_commits_per_op", "1/op"},
	{"store.wal_bytes_per_op", "B/op"},
	{"store.disk_write_bytes_per_op", "B/op"},
	{"store.snapshots", "count"},
	{"store.data_bytes_per_job", "B/job"},
	{"store.rung_us_p50", "us"},
	{"store.rung_us_p99", "us"},
	{"store.late_early_ratio", "ratio"},
	{"store.recover_ms", "ms"},
	{"store.recovered_records", "count"},
	{"cluster.proxy_self_us_p50", "us"},
	{"cluster.proxy_self_us_p99", "us"},
	{"cluster.cpu_us_per_op", "us/op"},
	{"cluster.retries", "count"},
	{"solve.cache_hit_ratio", "share"},
	{"solve.repeat_share", "share"},
	{"solve.dedup_shared", "count"},
	{"solve.polls_per_solve", "polls/op"},
	{"solve.queue_wait_ms_p50", "ms"},
	{"offline.dp_ms_p50", "ms"},
	{"offline.dp_ms_p99", "ms"},
	{"offline.direct_ms_p50", "ms"},
	{"trace.spans_per_op", "spans/op"},
	{"trace.traces_evicted", "count"},
	{"bench.trace_overhead", "ratio"},
}

// quantile is the q-quantile of xs (unsorted, left untouched); 0 when
// xs is empty, which is how an unreached layer reports.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets every metric of defs from values, failing on a name the
// run did not compute.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

func (r *result) write(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// report prints human-readable lines ahead of the result line.
type report struct{ w io.Writer }

func (p report) metric(name string, v float64, unit string, n int) {
	fmt.Fprintf(p.w, "metric %-28s %14.6g %-8s n=%d\n", name, v, unit, n)
}

func (p report) linef(format string, args ...any) {
	fmt.Fprintf(p.w, format+"\n", args...)
}
