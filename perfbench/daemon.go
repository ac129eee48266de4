package main

// Child-process management for the shipped daemons, plus the
// observation surfaces they already expose: /readyz, /debug/vars,
// /metrics, /v1/traces, and /proc/<pid>.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"calibsched/internal/server"
)

// daemon is one running calibserved or calibgate.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	base    string // http://host:port
	exited  chan struct{}
	hc      *http.Client
}

// startDaemon launches bin with args, its stderr (the JSON log) going
// to logPath, and waits for the "listening" record to learn the bound
// address. The caller must stop or kill the daemon.
func startDaemon(ctx context.Context, bin, name, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The kernel kills the daemon if the benchmark itself dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{
		name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{}),
		hc: &http.Client{Timeout: 10 * time.Second},
	}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	addr, err := d.awaitListening(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.base = "http://" + addr
	return d, nil
}

// awaitListening polls the log for the daemon's "listening" record.
func (d *daemon) awaitListening(ctx context.Context) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, ok := listenAddr(d.logPath); ok {
			return addr, nil
		}
		select {
		case <-d.exited:
			return "", fmt.Errorf("%s exited during start-up; see %s", d.name, d.logPath)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not log its listen address; see %s", d.name, d.logPath)
		}
	}
}

// listenAddr finds the address of the first "listening" log record.
func listenAddr(logPath string) (string, bool) {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
			return rec.Addr, true
		}
	}
	return "", false
}

// awaitReady polls path until it answers 200 and ok accepts the body.
func (d *daemon) awaitReady(ctx context.Context, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if body, status, err := d.get(path); err == nil && status == http.StatusOK && (ok == nil || ok(body)) {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was ready; see %s", d.name, d.logPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s; see %s", d.name, path, d.logPath)
		}
	}
}

func (d *daemon) get(path string) ([]byte, int, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// getJSON fetches one 200 JSON document.
func (d *daemon) getJSON(path string, out any) error {
	body, status, err := d.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", d.base, path, status)
	}
	return json.Unmarshal(body, out)
}

// stop asks the daemon to drain (SIGTERM) and waits; a daemon that
// outlives the grace period is killed.
func (d *daemon) stop() {
	if d.cmd.Process.Signal(syscall.SIGTERM) == nil {
		select {
		case <-d.exited:
			return
		case <-time.After(15 * time.Second):
		}
	}
	d.kill()
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) procPath(file string) string {
	return fmt.Sprintf("/proc/%d/%s", d.cmd.Process.Pid, file)
}

// cpuTicks is utime+stime from /proc/<pid>/stat, in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(d.procPath("stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

// clockTick is USER_HZ, 100 on every Linux the benchmark targets.
const clockTick = 10 * time.Millisecond

// procField reads one "Key: value" field of a /proc/<pid> file.
func (d *daemon) procField(file, key string) (int64, error) {
	data, err := os.ReadFile(d.procPath(file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("%s has no %s", file, key)
}

// peakRSSMB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := d.procField("status", "VmHWM")
	return float64(kb) / 1024, err
}

// debugVars is the subset of GET /debug/vars the benchmark reads.
type debugVars struct {
	Memstats struct {
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint32 `json:"NumGC"`
	} `json:"memstats"`
	Counters map[string]float64 `json:"-"`
}

func (d *daemon) vars() (*debugVars, error) {
	var raw map[string]json.RawMessage
	if err := d.getJSON("/debug/vars", &raw); err != nil {
		return nil, err
	}
	v := &debugVars{Counters: make(map[string]float64)}
	if err := json.Unmarshal(raw["memstats"], &v.Memstats); err != nil {
		return nil, fmt.Errorf("decoding memstats: %w", err)
	}
	for k, m := range raw {
		var x float64
		if strings.HasPrefix(k, "calibserved.") && json.Unmarshal(m, &x) == nil {
			v.Counters[k] = x
		}
	}
	return v, nil
}

// promCounter reads one unlabelled sample from a Prometheus text page.
func promCounter(page []byte, name string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			x, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return x
		}
	}
	return 0
}

// tracePhases fetches every trace the daemon's span store retains and
// returns the span durations per phase (µs), plus, per trace, the
// durations keyed by phase for the self-time cross-check.
func (d *daemon) tracePhases() (map[string][]float64, []map[string]float64, server.TraceListResponse, error) {
	var list server.TraceListResponse
	if err := d.getJSON("/v1/traces", &list); err != nil {
		return nil, nil, list, err
	}
	phases := make(map[string][]float64)
	var perTrace []map[string]float64
	for _, sum := range list.Traces {
		var tr server.TraceGetResponse
		if err := d.getJSON("/v1/traces/"+sum.TraceID, &tr); err != nil {
			continue // evicted between list and fetch
		}
		byPhase := make(map[string]float64)
		for _, sp := range tr.Spans {
			phases[sp.Phase] = append(phases[sp.Phase], us(sp.Duration))
			byPhase[sp.Phase] += us(sp.Duration)
		}
		perTrace = append(perTrace, byPhase)
	}
	return phases, perTrace, list, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
