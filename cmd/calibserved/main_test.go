package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"calibsched/internal/server"
)

// logBuffer is a goroutine-safe sink for the daemon's JSON log stream.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// logAddr extracts the "addr" attr of the first log record with the
// given msg, or "".
func logAddr(logs, msg string) string {
	for _, line := range strings.Split(logs, "\n") {
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == msg {
			return rec.Addr
		}
	}
	return ""
}

// TestServeBootAndDrain drives a full daemon lifecycle on a random port:
// boot (API + debug listeners), answer /healthz, /metrics and pprof, run
// a session, cancel, drain.
func TestServeBootAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	logBuf := &logBuffer{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	go func() {
		done <- serve(ctx, "127.0.0.1:0", "127.0.0.1:0", server.Config{Logger: logger}, httpTimeouts{}, 5*time.Second, logger, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"t":5,"g":8,"alg":"alg1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create session: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metricsBody bytes.Buffer
	if _, err := metricsBody.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(metricsBody.String(), "calibserved_sessions_created") {
		t.Fatalf("/metrics: %d\n%s", resp.StatusCode, metricsBody.String())
	}

	// The debug plane lives on its own listener, reported only in the log.
	debugAddr := logAddr(logBuf.String(), "debug listening")
	if debugAddr == "" {
		t.Fatalf("no debug-listening log record:\n%s", logBuf.String())
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s on debug listener: %d", path, resp.StatusCode)
		}
	}
	// And it must not leak onto the API listener.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof reachable on the API address; must be debug-only")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never drained")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "drained cleanly") {
		t.Errorf("no clean-drain log line:\n%s", logs)
	}
	if logAddr(logs, "listening") != addr {
		t.Errorf("listening record does not carry the bound addr %q:\n%s", addr, logs)
	}
	// Every log line must be one well-formed JSON record.
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("non-JSON log line %q: %v", line, err)
		}
	}
}

// TestBootHandler pins the pre-ready surface: while WAL replay runs the
// process is alive (/healthz ok) but not ready (/readyz "booting"), and
// API calls are refused with a retryable 503 instead of a confusing 404.
func TestBootHandler(t *testing.T) {
	h := bootHandler()
	get := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, "http://x"+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Result()
	}
	resp := get("GET", "/healthz")
	if resp.StatusCode != 200 {
		t.Errorf("boot /healthz: %d, want 200", resp.StatusCode)
	}
	resp = get("GET", "/readyz")
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 503 || !strings.Contains(string(body), "booting") {
		t.Errorf("boot /readyz: %d %s, want 503 booting", resp.StatusCode, body)
	}
	resp = get("POST", "/v1/sessions")
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("boot API call: %d (Retry-After %q), want 503 + Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestCLIFlagErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"bad bounds", []string{"-max-sessions", "0"}, "must all be >= 1"},
		{"bad trace ring", []string{"-trace-ring", "0"}, "must all be >= 1"},
		{"bad log level", []string{"-log-level", "loud"}, "bad -log-level"},
		{"bad fsync", []string{"-fsync", "sometimes"}, "bad -fsync"},
		{"bad snapshot cadence", []string{"-snapshot-every", "0"}, "-snapshot-every must be >= 1"},
		{"negative read timeout", []string{"-read-timeout", "-1s"}, "must all be >= 0"},
		{"negative write timeout", []string{"-write-timeout", "-5s"}, "must all be >= 0"},
		{"negative idle timeout", []string{"-idle-timeout", "-1ms"}, "must all be >= 0"},
		{"negative solve workers", []string{"-solve-workers", "-1"}, "-solve-workers must be >= 0"},
		{"zero solve queue", []string{"-solve-queue", "0"}, "-solve-queue >= 1"},
	} {
		var stderr bytes.Buffer
		if code := cliMain(tc.args, &stderr, ctx); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.msg)
		}
	}
}

// TestCLIDataDirError: an unusable -data-dir must fail the boot, before
// any listener opens, not surface on the first append.
func TestCLIDataDirError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A path routed through a regular file cannot become a directory on
	// any platform, regardless of privileges.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := cliMain([]string{"-addr", "127.0.0.1:0", "-data-dir", filepath.Join(blocker, "sub")}, &stderr, ctx)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "store:") {
		t.Errorf("stderr %q does not carry the store error", stderr.String())
	}
}

// waitForAddr polls the log buffer until the daemon reports its bound
// API address.
func waitForAddr(t *testing.T, buf *logBuffer, done chan int) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if addr := logAddr(buf.String(), "listening"); addr != "" {
			return addr
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited %d before listening:\n%s", code, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPServerTimeouts pins the bugfix contract: every http.Server the
// daemon builds carries the full set of connection deadlines, not just
// ReadHeaderTimeout.
func TestHTTPServerTimeouts(t *testing.T) {
	cfg := httpTimeouts{Read: 7 * time.Second, Write: 11 * time.Second, Idle: 13 * time.Second}
	srv := newHTTPServer(http.NewServeMux(), cfg)
	if srv.ReadTimeout != cfg.Read {
		t.Errorf("ReadTimeout = %v, want %v", srv.ReadTimeout, cfg.Read)
	}
	if srv.WriteTimeout != cfg.Write {
		t.Errorf("WriteTimeout = %v, want %v", srv.WriteTimeout, cfg.Write)
	}
	if srv.IdleTimeout != cfg.Idle {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, cfg.Idle)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
}

// TestCLISlowBodyClientDisconnected boots the daemon through cliMain
// with a short -read-timeout and proves a slow-body client is cut off:
// the connection closes instead of pinning a worker forever (the
// pre-fix behavior, where only ReadHeaderTimeout was configured).
func TestCLISlowBodyClientDisconnected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &logBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- cliMain([]string{"-addr", "127.0.0.1:0", "-read-timeout", "300ms"}, buf, ctx)
	}()
	addr := waitForAddr(t, buf, done)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers complete promptly (so ReadHeaderTimeout is satisfied), but
	// the promised body never arrives.
	if _, err := conn.Write([]byte("POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// With ReadTimeout armed the server must close the connection; the
	// read returns (EOF or reset) well within the deadline.
	if _, err := io.ReadAll(conn); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// A reset is as good as EOF here: the connection died.
		t.Logf("read ended with: %v", err)
	} else if err != nil {
		t.Fatal("server never closed the slow-body connection within 10s")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
}

// TestCLIRestartRecovers drives the full persistence lifecycle through
// cliMain: boot with -data-dir, run a session, drain, boot a second
// daemon on the same directory, and read back the identical schedule.
// The fsync-always case exercises the default group-commit journal end
// to end (boot, commit path, drain, journal merge on the second boot).
func TestCLIRestartRecovers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fsyncArgs []string
		wantLog   string
	}{
		{"fsync-none", []string{"-fsync", "none"}, `"group_commit":false`},
		{"fsync-always-group", []string{"-fsync", "always"}, `"group_commit":true`},
	} {
		t.Run(tc.name, func(t *testing.T) { testCLIRestartRecovers(t, tc.fsyncArgs, tc.wantLog) })
	}
}

func testCLIRestartRecovers(t *testing.T, fsyncArgs []string, wantLog string) {
	dir := t.TempDir()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-snapshot-every", "2"}, fsyncArgs...)
	run := func(ctx context.Context) (*logBuffer, chan int) {
		buf := &logBuffer{}
		done := make(chan int, 1)
		go func() { done <- cliMain(args, buf, ctx) }()
		return buf, done
	}
	getBody := func(url string, want int) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d, want %d\n%s", url, resp.StatusCode, want, body.String())
		}
		return body.String()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	buf1, done1 := run(ctx1)
	base := "http://" + waitForAddr(t, buf1, done1)
	if !strings.Contains(buf1.String(), "persistence enabled") {
		t.Errorf("no persistence-enabled log record:\n%s", buf1.String())
	}
	if !strings.Contains(buf1.String(), wantLog) {
		t.Errorf("boot log missing %s:\n%s", wantLog, buf1.String())
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"t":6,"g":12,"alg":"alg2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create session: %d", resp.StatusCode)
	}
	url := base + "/v1/sessions/s-000001"
	resp, err = http.Post(url+"/arrivals", "application/json",
		strings.NewReader(`{"jobs":[{"release":0,"weight":5},{"release":3,"weight":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("arrivals: %d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/step", "application/json", strings.NewReader(`{"steps":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	want := getBody(url+"/schedule", 200)

	cancel1()
	select {
	case code := <-done1:
		if code != 0 {
			t.Fatalf("first daemon exited %d:\n%s", code, buf1.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first daemon never drained")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	buf2, done2 := run(ctx2)
	base2 := "http://" + waitForAddr(t, buf2, done2)
	got := getBody(base2+"/v1/sessions/s-000001/schedule", 200)
	if got != want {
		t.Fatalf("schedule changed across restart\nbefore: %s\nafter:  %s", want, got)
	}
	cancel2()
	select {
	case code := <-done2:
		if code != 0 {
			t.Fatalf("second daemon exited %d:\n%s", code, buf2.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second daemon never drained")
	}
}

func TestCLIListenError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr bytes.Buffer
	if code := cliMain([]string{"-addr", "256.256.256.256:1"}, &stderr, ctx); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Errorf("stderr %q does not mention listen", stderr.String())
	}
}
