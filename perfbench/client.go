package main

// The closed-loop HTTP client: one goroutine and one keep-alive
// connection per client, each request timed, sized and status-counted
// into the client's own recorder (merged after the round, so the hot
// path takes no lock).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"calibsched/internal/server"
)

// recorder accumulates one client's observations.
type recorder struct {
	lat       [numOpKinds][]float64 // ms per op, by kind
	ticks     []float64             // ms per tick (or per whole solve)
	attempted int
	failed    int
	rejected  int // 429 answers
	unavail   int // 503 answers
	reqBytes  int64
	respBytes int64
	polls     int   // GET /v1/solve/{id} requests
	simSteps  int64 // steps the daemon reported simulating
	errs      []string
}

func (r *recorder) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.ticks = append(r.ticks, o.ticks...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.rejected += o.rejected
	r.unavail += o.unavail
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
	r.polls += o.polls
	r.simSteps += o.simSteps
	r.errs = append(r.errs, o.errs...)
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// client is one closed-loop connection to a base URL.
type client struct {
	base  string
	hc    *http.Client
	rec   *recorder
	spans *spanLog // nil unless the run is traced
	// timed is false during set-up and checks: those requests count as
	// attempted but add no latency sample.
	timed bool
	// keep leaves ended sessions alive instead of deleting them, for a
	// durable workload's post-recovery reads.
	keep bool
	// finals are the sessions this client has ended, for the checks.
	finals []finalSession
}

// newClient returns a client pinned to one keep-alive connection.
func newClient(base string, spans *spanLog) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		base:  base,
		hc:    &http.Client{Transport: tr, Timeout: time.Minute},
		rec:   &recorder{},
		spans: spans,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one operation's request and returns the 2xx body.
func (c *client) call(kind opKind, method, path string, in any) ([]byte, error) {
	c.rec.attempted++
	out, elapsed, err := c.request(kind, method, path, in)
	if err == nil && c.timed {
		c.rec.lat[kind] = append(c.rec.lat[kind], ms(elapsed))
	}
	return out, err
}

// request sends one request and returns the 2xx body and the round
// trip time. A non-2xx answer, backpressure included, is a failure.
func (c *client) request(kind opKind, method, path string, in any) ([]byte, time.Duration, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, 0, err
		}
	}
	out, status, elapsed, err := c.send(kind, method, path, body)
	if err == nil && (status < 200 || status > 299) {
		switch status {
		case http.StatusTooManyRequests:
			c.rec.rejected++
		case http.StatusServiceUnavailable:
			c.rec.unavail++
		}
		err = fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
	}
	if err != nil {
		c.rec.fail(err)
		return nil, 0, err
	}
	return out, elapsed, nil
}

func (c *client) send(kind opKind, method, path string, body []byte) ([]byte, int, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp *openSpan
	if c.spans != nil {
		sp = c.spans.startRoot("client." + opNames[kind])
		req.Header.Set("traceparent", sp.traceparent())
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if sp != nil {
		c.spans.end(sp)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	c.rec.reqBytes += int64(len(body))
	c.rec.respBytes += int64(len(out))
	return out, resp.StatusCode, elapsed, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decode unmarshals a response body, failing the op on a bad body.
func (c *client) decode(body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		err = fmt.Errorf("decoding response: %w", err)
		c.rec.fail(err)
		return err
	}
	return nil
}

// create opens a script's session and returns its ID.
func (c *client) create(s *sessionScript) (string, error) {
	body, err := c.call(opCreate, "POST", "/v1/sessions", s.create)
	if err != nil {
		return "", err
	}
	var info server.SessionInfo
	if err := c.decode(body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// step advances a session and checks the step count came back whole.
func (c *client) step(id string, k int64) (server.StepResponse, error) {
	var sr server.StepResponse
	body, err := c.call(opStep, "POST", "/v1/sessions/"+id+"/step", server.StepRequest{Steps: k})
	if err != nil {
		return sr, err
	}
	if err := c.decode(body, &sr); err != nil {
		return sr, err
	}
	if sr.Stepped != k {
		err := fmt.Errorf("session %s stepped %d, asked %d", id, sr.Stepped, k)
		c.rec.fail(err)
		return sr, err
	}
	c.rec.simSteps += k
	return sr, nil
}

// runTick sends one tick's requests and records the tick's latency.
func (c *client) runTick(id string, tk *tick) error {
	start := time.Now()
	if len(tk.jobs) > 0 {
		body, err := c.call(opArrivals, "POST", "/v1/sessions/"+id+"/arrivals", server.ArrivalsRequest{Jobs: tk.jobs})
		if err != nil {
			return err
		}
		var ar server.ArrivalsResponse
		if err := c.decode(body, &ar); err != nil {
			return err
		}
		if ar.Accepted != len(tk.jobs) {
			err := fmt.Errorf("session %s accepted %d of %d jobs", id, ar.Accepted, len(tk.jobs))
			c.rec.fail(err)
			return err
		}
	}
	if _, err := c.step(id, tk.steps); err != nil {
		return err
	}
	if tk.read {
		if _, err := c.call(opRead, "GET", "/v1/sessions/"+id+"/schedule", nil); err != nil {
			return err
		}
	}
	if c.timed {
		c.rec.ticks = append(c.rec.ticks, ms(time.Since(start)))
	}
	return nil
}

// end drains a session, keeps its final schedule for the checks and
// deletes it unless the client keeps its sessions.
func (c *client) end(id string, s *sessionScript) error {
	body, err := c.finish(id, s)
	if err != nil {
		return err
	}
	if !c.keep {
		if _, err := c.call(opDelete, "DELETE", "/v1/sessions/"+id, nil); err != nil {
			return err
		}
	}
	c.finals = append(c.finals, finalSession{id: id, script: s, body: body})
	return nil
}

// finish drains a session to done and returns its final schedule body.
func (c *client) finish(id string, s *sessionScript) ([]byte, error) {
	for i := 0; ; i++ {
		sr, err := c.step(id, s.drain)
		if err != nil {
			return nil, err
		}
		if sr.Done {
			break
		}
		if i == 1000 {
			err := fmt.Errorf("session %s not done after %d drain steps", id, 1000*s.drain)
			c.rec.fail(err)
			return nil, err
		}
	}
	return c.call(opRead, "GET", "/v1/sessions/"+id+"/schedule", nil)
}

// solve submits one solve and polls until it is done, returning the
// final status. The whole submit-to-done span is one solve operation.
func (c *client) solve(req server.SolveRequest) (server.SolveStatusResponse, error) {
	var st server.SolveStatusResponse
	c.rec.attempted++
	start := time.Now()
	body, _, err := c.request(opSolve, "POST", "/v1/solve", req)
	if err != nil {
		return st, err
	}
	var sub server.SolveSubmitResponse
	if err := c.decode(body, &sub); err != nil {
		return st, err
	}
	for {
		c.rec.polls++
		body, _, err := c.request(opSolve, "GET", "/v1/solve/"+sub.ID, nil)
		if err != nil {
			return st, err
		}
		if err := c.decode(body, &st); err != nil {
			return st, err
		}
		switch st.State {
		case "done":
			if c.timed {
				d := ms(time.Since(start))
				c.rec.lat[opSolve] = append(c.rec.lat[opSolve], d)
				c.rec.ticks = append(c.rec.ticks, d)
			}
			return st, nil
		case "failed":
			err := fmt.Errorf("solve %s failed: %s", sub.ID, st.Error)
			c.rec.fail(err)
			return st, err
		}
		time.Sleep(pollInterval)
	}
}

// pollInterval paces solve polling so two polling clients leave the
// two cores to the DP workers.
const pollInterval = 200 * time.Microsecond
