package main

// The traced run's own spans: one per layer boundary the benchmark
// crosses (client op, wrapped Gateway.ServeHTTP, wrapped
// Server.ServeHTTP). Spans of one client operation share its trace ID,
// which travels in the W3C traceparent header the gateway forwards.
// They are kept in memory and written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"calibsched/internal/trace"
)

// spanRec is one recorded span.
type spanRec struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

func (s *spanRec) dur() int64 { return s.End - s.Start }

type openSpan struct{ rec spanRec }

func (o *openSpan) traceparent() string {
	return trace.FormatTraceparent(trace.SpanContext{TraceID: o.rec.Trace, SpanID: o.rec.ID})
}

// spanLog is safe for concurrent use.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	seq   uint64
	spans []spanRec
	// outer maps a trace ID to the open span that nests the next layer
	// down, so a wrapped layer reached over HTTP finds its parent.
	outer map[string]string
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), outer: make(map[string]string)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

func (l *spanLog) nextID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	return l.seq
}

// startRoot opens a client-operation span under a fresh trace ID.
func (l *spanLog) startRoot(name string) *openSpan {
	n := l.nextID()
	return &openSpan{rec: spanRec{
		Name:  name,
		Trace: fmt.Sprintf("%032x", n),
		ID:    fmt.Sprintf("%016x", n),
		Start: l.now(),
	}}
}

// startLayer opens a span for a layer entered by an HTTP request whose
// traceparent is tp. With nest set, the span becomes the parent of the
// next layer entered under the same trace.
func (l *spanLog) startLayer(name, tp string, nest bool) *openSpan {
	sc, _ := trace.ParseTraceparent(tp)
	n := l.nextID()
	o := &openSpan{rec: spanRec{Name: name, Trace: sc.TraceID, ID: fmt.Sprintf("%016x", n), Start: l.now()}}
	l.mu.Lock()
	if p, ok := l.outer[sc.TraceID]; ok {
		o.rec.Parent = p
	} else {
		o.rec.Parent = sc.SpanID
	}
	if nest {
		l.outer[sc.TraceID] = o.rec.ID
	}
	l.mu.Unlock()
	return o
}

func (l *spanLog) end(o *openSpan) {
	o.rec.End = l.now()
	l.mu.Lock()
	if l.outer[o.rec.Trace] == o.rec.ID {
		delete(l.outer, o.rec.Trace)
	}
	l.spans = append(l.spans, o.rec)
	l.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]spanRec(nil), l.spans...)
}

// write stores every span as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, each span's duration and its self
// time: the duration minus the part of it its children cover (µs).
func selfTimes(spans []spanRec) (total, self map[string][]float64) {
	children := make(map[string][]*spanRec)
	for i := range spans {
		if p := spans[i].Parent; p != "" {
			children[p] = append(children[p], &spans[i])
		}
	}
	total = make(map[string][]float64)
	self = make(map[string][]float64)
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total[s.Name] = append(total[s.Name], us(s.dur()))
		self[s.Name] = append(self[s.Name], us(s.dur()-covered))
	}
	return total, self
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
