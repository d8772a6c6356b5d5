package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that made the call (0 for the request root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Depth  int    `json:"depth"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a per-call size: candidates for gain batches, response bytes for
	// ServeHTTP, evaluations for selections, touched nodes for deltas.
	N int64 `json:"n,omitempty"`
	// K is the number of picks of a selection.
	K int64 `json:"k,omitempty"`
	// Outcome classifies index acquires: hit, build or load.
	Outcome string `json:"outcome,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the measured run keeps tracing off.
type tracer struct {
	depth int
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(depth int) *tracer { return &tracer{depth: depth, t0: time.Now()} }

type spanKey struct{}

// spanRef is the caller's position carried on the context.
type spanRef struct{ req, id int64 }

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// withRequest starts a request: spans under ctx share id req.
func withRequest(ctx context.Context, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req: req})
}

// start opens a span under the caller on ctx and returns the context for
// its children plus the function that closes it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span, func()) {
	if t == nil {
		return ctx, &span{}, func() {}
	}
	parent := spanFrom(ctx)
	s := &span{ID: t.next.Add(1), Parent: parent.id, Req: parent.req, Depth: t.depth, Name: name}
	begin := time.Now()
	s.Start = begin.Sub(t.t0).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, spanRef{req: parent.req, id: s.ID}), s, func() {
		s.End = time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, *s)
		t.mu.Unlock()
	}
}

// do times fn as one span.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, _, end := t.start(ctx, name)
	defer end()
	return fn(ctx)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines, the trace file of one run.
func writeSpans(path string, sets ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range sets {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, keyed by span id.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, hi := int64(0), s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanHeader carries the client round-trip span to the server, so the
// ServeHTTP span can name its parent.
const spanHeader = "X-Bench-Span"

// tracingTransport stamps the caller's span on each outgoing request.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref := spanFrom(r.Context()); ref.id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, ref.id))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler records one span per ServeHTTP call, with the response
// size, under the client span named in the request header.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ref spanRef
		if req, id, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			ref.req, _ = strconv.ParseInt(req, 10, 64)
			ref.id, _ = strconv.ParseInt(id, 10, 64)
		}
		_, s, end := t.start(context.WithValue(r.Context(), spanKey{}, ref), "server.ServeHTTP")
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.N = cw.n
		end()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}
