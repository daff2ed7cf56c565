package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// Span names, one per layer boundary the traced run wraps.
const (
	spanClient     = "client"     // generator: request sent until body read
	spanRouter     = "router"     // router http.Handler
	spanAttempt    = "attempt"    // router.Config.Client round trip (incl. hedges, retries)
	spanServer     = "server"     // shard server.Server http.Handler
	spanEngine     = "engine"     // server.Engine.RecommendContext
	spanSimcache   = "simcache"   // core.Recommender.SimilaritySource lookup
	spanSimilarity = "similarity" // similarity.Measure.Similar on a cache miss
	spanUtilities  = "utilities"  // core.Estimator.Utilities
)

// spanHeader carries "<request id>.<parent span id>" across the loopback
// hops, so spans recorded by the server wrappers join the request's tree.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. All spans of one request share req; the
// root (the client span) has parent 0. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	// shed counts 503 answers of shard servers, traced or not, so the
	// capacity search's refusals are counted too.
	shed atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// spanRef identifies a span as a parent for later spans.
type spanRef struct{ req, id uint64 }

// open is a started span; finish records it.
type open struct {
	r *recorder
	s span
}

func (r *recorder) begin(parent spanRef, name string) *open {
	id := r.ids.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	return &open{r: r, s: span{Req: req, ID: id, Parent: parent.id, Name: name, Start: r.now()}}
}

func (o *open) ref() spanRef { return spanRef{req: o.s.Req, id: o.s.ID} }

func (o *open) finish(status int) {
	o.s.End = o.r.now()
	o.s.Status = status
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// take returns the recorded spans and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

type ctxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(ctxKey{}).(spanRef)
	return ref, ok
}

func formatRef(ref spanRef) string {
	return strconv.FormatUint(ref.req, 16) + "." + strconv.FormatUint(ref.id, 16)
}

func parseRef(s string) (spanRef, bool) {
	a, b, ok := strings.Cut(s, ".")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	if err1 != nil || err2 != nil || req == 0 {
		return spanRef{}, false
	}
	return spanRef{req: req, id: id}, true
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps h so every request carrying spanHeader records a span
// named name, and hands the span to h through the request context. Requests
// without the header (untraced phases, output checks) pass through untimed.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if parent, ok := parseRef(req.Header.Get(spanHeader)); ok {
			sp := r.begin(parent, name)
			h.ServeHTTP(sw, req.WithContext(withSpan(req.Context(), sp.ref())))
			sp.finish(sw.status)
		} else {
			h.ServeHTTP(sw, req)
		}
		if name == spanServer && sw.status == http.StatusServiceUnavailable {
			r.shed.Add(1)
		}
	})
}

// transport is the http.RoundTripper the traced router proxies through:
// every attempt, hedge and retry becomes one span, ended when the router
// has read the shard's body, and its id travels to the shard in spanHeader.
type transport struct {
	r    *recorder
	base http.RoundTripper
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := t.r.begin(parent, spanAttempt)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, formatRef(sp.ref()))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.finish(0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, status: resp.StatusCode}
	return resp, nil
}

// spanBody ends its attempt span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp     *open
	status int
	once   sync.Once
}

func (b *spanBody) end() { b.once.Do(func() { b.sp.finish(b.status) }) }

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

// missLog pairs similarity computations with the cache lookups that
// caused them. simcache.Cache computes through the Measure it was built
// with on the caller's goroutine, so a computation for user u that lies
// inside a lookup of u was that lookup's miss.
type missLog struct {
	r  *recorder
	mu sync.Mutex
	m  map[int32][][2]int64
}

func newMissLog(r *recorder) *missLog { return &missLog{r: r, m: make(map[int32][][2]int64)} }

// take removes and returns the computation of u inside [from, to].
func (l *missLog) take(u int32, from, to int64) ([2]int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.m[u]
	for i, iv := range list {
		if iv[0] >= from && iv[1] <= to {
			list[i] = list[len(list)-1]
			if len(list) == 1 {
				delete(l.m, u)
			} else {
				l.m[u] = list[:len(list)-1]
			}
			return iv, true
		}
	}
	return [2]int64{}, false
}

// timedMeasure is the similarity.Measure handed to simcache.New in traced
// runs: it logs every computation for missLog.take.
type timedMeasure struct {
	similarity.Measure
	log *missLog
}

func (m timedMeasure) Similar(g *graph.Social, u int, scratch *similarity.Accumulator) similarity.Scores {
	start := m.log.r.now()
	s := m.Measure.Similar(g, u, scratch)
	end := m.log.r.now()
	m.log.mu.Lock()
	m.log.m[int32(u)] = append(m.log.m[int32(u)], [2]int64{start, end})
	m.log.mu.Unlock()
	return s
}

// selfTime is the part of the interval [start, end] that no child covers.
// Children may overlap one another (a hedged attempt beside its primary)
// and may stick out of the parent; only their union inside the parent is
// subtracted.
func selfTime(start, end int64, children [][2]int64) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c[0], start), min(c[1], end)
		if e > s {
			ivs = append(ivs, [2]int64{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	if curE > curS {
		covered += curE - curS
	}
	return end - start - covered
}
