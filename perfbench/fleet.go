package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"socialrec"
	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/router"
	"socialrec/internal/server"
	"socialrec/internal/simcache"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// engines builds the server.Engine for each served release. Untraced runs
// serve the program's own socialrec engines with the similarity cache on;
// traced runs assemble the same parts (mechanism.Cluster, simcache.Cache,
// core.Recommender) so the estimator and the similarity source can be
// timed from outside.
type engines struct {
	social *graph.Social
	rec    *recorder // nil: untraced
	misses *missLog

	mu      sync.Mutex
	stats   map[server.Engine]func() simcache.Stats
	retired simcache.Stats // counted by engines retire has let go of
}

func newEngines(social *graph.Social, rec *recorder) *engines {
	e := &engines{social: social, rec: rec, stats: map[server.Engine]func() simcache.Stats{}}
	if rec != nil {
		e.misses = newMissLog(rec)
	}
	return e
}

func (f *engines) track(e server.Engine, stats func() simcache.Stats) {
	f.mu.Lock()
	f.stats[e] = stats
	f.mu.Unlock()
}

// retire folds what an engine's similarity cache counted into the sums
// and stops tracking the engine, so that once it stops serving nothing
// here keeps it in memory: peak_rss_mb measures the program, not
// engines only the benchmark still points to.
func (f *engines) retire(e server.Engine) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, ok := f.stats[e]; ok {
		addStats(&f.retired, st())
		delete(f.stats, e)
	}
}

// cacheStats sums the counters of every similarity cache built so far,
// including caches of engines a swap has since replaced.
func (f *engines) cacheStats() simcache.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	sum := f.retired
	for _, st := range f.stats {
		addStats(&sum, st())
	}
	return sum
}

func addStats(sum *simcache.Stats, s simcache.Stats) {
	sum.Hits += s.Hits
	sum.Misses += s.Misses
	sum.Evictions += s.Evictions
}

// forShard builds the engine one shard replica serves.
func (f *engines) forShard(sh *release.Shard) (server.Engine, error) {
	if f.rec == nil {
		e, err := socialrec.EngineFromShard(sh, f.social)
		if err != nil {
			return nil, err
		}
		e.EnableSimilarityCache(0)
		f.track(e, func() simcache.Stats { s, _ := e.CacheStats(); return s })
		return e, nil
	}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	return f.parts(sh.Release, sh)
}

// forRelease builds a whole-population engine, as server.Hot serves.
func (f *engines) forRelease(rel *release.Release) (server.Engine, error) {
	if f.rec == nil {
		e, err := socialrec.EngineFromRelease(rel, f.social)
		if err != nil {
			return nil, err
		}
		e.EnableSimilarityCache(0)
		f.track(e, func() simcache.Stats { s, _ := e.CacheStats(); return s })
		return e, nil
	}
	return f.parts(rel, nil)
}

func (f *engines) parts(rel *release.Release, sh *release.Shard) (*partsEngine, error) {
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		return nil, err
	}
	est, err := mechanism.NewClusterFromRelease(rel.Clusters, rel.NumItems, rel.Avg)
	if err != nil {
		return nil, err
	}
	cache := simcache.New(f.social, timedMeasure{Measure: m, log: f.misses}, 0)
	plain := core.NewRecommender(f.social, rel.NumItems, m, est)
	plain.SimilaritySource = cache.Similar
	e := &partsEngine{
		f: f, measure: m, est: est, cache: cache, plain: plain,
		numItems: rel.NumItems, eps: rel.Epsilon, clusters: rel.Clusters, shard: sh,
	}
	f.track(e, cache.Stats)
	return e, nil
}

// partsEngine is a server.Engine assembled from the engine's parts, so the
// traced run can wrap core.Estimator and core.Recommender.SimilaritySource.
type partsEngine struct {
	f        *engines
	measure  similarity.Measure
	est      *mechanism.Cluster
	cache    *simcache.Cache
	plain    *core.Recommender
	numItems int
	eps      float64
	clusters *community.Clustering
	shard    *release.Shard // nil serves the whole population
}

func (e *partsEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	if !e.Owns(user) {
		return nil, fmt.Errorf("%w (user %d)", socialrec.ErrNotOwned, user)
	}
	parent, ok := spanFrom(ctx)
	if !ok {
		lists, err := e.plain.RecommendContext(ctx, []int32{int32(user)}, n)
		if err != nil {
			return nil, err
		}
		return lists[0], nil
	}
	r := e.f.rec
	sp := r.begin(parent, spanEngine)
	ref := sp.ref()
	// One Recommender per call binds this request's span to the wrapped
	// estimator and similarity source; the type holds no other state.
	rec := core.NewRecommender(e.f.social, e.numItems, e.measure, tracedEstimator{inner: e.est, r: r, parent: ref})
	rec.SimilaritySource = func(u int32) similarity.Scores {
		lk := r.begin(ref, spanSimcache)
		s := e.cache.Similar(u)
		lk.finish(0)
		if iv, miss := e.f.misses.take(u, lk.s.Start, lk.s.End); miss {
			r.mu.Lock()
			r.spans = append(r.spans, span{Req: ref.req, ID: r.ids.Add(1), Parent: lk.s.ID,
				Name: spanSimilarity, Start: iv[0], End: iv[1]})
			r.mu.Unlock()
		}
		return s
	}
	lists, err := rec.RecommendContext(ctx, []int32{int32(user)}, n)
	sp.finish(0)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

func (e *partsEngine) Owns(user int) bool {
	if e.shard != nil {
		return e.shard.Owns(user)
	}
	return user >= 0 && user < e.clusters.NumUsers()
}

func (e *partsEngine) ClusterOf(user int) int {
	if e.shard != nil {
		return e.shard.GlobalCluster(user)
	}
	return e.clusters.Cluster(user)
}

func (e *partsEngine) Epsilon() float64    { return e.eps }
func (e *partsEngine) NumClusters() int    { return e.clusters.NumClusters() }
func (e *partsEngine) Modularity() float64 { return community.Modularity(e.f.social, e.clusters) }

// tracedEstimator times core.Estimator.Utilities under one request's span.
type tracedEstimator struct {
	inner  core.Estimator
	r      *recorder
	parent spanRef
}

func (t tracedEstimator) Name() string { return t.inner.Name() }

func (t tracedEstimator) Utilities(users []int32, sims []similarity.Scores, out [][]float64) {
	sp := t.r.begin(t.parent, spanUtilities)
	t.inner.Utilities(users, sims, out)
	sp.finish(0)
}

// listener is one loopback HTTP server.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
	}()
	return l, nil
}

func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // shutdown timed out; the listener is gone either way
	}
	<-l.done
}

// tier is a router in front of shard servers on loopback.
type tier struct {
	url       string
	router    *router.Router
	listeners []*listener
	transport *http.Transport
}

// startTier serves each engine row (shard -> replicas) from its own
// server.Server and puts a router in front. With rec set, every handler
// and the router's RoundTripper record spans.
func startTier(manifest *release.Manifest, userIDs map[string]int, shards [][]server.Engine, rec *recorder, seed int64) (*tier, error) {
	t := &tier{}
	urls := make([][]string, len(shards))
	for s, reps := range shards {
		for _, eng := range reps {
			srv, err := server.New(server.Config{
				Engine: eng, UserIDs: userIDs, Logger: discardLogger, Metrics: telemetry.NewRegistry(),
			})
			if err != nil {
				t.stop()
				return nil, err
			}
			var h http.Handler = srv
			if rec != nil {
				h = rec.handler(spanServer, srv)
			}
			l, err := listen(h)
			if err != nil {
				t.stop()
				return nil, err
			}
			t.listeners = append(t.listeners, l)
			urls[s] = append(urls[s], l.url)
		}
	}
	t.transport = http.DefaultTransport.(*http.Transport).Clone()
	t.transport.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = t.transport
	if rec != nil {
		rt = transport{r: rec, base: t.transport}
	}
	r, err := router.New(router.Config{
		Manifest: manifest, UserIDs: userIDs, Shards: urls, Client: &http.Client{Transport: rt},
		ProbeInterval: -1, Seed: seed, Logger: discardLogger, Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = r
	var h http.Handler = r
	if rec != nil {
		h = rec.handler(spanRouter, r)
	}
	l, err := listen(h)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.listeners = append(t.listeners, l)
	t.url = l.url
	return t, nil
}

// stop drains the router, then stops every listener, router last-in first.
func (t *tier) stop() {
	if t.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = t.router.Shutdown(ctx) // best effort: the listeners are closed next regardless
		cancel()
	}
	for i := len(t.listeners) - 1; i >= 0; i-- {
		t.listeners[i].stop()
	}
	if t.transport != nil {
		t.transport.CloseIdleConnections()
	}
}

// userTokens lists the served user tokens in id order.
func userTokens(ids map[string]int) []string {
	out := make([]string, len(ids))
	for tok, id := range ids {
		out[id] = tok
	}
	return out
}
