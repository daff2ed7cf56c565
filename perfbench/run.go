package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"socialrec"
	"socialrec/internal/generator"
	"socialrec/internal/server"
	"socialrec/internal/simcache"
)

const (
	// numShards and replicas shape the static serving tier.
	numShards = 2
	replicas  = 2
	// A run is invalid when its generator fell behind its own schedule:
	// its median lateness or its lateness at the end of the fixed-rate
	// phase beyond these. Occasional late wake-ups are not falling behind:
	// latency is timed from the due time, so they are measured, not hidden.
	maxMedianLag = 5 * time.Millisecond
	maxFinalLag  = 100 * time.Millisecond
	// capacityRes is the capacity search's resolution, a fraction of the
	// rate; five times finer than a 0.25 regression bound. capSteps bounds
	// the search: the saturating step, X, a step a fifth away and three
	// bisections take six, and a failing step after the first pass one
	// more for its second try.
	capacityRes = 0.05
	capSteps    = 14
	// cycles is how many measuring cycles an untraced run goes through.
	// Their rounds of reads share readShare of the run's seconds, their
	// saturation rounds satShare.
	cycles    = 20
	readShare = 2.0 / 3
	satShare  = 1.0 / 2
)

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool // the tiny test population, for smoke tests
	dir      string
	traceDir string
}

func (o options) dur(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// run executes every phase of one workload run and collects its metrics.
func run(ctx context.Context, wl workload, o options) (*result, error) {
	res := &result{correct: true, metrics: map[string]metric{}, detail: map[string]any{}, sizes: map[string]int{}}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	res.detail["fs_type"] = fsType(o.dir)
	preset, rate, batchRate := generator.LastFMLike, wl.rate, wl.batchRate
	if o.tiny {
		// A smoke run only has to reach every phase; a quarter of the
		// rates keeps it valid under the race detector too.
		preset, rate, batchRate = generator.TinyTest, rate/4, batchRate/4
	}
	res.detail["preset"] = preset(o.seed).Name
	nconn := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	res.detail["connections"] = nconn

	// phases records where the run's wall time went.
	phases := map[string]float64{}
	mark := time.Now()
	lap := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}

	// Set-up: generate the inputs as TSV files, several times.
	var setups []float64
	var in inputs
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		var err error
		in, err = writeInputs(preset(o.seed), filepath.Join(o.dir, fmt.Sprintf("inputs-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	lap("setup")

	// Offline build, TSV to a persisted and re-read sharded release. Each
	// build starts from a collected heap, so the garbage of whatever ran
	// before it decides neither how much collection its own allocations
	// trigger nor how high the heap, and with it the resident set, climbs.
	var builds []buildTimes
	build := func(storeDir string) (*built, error) {
		runtime.GC()
		nb, err := buildRelease(ctx, in, louvainRuns, numShards, o.seed, storeDir)
		if nb == nil {
			return nil, fmt.Errorf("release build: %w", err)
		}
		res.note(1, err, "release read back")
		builds = append(builds, nb.times)
		return nb, nil
	}
	var b *built
	for i := 0; i < buildRuns; i++ {
		nb, err := build(filepath.Join(o.dir, fmt.Sprintf("build-%d", i)))
		if err != nil {
			return nil, err
		}
		if b != nil {
			if err := os.RemoveAll(filepath.Join(o.dir, fmt.Sprintf("build-%d", i-1))); err != nil {
				return nil, err
			}
		}
		b = nb
	}
	lap("build")
	res.sizes["users"] = b.social.NumUsers()
	res.sizes["social_edges"] = b.social.NumEdges()
	res.sizes["items"] = b.prefs.NumItems()
	res.sizes["preference_edges"] = b.prefs.NumEdges()
	res.sizes["clusters"] = b.rel.Clusters.NumClusters()
	res.sizes["input_bytes"] = int(in.bytes)
	res.detail["builds"] = len(builds)

	tokens := userTokens(b.userIDs)
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	f := newEngines(b.social, rec)
	// Serving set-up, part of setup_s: every engine, both tiers and the
	// streamer ready to take requests and mutations.
	serveStart := time.Now()
	var err error

	// The static tier: 2 shards x 2 replicas behind the router.
	var fleet *tier
	if !wl.readsBesideWrites {
		engs := make([][]server.Engine, len(b.shards))
		for s, sh := range b.shards {
			for r := 0; r < replicas; r++ {
				e, err := f.forShard(sh)
				if err != nil {
					return nil, err
				}
				engs[s] = append(engs[s], e)
			}
		}
		if fleet, err = startTier(b.manifest, b.userIDs, engs, rec, o.seed); err != nil {
			return nil, err
		}
		defer fleet.stop()
	}

	// The Hot tier: one server.Server backed by server.Hot, which the
	// streaming writer publishes into, behind a one-shard router.
	st, err := openStreamer(b, f, filepath.Join(o.dir, "stream"), louvainRuns, o.seed+21)
	if err != nil {
		return nil, err
	}
	defer st.close()
	one, _, err := split(b.rel, b.social, 1)
	if err != nil {
		return nil, err
	}
	hotTier, err := startTier(one, b.userIDs, [][]server.Engine{{st.hot}}, rec, o.seed+1)
	if err != nil {
		return nil, err
	}
	defer hotTier.stop()
	serveSetup := time.Since(serveStart).Seconds()
	lap("tiers")

	ref, err := socialrec.EngineFromRelease(b.rel, b.social)
	if err != nil {
		return nil, err
	}
	if fleet != nil {
		n, err := checkSample(ctx, fleet.url, ref, tokens, b.userIDs, o.seed+11)
		res.note(n, err, "sharded tier against the unsharded engine")
	}
	n, err := checkSample(ctx, hotTier.url, ref, tokens, b.userIDs, o.seed+12)
	res.note(n, err, "hot tier against the unsharded engine")
	lap("first_checks")

	target := fleet
	if wl.readsBesideWrites {
		target = hotTier
	}
	gen := newGenerator(target.url, newPicker(tokens, zipfS, o.seed+31), batchShare, nconn, nil)
	defer gen.close()
	res.requests(gen.warmAll(ctx, tokens), "cache warm-up requests")
	lap("warm_caches")

	// With reads beside writes, the writer publishes from its own goroutine
	// between startWriter and stopWriter, which cancels it and waits for it
	// to return.
	stopWriter := func() error { return nil }
	startWriter := func() {
		if !wl.readsBesideWrites {
			return
		}
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- st.run(wctx, writeInterval, 0) }()
		stopWriter = func() error {
			cancel()
			err := <-done
			stopWriter = func() error { return nil }
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				return nil
			}
			return err
		}
	}
	defer func() { stopWriter() }()

	// phase offers rate requests per second for dur, a share of them
	// batches.
	phase := func(share, rate float64, dur time.Duration) *loadResult {
		gen.batchShare = share
		return gen.run(ctx, rate, dur, 0)
	}
	// publish lands the serve_hot writer's publishes back to back until
	// the run has landed upTo of them.
	publish := func(upTo int) error {
		if wl.readsBesideWrites {
			return nil
		}
		return st.run(ctx, 0, upTo)
	}

	// The traced run's fixed-rate phase sends single-user reads for two
	// thirds of the run's seconds, an untraced half then a traced half, and
	// traced batches for the rest, with the writer beside them on
	// serve_update. Apart, neither kind's latency depends on how often it
	// happened to overlap the other.
	singleDur, batchDur := o.dur(2.0/3), o.dur(1.0/3)
	var fixed, tracedRes *loadResult
	var spans []span
	var rt0, rt1 runtimeSample
	var cache0, cache1 simcache.Stats
	var perCPU []float64
	if o.traced {
		startWriter()
		res.requests(phase(batchShare, rate, warmup(o)), "warm-up requests")
		rt0 = readRuntime()
		fixed = phase(0, rate, singleDur/2)
		rt1 = readRuntime()
		rec.take()
		cache0 = f.cacheStats()
		gen.rec = rec
		tracedRes = phase(0, rate, singleDur/2)
		tracedRes.merge(phase(1, batchRate, batchDur))
		gen.rec = nil
		cache1 = f.cacheStats()
		spans = rec.take()
		res.requests(tracedRes, "traced fixed-rate requests")
		if err := stopWriter(); err != nil {
			return nil, fmt.Errorf("writer: %w", err)
		}
		lap("fixed_rate")

		// The latency-bounded capacity search. Its first step offers
		// forty times the fixed rate, which saturates every workload's
		// tier.
		gen.batchShare = batchShare
		capRate, tried, capRes, err := gen.capacity(ctx, 40*rate, latencyLimit, capStep(o), capSteps, capacityRes)
		res.requests(capRes, "capacity search requests")
		res.note(1, err, "capacity search")
		res.set("client.capacity_rps", "1/s", capRate)
		res.detail["capacity_steps_rps"] = tried
		res.detail["latency_limit_ms"] = ms(float64(latencyLimit))
		lap("capacity")
		if err := publish(publishes); err != nil {
			return nil, fmt.Errorf("writer: %w", err)
		}
		lap("publish")
	} else {
		// The untraced run measures in cycles, so that every figure's
		// samples are spread over the whole run and a slow spell of the
		// host lands in few of them. A cycle sends a round of single-user
		// reads at the fixed rate (rec_p50_ms; the writer beside them on
		// serve_update), then with the writer stopped saturates the tier
		// for a round (capacity_per_cpu_rps), builds the release once more
		// (release_build_cpu_s) and, on serve_hot, lands its share of the
		// publishes (publish_cpu_ms). The same work costs a
		// third more or less CPU time from one moment to the next on a
		// shared host, so each figure is a median over many samples.
		// Each cycle's reads are skewed over a fresh permutation of the
		// users: a user's Eq. 4 cost grows with the clusters its
		// neighbours fall in, so the median read of one permutation is
		// the cost of whichever few users it made hottest.
		res.requests(phase(batchShare, rate, warmup(o)), "warm-up requests")
		lap("warm_up")
		fixed = &loadResult{}
		for i := 0; i < cycles; i++ {
			gen.pick.reshuffle()
			startWriter()
			fixed.merge(phase(0, rate, o.dur(readShare/cycles)))
			if err := stopWriter(); err != nil {
				return nil, fmt.Errorf("writer: %w", err)
			}
			perc, sat := gen.saturate(ctx, o.dur(satShare/cycles), int(math.Round(1/batchShare)))
			res.requests(sat, "saturation requests")
			perCPU = append(perCPU, perc)
			storeDir := filepath.Join(o.dir, fmt.Sprintf("cycle-build-%d", i))
			if _, err := build(storeDir); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(storeDir); err != nil {
				return nil, err
			}
			if err := publish((i + 1) * publishes / cycles); err != nil {
				return nil, fmt.Errorf("writer: %w", err)
			}
		}
		lap("cycles")
	}
	res.requests(fixed, "fixed-rate requests")
	if lag := time.Duration(fixed.schedLag.p(50)); lag > maxMedianLag || fixed.lastLag > maxFinalLag {
		// The figures would measure the generator, not the program.
		return nil, fmt.Errorf("invalid run: generator fell behind its schedule (median lag %v, final lag %v)",
			lag, fixed.lastLag)
	}
	res.attempted += st.stats.advances
	res.note(1, st.check(), "hot tier lineage and ε")
	latest, _, _, err := st.store.LoadLatestContext(ctx)
	if err != nil {
		return nil, err
	}
	final, err := socialrec.EngineFromRelease(latest, b.social)
	if err != nil {
		return nil, err
	}
	n, err = checkSample(ctx, hotTier.url, final, tokens, b.userIDs, o.seed+13)
	res.note(n, err, "hot tier after updates against the unsharded engine")

	lap("final_checks")
	res.detail["phase_s"] = phases
	res.detail["fixed_rate_rps"] = map[string]float64{"single": rate, "batch": batchRate}
	if o.traced {
		if err := writeSpans(o.traceDir, wl.name, o.seed, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		perLayer(res, b, builds, fixed, tracedRes, analyze(spans), rec.shed.Load(), st, rt0, rt1, cache0, cache1)
	} else {
		res.detail["saturation_rps_per_cpu"] = perCPU
		res.detail["build_cpu_s"] = buildFigure(builds, func(t buildTimes) time.Duration { return t.cpu })
		endToEnd(res, fixed, median(perCPU), st, builds, setups, serveSetup)
	}
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.note(0, fmt.Errorf("no samples"), "metric "+name)
			res.set(name, m.Unit, 0)
		}
	}
	return res, nil
}

func warmup(o options) time.Duration {
	return min(time.Second, o.dur(1.0/12))
}

func capStep(o options) time.Duration {
	return min(2*time.Second, o.dur(1.0/15))
}

// requests counts an open-loop phase's requests; any failed request is a
// failed output check.
func (r *result) requests(l *loadResult, what string) {
	r.attempted += l.sent
	r.failed += l.failed
	if l.failed > 0 {
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d failed, first: %v\n", what, l.failed, l.sent, l.failures)
	}
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, fixed *loadResult, perCPU float64, st *streamer, builds []buildTimes, setups []float64, serveSetup float64) {
	res.set("rec_p50_ms", "ms", ms(fixed.single.dist().p(50)))
	res.set("capacity_per_cpu_rps", "1/s", perCPU)
	res.set("publish_cpu_ms", "ms", ms(st.stats.publishCPU.p(50)))
	buildCPU := median(buildFigure(builds, func(t buildTimes) time.Duration { return t.cpu }))
	res.set("release_build_cpu_s", "s", buildCPU)
	// setup_s is everything before timing starts: generating the inputs,
	// building the served release, and starting the tiers on it.
	buildS := median(buildFigure(builds, buildTimes.total))
	res.set("setup_s", "s", median(setups)+buildS+serveSetup)
	res.set("peak_rss_mb", "MB", peakRSS())
	res.detail["samples"] = map[string]int{
		"rec": len(fixed.single), "publish": st.stats.publish.n(), "builds": len(builds), "saturation_rounds": cycles,
	}
	if buildCPU <= 0 || st.stats.publishCPU.p(50) <= 0 {
		res.note(0, fmt.Errorf("no thread CPU time read"), "CPU figures")
	}
}

// buildFigure is one figure of every build, in seconds.
func buildFigure(builds []buildTimes, get func(buildTimes) time.Duration) []float64 {
	v := make([]float64, len(builds))
	for i, t := range builds {
		v[i] = get(t).Seconds()
	}
	return v
}

// perLayer fills the traced run's metrics.
func perLayer(res *result, b *built, builds []buildTimes, base, traced *loadResult,
	lt *layerTimes, shed int64, st *streamer, rt0, rt1 runtimeSample, c0, c1 simcache.Stats) {
	stage := func(get func(buildTimes) time.Duration) float64 { return median(buildFigure(builds, get)) }
	// The latency tails are taken from the traced run: its untraced half
	// of single-user reads and its traced batches.
	_, recTail, _ := windowedTail(base.single, 90)
	res.set("client.rec_p90_ms", "ms", ms(recTail))
	_, batchTail, _ := windowedTail(traced.batch, 90)
	res.set("client.batch_p90_ms", "ms", ms(batchTail))
	_, lag := traced.schedLag.tail(99)
	res.set("client.sched_lag_p99_ms", "ms", ms(lag))
	res.set("client.conn_wait_p50_ms", "ms", ms(traced.connWait.p(50)))
	res.set("client.self_p50_us", "us", us(lt.clientSelf.p(50)))
	res.set("router.self_p50_us", "us", us(lt.routerSelf.p(50)))
	res.set("router.attempts_per_req", "ratio", ratio(lt.singleAttempts, lt.singles))
	res.set("router.hop_p50_us", "us", us(lt.hop.p(50)))
	res.set("router.batch_fanout", "ratio", ratio(lt.batchAttempts, lt.batches))
	res.set("server.self_p50_us", "us", us(lt.serverSelf.p(50)))
	res.set("server.shed", "count", float64(shed))
	res.set("core.recommend_p50_us", "us", us(lt.engine.p(50)))
	_, ep := lt.engine.tail(99)
	res.set("core.recommend_p99_us", "us", us(ep))
	res.set("core.topn_self_us", "us", us(lt.topnSelf.p(50)))
	res.set("similarity.compute_us_per_user", "us", orZero(us(lt.similarity.mean()), lt.simComputes))
	res.set("simcache.hit_ratio", "ratio", ratio(int(c1.Hits-c0.Hits), int(c1.Hits-c0.Hits+c1.Misses-c0.Misses)))
	res.set("simcache.evictions", "count", float64(c1.Evictions-c0.Evictions))
	res.set("mechanism.utilities_us_per_user", "us", us(lt.utilities.mean()))
	res.set("mechanism.release_s", "s", stage(func(t buildTimes) time.Duration { return t.mechanism }))
	ingest := stage(func(t buildTimes) time.Duration { return t.ingest })
	res.set("dataset.ingest_s", "s", ingest)
	res.set("dataset.ingest_mb_per_s", "MB/s", float64(res.sizes["input_bytes"])/1e6/ingest)
	res.set("community.louvain_s", "s", stage(func(t buildTimes) time.Duration { return t.louvain }))
	res.set("community.modularity", "ratio", b.modularity)
	res.set("release.split_s", "s", stage(func(t buildTimes) time.Duration { return t.split }))
	res.set("release.persist_s", "s", stage(func(t buildTimes) time.Duration { return t.persist }))
	res.set("release.load_s", "s", stage(func(t buildTimes) time.Duration { return t.load }))
	res.set("release.bytes", "bytes", float64(b.bytes))
	res.set("release.build_s", "s", stage(buildTimes.total))
	res.set("release.delta_bytes", "bytes", orZero(st.stats.deltaBytes.p(50), st.stats.deltaBytes.n()))
	res.set("wal.append_sync_p50_us", "us", us(st.stats.appendSync.p(50)))
	res.set("dynamic.advance_p50_ms", "ms", ms(st.stats.advance.p(50)))
	res.set("dynamic.publish_share", "ratio", ratio(st.stats.publishes, st.stats.advances))
	res.set("dynamic.delta_share", "ratio", ratio(st.stats.deltas, st.stats.publishes))
	res.set("hot.swap_p50_ms", "ms", ms(st.stats.swap.p(50)))
	res.set("dynamic.publish_p50_ms", "ms", ms(st.stats.publish.p(50)))
	reqs := base.sent + 15*len(base.batch)
	res.set("runtime.alloc_kb_per_req", "KB", (rt1.allocBytes-rt0.allocBytes)/1024/float64(max(reqs, 1)))
	res.set("runtime.gc_cpu_fraction", "ratio", (rt1.gcCPU-rt0.gcCPU)/math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9))
	pathRatio := lt.pathRatio.p(50)
	res.set("trace.path_sum_ratio", "ratio", pathRatio)
	var pathErr error
	switch {
	case lt.pathGaps > 0:
		pathErr = fmt.Errorf("%d of %d single-user trees lack a layer of the blocking path", lt.pathGaps, lt.pathRatio.n())
	case math.Abs(pathRatio-1) > pathTolerance:
		pathErr = fmt.Errorf("median path-sum ratio %.4f is outside 1±%g", pathRatio, pathTolerance)
	}
	res.note(lt.pathRatio.n(), pathErr, "traced blocking path")
	b50, t50 := base.single.dist().p(50), traced.single.dist().p(50)
	res.set("trace.overhead_pct", "%", 100*(t50-b50)/b50)
	res.detail["spans"] = map[string]int{
		"singles": lt.singles, "batches": lt.batches, "server_calls": lt.serverCalls,
		"similarity_lookups": lt.simLookups, "similarity_computes": lt.simComputes,
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// orZero reports a mean or percentile over n samples, 0 when there were
// none (a layer the run's traffic never reached, such as similarity on a
// fully warm cache).
func orZero(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// Linux's CPU-time clocks, which the syscall package does not name.
// Unlike getrusage, whose per-thread figure moves in scheduler ticks of
// several milliseconds, they count in nanoseconds.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads one of the CPU-time clocks; it stays 0 where the clock
// cannot be read, and the metrics built on it then fail their check.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread. A caller locks its
// goroutine to the thread around what it times, so the figure is that
// goroutine's own work. Unlike wall time it leaves out the time the host
// hands the virtual CPU to other tenants (steal), which on a shared host
// moves a 0.1 s stage by a quarter from one run to the next.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time of every thread of the process.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// peakRSS is the process's peak resident set in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
