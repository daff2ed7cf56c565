package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// listN is the recommendation list length every request asks for.
const listN = 10

// batchUsers is the size of a /recommend/batch request.
const batchUsers = 16

// picker draws request users from the seed: single-user reads Zipf-skewed
// over a seeded permutation of the population, or uniform when s is 0;
// batch members always uniform, so a batch's split across shards does not
// hinge on which shard the few hottest users of a seed landed on.
type picker struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	tokens []string
	perm   []int
}

func newPicker(tokens []string, s float64, seed int64) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{rng: rng, tokens: tokens, perm: rng.Perm(len(tokens))}
	if s > 0 && len(tokens) > 1 {
		p.zipf = rand.NewZipf(rng, s, 1, uint64(len(tokens)-1))
	}
	return p
}

func (p *picker) user() string {
	if p.zipf != nil {
		return p.tokens[p.perm[p.zipf.Uint64()]]
	}
	return p.uniform()
}

func (p *picker) uniform() string { return p.tokens[p.rng.Intn(len(p.tokens))] }

// reshuffle draws a new seeded permutation, so other users become the
// hot ones.
func (p *picker) reshuffle() { p.perm = p.rng.Perm(len(p.tokens)) }

// job is one request of the open loop, due at a fixed time.
type job struct {
	due   time.Time
	batch bool
	users []string
}

// loadResult is what one open-loop phase measured. Latencies run from
// the time each request was due, so a stall also delays every request
// queued behind it.
type loadResult struct {
	single, batch samples // due -> response read
	connWait      dist    // due -> a connection was free and the send began, ns
	schedLag      dist    // due -> the generator queued the request, ns
	sent, failed  int
	dropped       int // queued but never sent (overloaded capacity step)
	endBacklog    int // requests due but not yet sent when dispatch ended
	lastLag       time.Duration
	failures      []string
	elapsed       time.Duration
}

func (r *loadResult) merge(o *loadResult) {
	r.single = append(r.single, o.single...)
	r.batch = append(r.batch, o.batch...)
	r.connWait.vals = append(r.connWait.vals, o.connWait.vals...)
	r.schedLag.vals = append(r.schedLag.vals, o.schedLag.vals...)
	r.lastLag = max(r.lastLag, o.lastLag)
	r.sent += o.sent
	r.failed += o.failed
	r.dropped += o.dropped
	if len(r.failures) < 5 {
		r.failures = append(r.failures, o.failures...)
	}
}

// loadGen is the benchmark's client: an open loop over at most nconn
// keep-alive connections, one per worker.
type loadGen struct {
	url        string
	pick       *picker
	batchShare float64
	rec        *recorder // nil: untraced
	clients    []*http.Client
}

func newGenerator(url string, pick *picker, batchShare float64, nconn int, rec *recorder) *loadGen {
	g := &loadGen{url: url, pick: pick, batchShare: batchShare, rec: rec}
	for i := 0; i < nconn; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

func (g *loadGen) nextJob(due time.Time) job {
	if g.batchShare > 0 && g.pick.rng.Float64() < g.batchShare {
		users := make([]string, batchUsers)
		for i := range users {
			users[i] = g.pick.uniform()
		}
		return job{due: due, batch: true, users: users}
	}
	return job{due: due, users: []string{g.pick.user()}}
}

// run offers rate requests per second for dur, by the clock. When
// dropOnBacklog is set, requests still queued once dispatch ends are
// dropped instead of sent (a capacity step that already failed).
func (g *loadGen) run(ctx context.Context, rate float64, dur time.Duration, dropOnBacklog int) *loadResult {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	queue := make(chan job, total)
	var stop atomic.Bool
	results := make([]*loadResult, len(g.clients))
	var wg sync.WaitGroup
	for w := range g.clients {
		results[w] = &loadResult{}
		wg.Add(1)
		go func(c *http.Client, res *loadResult) {
			defer wg.Done()
			for j := range queue {
				if stop.Load() || ctx.Err() != nil {
					res.dropped++
					continue
				}
				g.do(ctx, c, j, res)
			}
		}(g.clients[w], results[w])
	}
	out := &loadResult{}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		out.schedLag.addDur(lag)
		out.lastLag = lag
		queue <- g.nextJob(due)
	}
	out.endBacklog = len(queue)
	if dropOnBacklog > 0 && out.endBacklog > dropOnBacklog {
		stop.Store(true)
	}
	close(queue)
	wg.Wait()
	out.elapsed = time.Since(start)
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// warmAll asks for every user once as a single read and once as a member
// of a batch, closed loop. Single reads reach the replica the router picks
// for the user, batches the replica it picks for the shard, so afterwards
// every replica's similarity cache holds the users it serves and the timed
// phases start from a steady cache instead of filling it as they go.
func (g *loadGen) warmAll(ctx context.Context, tokens []string) *loadResult {
	var jobs []job
	for _, t := range tokens {
		jobs = append(jobs, job{users: []string{t}})
	}
	for i := 0; i < len(tokens); i += batchUsers {
		users := make([]string, batchUsers)
		for k := range users {
			users[k] = tokens[(i+k)%len(tokens)]
		}
		jobs = append(jobs, job{batch: true, users: users})
	}
	return g.closedLoop(ctx, func() (job, bool) {
		if len(jobs) == 0 {
			return job{}, false
		}
		j := jobs[0]
		jobs = jobs[1:]
		j.due = time.Now()
		return j, true
	})
}

// saturate sends requests closed loop for dur, every connection sending
// its next request as soon as the last one is read, and reports how many
// requests the process completed per second of its CPU time: the requests
// one core serves at saturation. Every batchEvery-th request is a batch,
// the rest single-user reads, so the mix is the same in every round, and
// all users are drawn uniformly, so the figure does not hinge on which
// users a seed made hot. The process CPU time covers the generator's own
// client work too.
func (g *loadGen) saturate(ctx context.Context, dur time.Duration, batchEvery int) (perCPU float64, r *loadResult) {
	end := time.Now().Add(dur)
	cpu0 := processCPU()
	k := 0
	r = g.closedLoop(ctx, func() (job, bool) {
		now := time.Now()
		if now.After(end) {
			return job{}, false
		}
		k++
		if k%batchEvery == 0 {
			users := make([]string, batchUsers)
			for i := range users {
				users[i] = g.pick.uniform()
			}
			return job{due: now, batch: true, users: users}, true
		}
		return job{due: now, users: []string{g.pick.uniform()}}, true
	})
	cpu := processCPU() - cpu0
	return float64(len(r.single)+len(r.batch)) / cpu.Seconds(), r
}

// closedLoop runs one worker per connection, each taking the next job
// from next, which is called under a lock, until next reports none left.
func (g *loadGen) closedLoop(ctx context.Context, next func() (job, bool)) *loadResult {
	var mu sync.Mutex
	results := make([]*loadResult, len(g.clients))
	var wg sync.WaitGroup
	for w := range g.clients {
		results[w] = &loadResult{}
		wg.Add(1)
		go func(c *http.Client, res *loadResult) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				j, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				g.do(ctx, c, j, res)
			}
		}(g.clients[w], results[w])
	}
	wg.Wait()
	out := &loadResult{}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

type recItem struct {
	Item    string  `json:"item"`
	Utility float64 `json:"utility"`
}

type recResponse struct {
	User            string    `json:"user"`
	Cluster         int       `json:"cluster"`
	Recommendations []recItem `json:"recommendations"`
	Error           string    `json:"error"`
}

type batchResponse struct {
	Results  []recResponse `json:"results"`
	Degraded bool          `json:"degraded"`
}

func (g *loadGen) do(ctx context.Context, c *http.Client, j job, res *loadResult) {
	begin := time.Now()
	res.connWait.addDur(begin.Sub(j.due))
	res.sent++
	var sp *open
	var err error
	if g.rec != nil {
		name := spanClient
		if j.batch {
			name = spanClientBatch
		}
		sp = g.rec.begin(spanRef{}, name)
	}
	if j.batch {
		var b batchResponse
		err = g.call(ctx, c, sp, j.users, &b)
		if err == nil {
			err = checkBatch(j.users, b)
		}
	} else {
		var r recResponse
		err = g.call(ctx, c, sp, j.users, &r)
		if err == nil {
			err = checkList(j.users[0], r)
		}
	}
	end := time.Now()
	if sp != nil {
		status := 200
		if err != nil {
			status = 500
		}
		sp.finish(status)
	}
	if err != nil {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, err.Error())
		}
		return
	}
	s := sample{due: j.due, lat: end.Sub(j.due)}
	if j.batch {
		res.batch = append(res.batch, s)
	} else {
		res.single = append(res.single, s)
	}
}

// call sends one request (single user, or a batch when len(users) > 1)
// and decodes a 200 body into out.
func (g *loadGen) call(ctx context.Context, c *http.Client, sp *open, users []string, out any) error {
	var req *http.Request
	var err error
	if len(users) == 1 {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			g.url+"/recommend?user="+users[0]+"&n="+strconv.Itoa(listN), nil)
	} else {
		body, _ := json.Marshal(map[string]any{"users": users, "n": listN}) // strings and an int always marshal
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/recommend/batch", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	if sp != nil {
		req.Header.Set(spanHeader, formatRef(sp.ref()))
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(raw, out)
}

// checkList verifies one served list: the user asked for, the requested
// length, and descending utility.
func checkList(user string, r recResponse) error {
	if r.Error != "" {
		return fmt.Errorf("user %s: error row %q", user, r.Error)
	}
	if r.User != user {
		return fmt.Errorf("asked for user %s, answer is for %s", user, r.User)
	}
	if len(r.Recommendations) != listN {
		return fmt.Errorf("user %s: list length %d, want %d", user, len(r.Recommendations), listN)
	}
	for i := 1; i < len(r.Recommendations); i++ {
		if r.Recommendations[i].Utility > r.Recommendations[i-1].Utility {
			return fmt.Errorf("user %s: list not sorted by utility at rank %d", user, i)
		}
	}
	return nil
}

func checkBatch(users []string, b batchResponse) error {
	if b.Degraded {
		return fmt.Errorf("batch answered degraded")
	}
	if len(b.Results) != len(users) {
		return fmt.Errorf("batch of %d answered %d rows", len(users), len(b.Results))
	}
	for i, r := range b.Results {
		if err := checkList(users[i], r); err != nil {
			return err
		}
	}
	return nil
}

// stepOK reports whether an open-loop step kept up with its offered rate:
// single-user latency within limit at the highest percentile up to p99
// that the step's samples support, at most 1% of attempts failed or never
// sent, no backlog left in the generator and the generator itself on time.
func stepOK(r *loadResult, limit time.Duration) bool {
	attempts := r.sent + r.dropped
	if attempts == 0 || float64(r.failed+r.dropped) > 0.01*float64(attempts) {
		return false
	}
	if r.endBacklog > backlogLimit(attempts) || r.lastLag > limit {
		return false
	}
	_, tail := r.single.dist().tail(99)
	return !math.IsNaN(tail) && time.Duration(tail) <= limit
}

// backlogLimit is how many requests may still be queued when a step's
// dispatch ends before the backlog counts as growing: 5% of the step, the
// backlog a 5% overload builds over it. Below that, the queue a busy but
// keeping-up tier holds at any instant is not told apart from growth.
func backlogLimit(attempts int) int {
	return max(4, attempts/20)
}

// capacity searches for the highest offered rate that passes stepOK. The
// first step offers probe, a rate meant to saturate the tier; a probe that
// passes did not saturate, and the rate then doubles until a step fails.
// The first failing step's completed rate, X, is where the search goes
// next: a tier that kept up with X under overload is close to its
// capacity, but the overload itself (a generator queueing thousands of
// requests) can hold X below it, so X is a starting point, not a ceiling.
// From there the rate falls by a fifth per failing step until one passes,
// rises by at most a fifth per passing step until one fails, and is then
// bisected geometrically until the bracket is narrower than res, a
// fraction of the rate. Once a step has passed, a failing step is run
// again, and its rate fails only when the second step fails too: one burst
// of outside load does not lower the answer. A search still unresolved
// after maxSteps steps is an error, not a figure.
func (g *loadGen) capacity(ctx context.Context, probe float64, limit, step time.Duration, maxSteps int, res float64) (float64, []float64, *loadResult, error) {
	total := &loadResult{}
	var tried []float64
	lo, hi := 0.0, 0.0
	for rate := probe; len(tried) < maxSteps && ctx.Err() == nil; {
		r := g.run(ctx, rate, step, backlogLimit(int(rate*step.Seconds())))
		total.merge(r)
		tried = append(tried, rate)
		ok := stepOK(r, limit)
		if !ok && lo > 0 && len(tried) < maxSteps {
			r = g.run(ctx, rate, step, backlogLimit(int(rate*step.Seconds())))
			total.merge(r)
			tried = append(tried, rate)
			ok = stepOK(r, limit)
		}
		// x is what a first, saturated step completed per second.
		x := 0.0
		if !ok && hi == 0 {
			x = float64(r.sent) / r.elapsed.Seconds()
		}
		if ok {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case hi == 0:
			rate = 2 * lo
		case lo > 0 && hi/lo <= 1+res:
			return lo, tried, total, nil
		case x > lo && x < hi:
			rate = x
		case lo == 0:
			rate *= 0.8
		default:
			rate = min(math.Sqrt(lo*hi), 1.2*lo)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, tried, total, err
	}
	return 0, tried, total, fmt.Errorf("unresolved after %d steps: passed %.1f req/s, failed %.1f req/s", len(tried), lo, hi)
}
