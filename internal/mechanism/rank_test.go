package mechanism

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/raceflag"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
	"socialrec/internal/trace"
)

// lastfm is one generated lastfm-like population with its Louvain
// clustering, shared by the tests and benchmarks of this file.
type lastfm struct {
	social   *graph.Social
	prefs    *graph.Preference
	clusters *community.Clustering
	users    []int32
	sims     []similarity.Scores // common-neighbour vectors of users
}

var (
	lastfmMu    sync.Mutex
	lastfmCache = map[int64]*lastfm{}
)

func lastfmData(tb testing.TB, seed int64) *lastfm {
	tb.Helper()
	lastfmMu.Lock()
	defer lastfmMu.Unlock()
	if d, ok := lastfmCache[seed]; ok {
		return d
	}
	social, _, prefs, err := generator.LastFMLike(seed).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	d := &lastfm{social: social, prefs: prefs, clusters: community.Louvain(social, community.Options{Seed: seed})}
	d.users = make([]int32, social.NumUsers())
	for u := range d.users {
		d.users[u] = int32(u)
	}
	d.sims = similarity.ComputeAll(social, similarity.CommonNeighbors{}, d.users, 0)
	lastfmCache[seed] = d
	return d
}

// served releases the lastfm table at eps and reloads it the way a server
// does, from the released averages alone.
func (d *lastfm) served(tb testing.TB, eps dp.Epsilon, seed int64) *Cluster {
	tb.Helper()
	c, err := NewCluster(d.clusters, d.prefs, eps, dp.SourceFor(eps, seed))
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := NewClusterFromRelease(d.clusters, d.prefs.NumItems(), c.Averages())
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// checkRanked asserts that ranking users straight from est gives, for every
// n, exactly core.TopN over the dense Utilities row: the same items, the
// same utility bits, the same order. It ranks in batches of batch users.
func checkRanked(t *testing.T, est core.Ranker, numItems int, users []int32, sims []similarity.Scores, ns []int, batch int) {
	t.Helper()
	rows := make([][]float64, batch)
	for k := range rows {
		rows[k] = make([]float64, numItems)
	}
	got := make([][]core.Recommendation, batch)
	for start := 0; start < len(users); start += batch {
		end := min(start+batch, len(users))
		dense := rows[:end-start]
		for _, row := range dense {
			clear(row)
		}
		est.Utilities(users[start:end], sims[start:end], dense)
		for _, n := range ns {
			est.Bound(users[start:end], sims[start:end]).Rank(n, got[:end-start])
			for k, row := range dense {
				if want := core.TopN(row, n, math.Inf(-1)); !sameList(want, got[k]) {
					t.Fatalf("user %d n=%d: ranked list differs from dense top-n\nranked %v\ndense  %v", users[start+k], n, got[k], want)
				}
			}
		}
	}
}

func sameList(a, b []core.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Utility) != math.Float64bits(b[i].Utility) {
			return false
		}
	}
	return true
}

// TestClusterRankMatchesDense checks the block-max ranker against the dense
// path for every user of two lastfm-like populations, at a tight, a loose
// and a noise-free release and three list lengths.
func TestClusterRankMatchesDense(t *testing.T) {
	// The race detector slows the kernels tenfold, so a -race build checks
	// every eighth user; the plain build checks them all.
	stride := 1
	if raceflag.Enabled {
		stride = 8
	}
	for _, seed := range []int64{1, 2} {
		d := lastfmData(t, seed)
		var users []int32
		var sims []similarity.Scores
		for u := 0; u < len(d.users); u += stride {
			users, sims = append(users, d.users[u]), append(sims, d.sims[u])
		}
		for _, eps := range []dp.Epsilon{0.1, 1, dp.Inf} {
			est := d.served(t, eps, seed+10)
			checkRanked(t, est, d.prefs.NumItems(), users, sims, []int{1, 10, 100}, 16)
		}
	}
}

// smallTable builds a cluster estimator over an explicit table: users are
// assigned round-robin to numClusters clusters.
func smallTable(t testing.TB, numUsers, numClusters, numItems int, avg []float64) *Cluster {
	t.Helper()
	assign := make([]int32, numUsers)
	for u := range assign {
		assign[u] = int32(u % numClusters)
	}
	cl, err := community.FromAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClusterFromRelease(cl, numItems, avg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomSims draws one similarity vector per user over numUsers users;
// neg allows negative similarity (a custom SimilaritySource may supply it),
// and quantized values make exact ties and masses that cancel to zero.
func randomSims(rng *rand.Rand, users, numUsers int, neg, quantized bool) []similarity.Scores {
	sims := make([]similarity.Scores, users)
	for k := range sims {
		m := rng.Intn(12)
		for j := 0; j < m; j++ {
			v := rng.Float64()*3 - 1
			if quantized {
				v = float64(rng.Intn(5) - 1)
			}
			if !neg {
				v = math.Abs(v)
			}
			sims[k].Users = append(sims[k].Users, int32(rng.Intn(numUsers)))
			sims[k].Vals = append(sims[k].Vals, v)
		}
	}
	return sims
}

func randomAvg(rng *rand.Rand, n int, quantized bool) []float64 {
	avg := make([]float64, n)
	for i := range avg {
		if quantized {
			avg[i] = float64(rng.Intn(4)) / 4
		} else {
			avg[i] = rng.NormFloat64()
		}
	}
	return avg
}

func seqUsers(n int) []int32 {
	u := make([]int32, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func TestClusterRankEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const numUsers, numClusters = 40, 5
	users := seqUsers(numUsers)
	t.Run("n above item count", func(t *testing.T) {
		const items = 40
		c := smallTable(t, numUsers, numClusters, items, randomAvg(rng, numClusters*items, false))
		checkRanked(t, c, items, users, randomSims(rng, numUsers, numUsers, false, false), []int{items - 1, items, items + 7}, 5)
	})
	t.Run("item count not a multiple of the block", func(t *testing.T) {
		for _, items := range []int{1, 15, 17, 37} {
			c := smallTable(t, numUsers, numClusters, items, randomAvg(rng, numClusters*items, false))
			checkRanked(t, c, items, users, randomSims(rng, numUsers, numUsers, false, false), []int{1, 3, 20}, 7)
		}
	})
	t.Run("zero items", func(t *testing.T) {
		c := smallTable(t, numUsers, numClusters, 0, nil)
		checkRanked(t, c, 0, users, randomSims(rng, numUsers, numUsers, false, false), []int{1, 10}, 4)
	})
	t.Run("ties at zero", func(t *testing.T) {
		// ε = ∞ on sparse data: most utilities are exactly 0 and the
		// list is filled by ties broken toward the lower item id.
		const items = 100
		avg := make([]float64, numClusters*items)
		for i := 0; i < len(avg); i += 23 {
			avg[i] = 0.5
		}
		c := smallTable(t, numUsers, numClusters, items, avg)
		checkRanked(t, c, items, users, randomSims(rng, numUsers, numUsers, false, false), []int{1, 10, 50}, 8)
	})
	t.Run("negative mass", func(t *testing.T) {
		const items = 70
		for _, quantized := range []bool{false, true} {
			c := smallTable(t, numUsers, numClusters, items, randomAvg(rng, numClusters*items, quantized))
			checkRanked(t, c, items, users, randomSims(rng, numUsers, numUsers, true, quantized), []int{1, 5, 30}, 6)
		}
	})
	t.Run("shard with foreign row", func(t *testing.T) {
		// A shard's sub-release collapses every non-resident cluster into
		// one all-zero foreign row; users of it must rank as the dense
		// path does.
		d := lastfmData(t, 1)
		full := d.served(t, 1, 5)
		rel := &release.Release{Epsilon: 1, Measure: "CN", Clusters: d.clusters, NumItems: d.prefs.NumItems(), Avg: full.Averages()}
		clusterShard := make([]int32, d.clusters.NumClusters())
		for c := range clusterShard {
			clusterShard[c] = int32(c % 3)
		}
		_, shards, err := release.SplitRelease(rel, d.social, clusterShard, 3, similarity.Horizon(similarity.CommonNeighbors{}))
		if err != nil {
			t.Fatal(err)
		}
		sh := shards[0].Release
		est, err := NewClusterFromRelease(sh.Clusters, sh.NumItems, sh.Avg)
		if err != nil {
			t.Fatal(err)
		}
		foreign := -1
		for local, g := range shards[0].LocalToGlobal {
			if g < 0 {
				foreign = local
			}
		}
		if foreign < 0 {
			t.Fatal("shard has no foreign row")
		}
		var users []int32
		var sims []similarity.Scores
		for u := range d.users {
			if shards[0].Owns(u) || (sh.Clusters.Cluster(u) == foreign && u%5 == 0) {
				users = append(users, int32(u))
				sims = append(sims, d.sims[u])
			}
		}
		checkRanked(t, est, sh.NumItems, users, sims, []int{1, 10, 100}, 16)
	})
	t.Run("weighted", func(t *testing.T) {
		const items = 50
		c := smallTable(t, numUsers, numClusters, items, randomAvg(rng, numClusters*items, false))
		w := &WeightedCluster{table: table{clusters: c.clusters, numItems: items, avg: c.avg}}
		checkRanked(t, w, items, users, randomSims(rng, numUsers, numUsers, true, false), []int{1, 10}, 5)
	})
}

// FuzzClusterRank checks the ranker against the dense path on random small
// tables, list lengths and similarity vectors, with equal values and
// negative masses.
func FuzzClusterRank(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(10), false)
	f.Add(int64(2), uint8(16), uint8(1), uint8(1), true)
	f.Add(int64(3), uint8(0), uint8(3), uint8(5), false)
	f.Add(int64(4), uint8(255), uint8(9), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, items, clusters, n uint8, quantized bool) {
		rng := rand.New(rand.NewSource(seed))
		nc := int(clusters%8) + 1
		numUsers := 3 * nc
		c := smallTable(t, numUsers, nc, int(items), randomAvg(rng, nc*int(items), quantized))
		users := seqUsers(numUsers)
		sims := randomSims(rng, numUsers, numUsers, true, quantized)
		checkRanked(t, c, int(items), users, sims, []int{int(n%64) + 1}, 4)
	})
}

// denseOnly hides an estimator's Ranker, so core.Recommender takes the
// dense Utilities + TopN path.
type denseOnly struct{ core.Estimator }

func lineSocial(t testing.TB, n int) *graph.Social {
	t.Helper()
	b := graph.NewSocialBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestRecommenderRanksLikeDense drives both paths through core.Recommender
// with a custom SimilaritySource that supplies negative similarity, over
// several batches.
func TestRecommenderRanksLikeDense(t *testing.T) {
	const numUsers, items = 60, 90
	rng := rand.New(rand.NewSource(7))
	c := smallTable(t, numUsers, 6, items, randomAvg(rng, 6*items, false))
	sims := randomSims(rng, numUsers, numUsers, true, false)
	source := func(u int32) similarity.Scores { return sims[u] }
	social := lineSocial(t, numUsers)
	ranked := core.NewRecommender(social, items, similarity.CommonNeighbors{}, c)
	dense := core.NewRecommender(social, items, similarity.CommonNeighbors{}, denseOnly{c})
	for _, r := range []*core.Recommender{ranked, dense} {
		r.SimilaritySource = source
		r.BatchSize = 7
	}
	users := seqUsers(numUsers)
	for _, n := range []int{1, 10, items + 1} {
		got, err := ranked.Recommend(users, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dense.Recommend(users, n)
		if err != nil {
			t.Fatal(err)
		}
		for u := range users {
			if !sameList(got[u], want[u]) {
				t.Fatalf("user %d n=%d: ranked %v, dense %v", u, n, got[u], want[u])
			}
		}
	}
}

// TestRecommendAllocBudgetRealEstimator pins the serving path's
// steady-state allocations with a real released estimator rather than a
// fake one: one outer result slice plus one list per user, on the ranking
// path and on the dense path alike — the fold, bound and evaluation scratch
// is pooled. The traced ranking call adds only the root span's carrier.
// Skipped under -race (detector shadow state allocates).
func TestRecommendAllocBudgetRealEstimator(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	const numUsers, items = 64, 100
	rng := rand.New(rand.NewSource(9))
	c := smallTable(t, numUsers, 5, items, randomAvg(rng, 5*items, false))
	fixed := similarity.Scores{Users: []int32{1, 2, 9, 30}, Vals: []float64{0.5, 0.25, 1, 2}}
	social := lineSocial(t, numUsers)
	users := []int32{5, 17, 29, 41}
	want := float64(1 + len(users))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		est  core.Estimator
	}{{"ranked", c}, {"dense", denseOnly{c}}} {
		r := core.NewRecommender(social, items, similarity.CommonNeighbors{}, tc.est)
		r.SimilaritySource = func(int32) similarity.Scores { return fixed }
		for i := 0; i < 4; i++ {
			if _, err := r.RecommendContext(ctx, users, 10); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := r.RecommendContext(ctx, users, 10); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("%s RecommendContext allocs/run = %v, want %v", tc.name, got, want)
		}
		tr := trace.New(trace.Config{Seed: 1, HeadRateZero: true, Capacity: 8})
		if got := testing.AllocsPerRun(100, func() {
			tctx, sp := tr.StartRoot(ctx, "alloc_recommend")
			if _, err := r.RecommendContext(tctx, users, 10); err != nil {
				t.Fatal(err)
			}
			sp.End()
		}); got != want+1 {
			t.Errorf("%s traced RecommendContext allocs/run = %v, want %v", tc.name, got, want+1)
		}
	}
}

// TestAxpyRowsMatchesSequential checks that the fused kernel adds its
// terms in the order of one axpy per row, bit for bit, for every remainder
// of the four-row fold.
func TestAxpyRowsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, stride = 37, 50
	src := randomAvg(rng, 12*stride, false)
	for terms := 0; terms <= 11; terms++ {
		rows := make([]int32, terms)
		ms := make([]float64, terms)
		for j := range rows {
			rows[j] = int32(rng.Intn(12))
			ms[j] = rng.NormFloat64()
		}
		got, want := randomAvg(rng, n, false), make([]float64, n)
		copy(want, got)
		axpyRows(got, src, stride, 3, rows, ms)
		for j, r := range rows {
			b := int(r)*stride + 3
			axpy(ms[j], src[b:b+n], want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d terms, element %d: fused %v, sequential %v", terms, i, got[i], want[i])
			}
		}
	}
}

// TestClusterRankConcurrent ranks from several goroutines on a table whose
// bounds are not built yet, so the lazy build and the pooled scratch are
// shared (run under -race to check them).
func TestClusterRankConcurrent(t *testing.T) {
	const numUsers, items, n = 30, 75, 8
	rng := rand.New(rand.NewSource(11))
	c := smallTable(t, numUsers, 4, items, randomAvg(rng, 4*items, false))
	users := seqUsers(numUsers)
	sims := randomSims(rng, numUsers, numUsers, true, false)
	want := make([][]core.Recommendation, numUsers)
	row := make([]float64, items)
	for u := range users {
		clear(row)
		c.Utilities(users[u:u+1], sims[u:u+1], [][]float64{row})
		want[u] = core.TopN(row, n, math.Inf(-1))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([][]core.Recommendation, numUsers)
			c.Bound(users, sims).Rank(n, got)
			for u := range got {
				if !sameList(got[u], want[u]) {
					errs <- fmt.Sprintf("user %d: ranked %v, dense %v", u, got[u], want[u])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
