// Package core implements the top-N social recommender of §2.2 of the paper
// (Definitions 3 and 4): utility queries over a social-similarity measure,
// ranked truncation to top-N lists, and the batch orchestration shared by
// the non-private reference recommender and all private mechanisms.
//
// The package is deliberately mechanism-agnostic: anything that can estimate
// per-item utilities for a user (exactly, or privately via noisy cluster
// averages, noisy edges, etc.) plugs in through the Estimator interface.
// Sorting and truncating estimates into top-N lists is pure post-processing
// and therefore free under differential privacy (§5.1).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"socialrec/internal/graph"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Span attribute keys for the traced recommend path — declared up front;
// values are batch sizes and counts, never preference data.
var (
	attrBatchSize = trace.NewKey("batch_size")
	attrUsers     = trace.NewKey("users")
	attrTopN      = trace.NewKey("top_n")
)

// scratch is the pooled per-call working set of RecommendContext: the flat
// utility arena the batch rows slice into and the row headers (dense path
// only; a Ranker pools its own), and the similarity-vector buffer used on
// the SimilaritySource path. Pooling it (capacity is kept across calls,
// grown only when a larger batch arrives) makes the steady-state serving
// path allocation-free up to the returned recommendation lists themselves.
type scratch struct {
	flat []float64
	rows [][]float64
	sims []similarity.Scores
}

var (
	scratchPool     = sync.Pool{New: func() any { scratchPoolNews.Add(1); return new(scratch) }}
	scratchPoolGets atomic.Uint64
	scratchPoolNews atomic.Uint64
)

func init() {
	telemetry.RegisterPoolStats("core_scratch", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: scratchPoolGets.Load(), Misses: scratchPoolNews.Load()}
	})
}

//sociolint:hotpath
func getScratch() *scratch {
	scratchPoolGets.Add(1)
	return scratchPool.Get().(*scratch)
}

// arena returns bs rows of items utilities each, windows into one flat
// buffer, so one grow covers the whole batch and steady-state calls reuse
// the capacity.
//
//sociolint:hotpath
func (sc *scratch) arena(bs, items int) [][]float64 {
	if need := bs * items; cap(sc.flat) < need {
		sc.flat = make([]float64, need)
	}
	if cap(sc.rows) < bs {
		sc.rows = make([][]float64, bs)
	}
	rows := sc.rows[:bs]
	for i := range rows {
		rows[i] = sc.flat[i*items : (i+1)*items : (i+1)*items]
	}
	return rows
}

//sociolint:hotpath
func putScratch(sc *scratch) {
	// Similarity vectors can be large (cache entries); drop the references
	// so a pooled scratch never pins another engine's score memory.
	clear(sc.sims)
	scratchPool.Put(sc)
}

// Recommendation pairs an item with the (estimated) utility of recommending
// it, as computed by Definition 3's utility query or a private estimate
// thereof.
type Recommendation struct {
	Item    int32
	Utility float64
}

// Estimator produces per-item utility estimates for users. The similarity
// vector of each user is supplied by the caller so that the (public,
// privacy-free) similarity computation is shared across mechanisms.
//
// Implementations release any privacy-sensitive state at construction time;
// Utilities must be pure post-processing over that released state, so that
// calling it any number of times consumes no additional privacy budget.
type Estimator interface {
	// Name identifies the mechanism in experiment output (e.g. "exact",
	// "cluster", "nou", "noe", "gs", "lrm").
	Name() string
	// Utilities computes, for each users[k] with similarity vector
	// sims[k], estimated utilities for every item, written to out[k]
	// (len NumItems each). len(users) == len(sims) == len(out).
	Utilities(users []int32, sims []similarity.Scores, out [][]float64)
}

// TopN selects the n highest-utility items from a dense utility vector and
// returns them sorted by descending utility. Ties are broken toward the
// lower item id so output is deterministic. Items with utility ≤ minUtility
// are excluded; pass math.Inf(-1) to keep everything (private mechanisms
// must rank genuinely noisy values, including noise-only negative ones, as
// the paper's N-vs-accuracy discussion in §6.3 depends on zero-utility items
// displacing real ones).
//
//sociolint:hotpath
func TopN(utilities []float64, n int, minUtility float64) []Recommendation {
	if n <= 0 {
		return nil
	}
	h := NewTopHeap(min(n, len(utilities)))
	h.PushRow(0, utilities, minUtility)
	return h.Sorted()
}

// TopHeap is the bounded selection behind TopN, exported so that a Ranker
// selects with exactly TopN's order: it keeps the best cap(h) offers, with
// the current worst of them at h[0] (a min-heap ordered by utility, then
// by inverted item id). The heap operations are methods, not closures, so
// the only allocation is the heap itself, which Sorted turns into the
// result list.
type TopHeap []Recommendation

// NewTopHeap returns an empty heap that keeps the best n offers.
//
//sociolint:hotpath
func NewTopHeap(n int) TopHeap { return make(TopHeap, 0, n) }

// PushRow offers row[j] as item base+j for every j, skipping utilities
// ≤ minUtility.
//
//sociolint:hotpath
func (h *TopHeap) PushRow(base int, row []float64, minUtility float64) {
	s := *h
	n := cap(s)
	if n == 0 {
		return
	}
	for j, u := range row {
		if u <= minUtility {
			continue
		}
		r := Recommendation{Item: int32(base + j), Utility: u}
		if len(s) < n {
			s = s.push(r)
		} else if s.worse(s[0], r) {
			s.replaceMin(r)
		}
	}
	*h = s
}

// Floor returns the worst recommendation kept and whether the heap is
// full. Once it is, an offer that does not rank above the floor is
// dropped, and the floor only ever rises.
//
//sociolint:hotpath
func (h TopHeap) Floor() (Recommendation, bool) {
	if len(h) == 0 || len(h) < cap(h) {
		return Recommendation{}, false
	}
	return h[0], true
}

// Sorted heapsorts the heap in place into the output order — descending
// utility, lower item id first on ties — and returns it. Extracting minima
// back-to-front leaves the array in descending order without the
// sort.Interface boxing a sort.Sort call would allocate. worse() is a
// strict total order (item id breaks utility ties), so the result does
// not depend on the order of the offers.
//
//sociolint:hotpath
func (h TopHeap) Sorted() []Recommendation {
	for m := len(h) - 1; m > 0; m-- {
		h[0], h[m] = h[m], h[0]
		h[:m].replaceMin(h[0])
	}
	return []Recommendation(h)
}

// worse reports whether a ranks strictly below b: lower utility, or a
// higher item id on equal utility (ties break toward the lower id).
func (TopHeap) worse(a, b Recommendation) bool {
	if a.Utility < b.Utility {
		return true
	}
	if a.Utility > b.Utility {
		return false
	}
	return a.Item > b.Item
}

// push sifts r up from the end of the heap; the caller guarantees spare
// capacity.
func (h TopHeap) push(r Recommendation) TopHeap {
	h = append(h, r)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.worse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// replaceMin overwrites the heap minimum with r and sifts it down.
func (h TopHeap) replaceMin(r Recommendation) {
	h[0] = r
	for i := 0; ; {
		l, rgt := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.worse(h[l], h[small]) {
			small = l
		}
		if rgt < len(h) && h.worse(h[rgt], h[small]) {
			small = rgt
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Ranker is an optional Estimator capability: ranking a batch of users'
// items straight from the released state, without materialising their
// dense utility rows. RecommendContext uses it when the wired estimator
// implements it. The lists must be identical to TopN(row, n, math.Inf(-1))
// over the rows Utilities would write: the same items with bit-identical
// utilities, in the same order.
type Ranker interface {
	Estimator
	// Bound runs the first ranking phase for users[k] with similarity
	// vector sims[k] (len(users) == len(sims)) and returns the batch's
	// state. The caller must call Rank on it exactly once.
	Bound(users []int32, sims []similarity.Scores) Ranking
}

// Ranking is one batch's state between the two phases of a Ranker.
type Ranking interface {
	// Rank writes the top-n list of the batch's k-th user to out[k]
	// (len(out) == len(users)) and releases the state.
	Rank(n int, out [][]Recommendation)
}

// Recommender generates personalized top-N recommendation lists by running
// an Estimator over users in bounded-memory batches.
type Recommender struct {
	social  *graph.Social
	items   int
	measure similarity.Measure
	est     Estimator
	ranker  Ranker // est, when it can rank without dense rows

	// BatchSize bounds how many dense utility vectors are held in memory
	// at once; 0 means a default of 256.
	BatchSize int
	// Workers bounds similarity-computation parallelism; 0 means
	// GOMAXPROCS.
	Workers int
	// SimilaritySource, when non-nil, supplies similarity vectors instead
	// of direct computation — e.g. a simcache.Cache for serving
	// workloads with repeat users. Results must equal
	// Measure.Similar(social, u) exactly.
	SimilaritySource func(u int32) similarity.Scores
}

// NewRecommender wires a recommender from its parts. numItems is |I| of the
// preference graph the estimator was built from.
func NewRecommender(social *graph.Social, numItems int, m similarity.Measure, est Estimator) *Recommender {
	ranker, _ := est.(Ranker)
	return &Recommender{social: social, items: numItems, measure: m, est: est, ranker: ranker}
}

func (r *Recommender) batchSize() int {
	if r.BatchSize > 0 {
		return r.BatchSize
	}
	return 256
}

// Recommend returns, for each requested user, the top-n recommendation list
// R_u of Definition 4 under the wired estimator. The result is parallel to
// users.
func (r *Recommender) Recommend(users []int32, n int) ([][]Recommendation, error) {
	return r.RecommendContext(context.Background(), users, n)
}

// RecommendContext is Recommend on a caller-supplied context. When ctx
// carries an active trace span (a served request), the three phases of
// each batch — similarity lookup, cluster-average reconstruction, top-n
// selection — open child spans, so a slow request names the phase that
// made it slow. For a Ranker the reconstruction phase is its Bound pass and
// the top-n phase its Rank. The aggregate telemetry stage timings are
// recorded either way.
//
//sociolint:hotpath
func (r *Recommender) RecommendContext(ctx context.Context, users []int32, n int) ([][]Recommendation, error) {
	if n <= 0 {
		//sociolint:ignore hotalloc validation failure, the call is already rejected
		return nil, fmt.Errorf("core: top-N size must be positive, got %d", n)
	}
	for _, u := range users {
		if u < 0 || int(u) >= r.social.NumUsers() {
			//sociolint:ignore hotalloc validation failure, the call is already rejected
			return nil, fmt.Errorf("core: user %d out of range [0, %d)", u, r.social.NumUsers())
		}
	}
	out := make([][]Recommendation, len(users))
	bs := r.batchSize()
	if bs > len(users) {
		bs = len(users)
	}
	sc := getScratch()
	defer putScratch(sc)
	var rows [][]float64
	if r.ranker == nil {
		rows = sc.arena(bs, r.items)
	}
	for start := 0; start < len(users); start += bs {
		end := start + bs
		if end > len(users) {
			end = len(users)
		}
		batch := users[start:end]
		var sims []similarity.Scores
		simTrace := trace.StartLeaf(ctx, "similarity_batch", attrBatchSize.Int(int64(len(batch))))
		simSpan := telemetry.Stages().Start("similarity_batch")
		if r.SimilaritySource != nil {
			if cap(sc.sims) < len(batch) {
				sc.sims = make([]similarity.Scores, len(batch))
			}
			sims = sc.sims[:len(batch)]
			for i, u := range batch {
				sims[i] = r.SimilaritySource(u)
			}
		} else {
			sims = similarity.ComputeAll(r.social, r.measure, batch, r.Workers)
		}
		simSpan.End()
		simTrace.End()
		recSpan := telemetry.Stages().Start("reconstruction")
		if r.ranker != nil {
			avgTrace := trace.StartLeaf(ctx, "cluster_average", attrUsers.Int(int64(len(batch))))
			ranking := r.ranker.Bound(batch, sims)
			avgTrace.End()
			topTrace := trace.StartLeaf(ctx, "top_n", attrTopN.Int(int64(n)))
			ranking.Rank(n, out[start:end])
			topTrace.End()
		} else {
			buf := rows[:len(batch)]
			for i := range buf {
				clear(buf[i])
			}
			avgTrace := trace.StartLeaf(ctx, "cluster_average", attrUsers.Int(int64(len(batch))))
			r.est.Utilities(batch, sims, buf)
			avgTrace.End()
			topTrace := trace.StartLeaf(ctx, "top_n", attrTopN.Int(int64(n)))
			for i := range batch {
				out[start+i] = TopN(buf[i], n, math.Inf(-1))
			}
			topTrace.End()
		}
		recSpan.End()
	}
	return out, nil
}
