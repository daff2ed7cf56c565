package mechanism

import (
	"math"
	"sync"
	"sync/atomic"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// blockSize is the width, in item ids, of the blocks the ranker bounds. It
// is a constant, not a knob: 16 keeps the bound table a sixteenth of the
// release and one block's evaluation a few cache lines per touched
// cluster.
const blockSize = 16

// chunkBlocks is how many adjacent blocks one kernel pass evaluates when
// the whole table is: 1024 items, whose 8 KB of utilities stay in L1 while
// the touched rows stream past.
const chunkBlocks = 64

// table is the released per-(cluster, item) average table that both
// cluster estimators reconstruct Eq. 4 from:
//
//	μ̂_u^i = Σ_{c ∈ Φ} ( Σ_{v ∈ sim(u) ∩ c} sim(u,v) ) · ŵ_c^i
//
// Utilities writes the dense utility row. Bound and Rank (core.Ranker)
// rank without it: a block-max table bounds every block of blockSize items,
// and only blocks whose bound can still reach the running top-n are
// evaluated. The lists are bit-identical to core.TopN over Utilities:
//
//   - A block's bound is Σ_t m_t·M_t, summed in the same term order and
//     with the same kernel as its items' utilities Σ_t m_t·ŵ_{c_t}^i, where
//     M_t is the block maximum of row c_t when m_t ≥ 0 and the block minimum
//     otherwise, so m_t·M_t ≥ m_t·ŵ_{c_t}^i term by term.
//   - Round-to-nearest is monotone in each operand of a product and a sum
//     (and of a fused multiply-add), so by induction over the terms the
//     float bound is ≥ the float utility of every item in the block.
//   - A block is skipped only when the top-n list is full and its bound
//     ranks strictly below the list's floor: less than the floor utility,
//     or equal to it with every item id of the block above the floor's
//     (ties break toward the lower id). No item of a skipped block could
//     have entered the list, and the floor only rises.
//
// This holds for finite averages and masses, which a release always has.
type table struct {
	clusters *community.Clustering
	numItems int
	// avg[c*numItems + i] = ŵ_c^i, the sanitized per-cluster averages.
	avg []float64

	boundsOnce sync.Once
	// bounds[c*numBlocks + b] is the maximum of ŵ_c^i over block b's
	// items and bounds[(numClusters+c)*numBlocks + b] the minimum, the
	// bound a negative mass takes. Built on the first Bound, so the
	// offline release never pays for it.
	bounds []float64
}

// Average returns the released noisy average ŵ_c^i.
func (t *table) Average(cluster, item int) float64 {
	return t.avg[cluster*t.numItems+item]
}

func (t *table) numBlocks() int { return (t.numItems + blockSize - 1) / blockSize }

// Utilities reconstructs utility estimates via Eq. 4 (lines 8–17 of
// Algorithm 1): for each user it folds the similarity vector into
// per-cluster similarity mass, then adds the dense linear combination of
// the touched clusters' average rows to out[k].
//
//sociolint:hotpath
func (t *table) Utilities(users []int32, sims []similarity.Scores, out [][]float64) {
	sc := getRankScratch(t.clusters.NumClusters())
	for k := range users {
		sc.cls, sc.ms = t.fold(sims[k], sc.mass, sc.cls[:0], sc.ms[:0])
		axpyRows(out[k], t.avg, t.numItems, 0, sc.cls, sc.ms)
	}
	putRankScratch(sc)
}

// Bound is the first phase of core.Ranker: it folds each user's
// similarity vector into (cluster, mass) terms and sums the block bounds
// of every item block.
//
//sociolint:hotpath
func (t *table) Bound(users []int32, sims []similarity.Scores) core.Ranking {
	t.boundsOnce.Do(t.buildBounds)
	nc, nb := t.clusters.NumClusters(), t.numBlocks()
	sc := getRankScratch(nc)
	sc.t = t
	sc.cls, sc.ms = sc.cls[:0], sc.ms[:0]
	sc.off = append(sc.off[:0], 0)
	sc.bounds = grow(sc.bounds, len(users)*nb)
	for k := range users {
		lo := len(sc.cls)
		sc.cls, sc.ms = t.fold(sims[k], sc.mass, sc.cls, sc.ms)
		sc.off = append(sc.off, len(sc.cls))
		sc.brows = sc.brows[:0]
		for j, c := range sc.cls[lo:] {
			if sc.ms[lo+j] < 0 {
				c += int32(nc)
			}
			sc.brows = append(sc.brows, c)
		}
		y := sc.bounds[k*nb : (k+1)*nb]
		clear(y)
		axpyRows(y, t.bounds, nb, 0, sc.brows, sc.ms[lo:])
	}
	return sc
}

// buildBounds fills the block-max and block-min table.
func (t *table) buildBounds() {
	nc, nb, ni := t.clusters.NumClusters(), t.numBlocks(), t.numItems
	t.bounds = make([]float64, 2*nc*nb)
	for c := 0; c < nc; c++ {
		row := t.avg[c*ni : (c+1)*ni]
		for b := 0; b < nb; b++ {
			blk := row[b*blockSize : min((b+1)*blockSize, ni)]
			hi, lo := blk[0], blk[0]
			for _, v := range blk[1:] {
				hi, lo = max(hi, v), min(lo, v)
			}
			t.bounds[c*nb+b] = hi
			t.bounds[(nc+c)*nb+b] = lo
		}
	}
}

// fold collapses one similarity vector into per-cluster similarity mass and
// appends one (cluster, mass) term per touched cluster, in first-touch
// order, to cls and ms. mass is all zero on entry and on return.
//
//sociolint:hotpath
func (t *table) fold(s similarity.Scores, mass []float64, cls []int32, ms []float64) ([]int32, []float64) {
	lo := len(cls)
	for j, v := range s.Users {
		c := int32(t.clusters.Cluster(int(v)))
		if mass[c] == 0 {
			cls = append(cls, c)
		}
		mass[c] += s.Vals[j]
	}
	for _, c := range cls[lo:] {
		ms = append(ms, mass[c])
		mass[c] = 0
	}
	return cls, ms
}

// rankScratch is the pooled working set of Utilities and of one Bound/Rank
// batch: per-cluster mass (all zero between folds), the batch's folded
// terms, its block bounds, and the item values of the evaluated blocks.
// Capacity is kept across calls and grown only when a larger table or
// batch arrives, so the steady-state serving path allocates nothing here.
type rankScratch struct {
	t      *table
	mass   []float64
	cls    []int32   // terms of user k at [off[k], off[k+1])
	ms     []float64 // mass of each term
	off    []int
	brows  []int32   // bound-table row of each of one user's terms
	bounds []float64 // block bounds of user k at [k*numBlocks, (k+1)*numBlocks)
	row    []float64 // utilities of the evaluated items, by item id
	done   []bool    // block already evaluated
	order  []int32   // blocks by descending bound bucket
	bucket []uint8   // bound bucket of each block
	hist   [histBuckets]int32
	// A bound v falls in bucket (v - histLo)·histScale, clamped.
	histLo, histScale float64
}

var (
	rankPool     = sync.Pool{New: func() any { rankPoolNews.Add(1); return new(rankScratch) }}
	rankPoolGets atomic.Uint64
	rankPoolNews atomic.Uint64
)

func init() {
	telemetry.RegisterPoolStats("mechanism_scratch", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: rankPoolGets.Load(), Misses: rankPoolNews.Load()}
	})
}

//sociolint:hotpath
func getRankScratch(numClusters int) *rankScratch {
	rankPoolGets.Add(1)
	sc := rankPool.Get().(*rankScratch)
	if len(sc.mass) < numClusters {
		sc.mass = make([]float64, numClusters)
	}
	return sc
}

//sociolint:hotpath
func putRankScratch(sc *rankScratch) {
	sc.t = nil
	rankPool.Put(sc)
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rank is the second phase of core.Ranker: block evaluation and selection.
//
//sociolint:hotpath
func (sc *rankScratch) Rank(n int, out [][]core.Recommendation) {
	for k := range out {
		out[k] = sc.rankOne(k, n)
	}
	putRankScratch(sc)
}

// rankOne selects the batch's k-th user's top-n list. It visits the blocks
// highest bound first — by descending bucket of a histogram over the
// bounds, which is cheaper than sorting them and as good for pruning —
// and evaluates each block whose bound can still reach the list. Once one
// cannot, neither can any block of a lower bucket (it bounds lower still),
// so the search ends with that bucket.
//
// The first few blocks visited also predict whether the bounds are loose:
// when most of the table would stay open to a floor near the n-th highest
// bound less their slack (how far a bound sits above its block's best
// item), or when half of it has been evaluated anyway, the rest of the
// table is evaluated in item order, as the dense path would — a pass over
// the row costs less than that many scattered blocks — and offered highest
// bucket first.
//
//sociolint:hotpath
func (sc *rankScratch) rankOne(k, n int) []core.Recommendation {
	t := sc.t
	ni, nb := t.numItems, t.numBlocks()
	if n <= 0 {
		return nil
	}
	cls, ms := sc.cls[sc.off[k]:sc.off[k+1]], sc.ms[sc.off[k]:sc.off[k+1]]
	bound := sc.bounds[k*nb : (k+1)*nb]
	sc.row = grow(sc.row, ni)
	sc.done = grow(sc.done, nb)
	done := sc.done
	clear(done)
	h := core.NewTopHeap(min(n, ni))
	if nb == 0 {
		return h.Sorted()
	}
	order := sc.byBound(bound)

	probe := order[:min(probeBlocks, nb)]
	var slack float64
	for _, b := range probe {
		sc.evalRun(int(b), int(b)+1, cls, ms)
		sc.offer(&h, int(b), bound[b])
		done[b] = true
		best := math.Inf(-1)
		for _, u := range sc.block(int(b)) {
			if u > best {
				best = u
			}
		}
		slack += bound[b] - best
	}
	theta := bound[order[min(n, nb)-1]] - slack/float64(len(probe))
	rest := order[len(probe):]
	if 2*sc.countAbove(theta) <= nb {
		rest = sc.bestFirst(&h, rest, bound, cls, ms, len(probe))
	}
	if len(rest) > 0 {
		sc.evalAll(&h, rest, bound, cls, ms)
	}
	return h.Sorted()
}

// bestFirst visits order, highest bucket first, evaluating and offering
// every block that can still reach h. It returns nil once no later block
// can, or the unvisited rest of order once more than half of the table
// has been evaluated block by block — the bounds were looser than
// predicted.
//
//sociolint:hotpath
func (sc *rankScratch) bestFirst(h *core.TopHeap, order []int32, bound []float64, cls []int32, ms []float64, evaluated int) []int32 {
	last := -1 // bucket of the first block that could not reach the list
	for i, b := range order {
		bk := int(sc.bucket[b])
		if last >= 0 && bk != last {
			return nil
		}
		if prunable(*h, bound[b], int(b)) {
			last = bk
			continue
		}
		if 2*evaluated > len(bound) {
			return order[i:]
		}
		sc.evalRun(int(b), int(b)+1, cls, ms)
		sc.offer(h, int(b), bound[b])
		sc.done[b] = true
		evaluated++
	}
	return nil
}

// evalAll evaluates every block not yet evaluated in item order, as the
// dense path would, then offers the blocks of order, none of which has been
// offered yet, in turn.
//
//sociolint:hotpath
func (sc *rankScratch) evalAll(h *core.TopHeap, order []int32, bound []float64, cls []int32, ms []float64) {
	done := sc.done
	for b := 0; b < len(bound); b++ {
		if done[b] {
			continue
		}
		e := b + 1
		for e < len(bound) && e-b < chunkBlocks && !done[e] {
			e++
		}
		sc.evalRun(b, e, cls, ms)
		b = e - 1
	}
	for _, b := range order {
		sc.offer(h, int(b), bound[b])
	}
}

// probeBlocks is how many of the highest-bound blocks predict looseness.
const probeBlocks = 4

// histBuckets is the resolution of the bound histogram.
const histBuckets = 256

// byBound returns the blocks by descending bucket of a histogram over
// their bounds (a counting sort), leaving the histogram in sc.hist and each
// block's bucket in sc.bucket. The bucket is monotone in the bound, so a
// block of a lower bucket bounds strictly lower.
//
//sociolint:hotpath
func (sc *rankScratch) byBound(bound []float64) []int32 {
	lo, hi := bound[0], bound[0]
	for _, v := range bound[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	sc.histLo, sc.histScale = lo, 0 // one value: every block in bucket 0
	if hi > lo {
		sc.histScale = (histBuckets - 1) / (hi - lo)
	}
	sc.bucket = grow(sc.bucket, len(bound))
	bucket := sc.bucket[:len(bound)]
	var hist [histBuckets]int32
	for b, v := range bound {
		k := sc.bucketOf(v)
		bucket[b] = k
		hist[k]++
	}
	sc.hist = hist
	var start [histBuckets]int32
	var at int32
	for k := histBuckets - 1; k >= 0; k-- {
		start[k] = at
		at += hist[k]
	}
	sc.order = grow(sc.order, len(bound))
	for b, k := range bucket {
		sc.order[start[k]] = int32(b)
		start[k]++
	}
	return sc.order
}

// bucketOf returns the histogram bucket of bound v, monotone in v.
func (sc *rankScratch) bucketOf(v float64) uint8 {
	return uint8(min(max(int((v-sc.histLo)*sc.histScale), 0), histBuckets-1))
}

// countAbove counts the blocks of the histogram buckets above theta's:
// about the blocks bounding more than theta. Equal bounds share a bucket,
// so ties — which the item order breaks — do not count as open.
//
//sociolint:hotpath
func (sc *rankScratch) countAbove(theta float64) int {
	n := 0
	for _, c := range sc.hist[int(sc.bucketOf(theta))+1:] {
		n += int(c)
	}
	return n
}

// evalRun computes the utilities of blocks [b, e) into the row scratch with
// one kernel pass.
//
//sociolint:hotpath
func (sc *rankScratch) evalRun(b, e int, cls []int32, ms []float64) {
	t := sc.t
	lo, hi := b*blockSize, min(e*blockSize, t.numItems)
	seg := sc.row[lo:hi]
	clear(seg)
	axpyRows(seg, t.avg, t.numItems, lo, cls, ms)
}

// offer offers the evaluated items of block b, whose utilities are at most
// bound, unless the list can no longer take any of them.
//
//sociolint:hotpath
func (sc *rankScratch) offer(h *core.TopHeap, b int, bound float64) {
	if prunable(*h, bound, b) {
		return
	}
	// Once the list is full, an item below its floor cannot enter; one
	// equal to it still can, with a lower id.
	minUtility := math.Inf(-1)
	if floor, full := h.Floor(); full {
		minUtility = math.Nextafter(floor.Utility, minUtility)
	}
	h.PushRow(b*blockSize, sc.block(b), minUtility)
}

// block returns the evaluated utilities of block b.
func (sc *rankScratch) block(b int) []float64 {
	s := b * blockSize
	return sc.row[s:min(s+blockSize, sc.t.numItems)]
}

// prunable reports whether no item of block b, whose utilities are at most
// bound, can enter the full list h: the bound is below the list's floor,
// or equal to it while every item id of the block is above the floor's.
//
//sociolint:hotpath
func prunable(h core.TopHeap, bound float64, b int) bool {
	floor, full := h.Floor()
	if !full {
		return false
	}
	return bound < floor.Utility || (bound <= floor.Utility && int32(b*blockSize) > floor.Item)
}

// axpyRows adds Σ_t ms[t]·x_t to y, where x_t is the len(y) values of src
// starting at rows[t]*stride + off. Every element sums its terms in order,
// ((y + ms[0]·x_0) + ms[1]·x_1) + …, exactly as applying them one at a
// time would; folding four rows into each pass over y reads and writes y a
// quarter as often.
//
//sociolint:hotpath
func axpyRows(y, src []float64, stride, off int, rows []int32, ms []float64) {
	n := len(y)
	t := 0
	for ; t+4 <= len(rows); t += 4 {
		b0, b1 := int(rows[t])*stride+off, int(rows[t+1])*stride+off
		b2, b3 := int(rows[t+2])*stride+off, int(rows[t+3])*stride+off
		axpy4(y, src[b0:b0+n], src[b1:b1+n], src[b2:b2+n], src[b3:b3+n], ms[t], ms[t+1], ms[t+2], ms[t+3])
	}
	switch len(rows) - t {
	case 3:
		b0, b1, b2 := int(rows[t])*stride+off, int(rows[t+1])*stride+off, int(rows[t+2])*stride+off
		axpy3(y, src[b0:b0+n], src[b1:b1+n], src[b2:b2+n], ms[t], ms[t+1], ms[t+2])
	case 2:
		b0, b1 := int(rows[t])*stride+off, int(rows[t+1])*stride+off
		axpy2(y, src[b0:b0+n], src[b1:b1+n], ms[t], ms[t+1])
	case 1:
		b := int(rows[t])*stride + off
		axpy(ms[t], src[b:b+n], y)
	}
}

// axpy3 computes y = ((y + a0·x0) + a1·x1) + a2·x2 over equal-length
// slices.
//
//sociolint:hotpath
func axpy3(y, x0, x1, x2 []float64, a0, a1, a2 float64) {
	x0, x1, x2 = x0[:len(y)], x1[:len(y)], x2[:len(y)]
	for i := range y {
		y[i] = y[i] + a0*x0[i] + a1*x1[i] + a2*x2[i]
	}
}

// axpy2 computes y = (y + a0·x0) + a1·x1 over equal-length slices.
//
//sociolint:hotpath
func axpy2(y, x0, x1 []float64, a0, a1 float64) {
	x0, x1 = x0[:len(y)], x1[:len(y)]
	for i := range y {
		y[i] = y[i] + a0*x0[i] + a1*x1[i]
	}
}

// axpy4 computes y = (((y + a0·x0) + a1·x1) + a2·x2) + a3·x3 over
// equal-length slices.
//
//sociolint:hotpath
func axpy4(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for i := range y {
		y[i] = y[i] + a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// axpy computes y += a*x over equal-length slices. The bounds hint lets the
// compiler eliminate per-element checks in this hot loop.
//
//sociolint:hotpath
func axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mechanism: axpy length mismatch")
	}
	y = y[:len(x)]
	for i := range x {
		y[i] += a * x[i]
	}
}
