package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Preference is the bipartite preference graph G_p = (U, I, E_p). A directed
// edge (u, i) expresses a positive preference of user u for item i; following
// §2.1 of the paper all edges have implicit weight 1 (w(u,i) = 1 for
// (u,i) ∈ E_p and 0 otherwise). Both orientations are stored in CSR form so
// that per-user and per-item traversals are O(degree). Preference is
// immutable after Build.
type Preference struct {
	numUsers int
	numItems int

	// user → items
	uoff   []int32
	uitems []int32
	// item → users
	ioff   []int32
	iusers []int32
}

// PreferenceBuilder accumulates preference edges and produces an immutable
// Preference graph. Duplicate edges are discarded.
type PreferenceBuilder struct {
	numUsers int
	numItems int
	edges    map[[2]int32]struct{}
}

// NewPreferenceBuilder returns a builder for a preference graph over
// numUsers users and numItems items. It panics if either count is negative.
func NewPreferenceBuilder(numUsers, numItems int) *PreferenceBuilder {
	if numUsers < 0 || numItems < 0 {
		panic("graph: negative node count")
	}
	return &PreferenceBuilder{
		numUsers: numUsers,
		numItems: numItems,
		edges:    make(map[[2]int32]struct{}),
	}
}

// AddEdge records the preference edge (u, i). Duplicates are ignored. It
// returns an error if either endpoint is out of range.
func (b *PreferenceBuilder) AddEdge(u, i int) error {
	// The offending ids are deliberately not echoed: user and item ids are
	// the raw adjacency data, and builder errors bubble into ingestion
	// logs. The bounds are structural and safe to report.
	if u < 0 || u >= b.numUsers {
		return fmt.Errorf("graph: preference edge user out of range [0, %d)", b.numUsers)
	}
	if i < 0 || i >= b.numItems {
		return fmt.Errorf("graph: preference edge item out of range [0, %d)", b.numItems)
	}
	b.edges[[2]int32{int32(u), int32(i)}] = struct{}{}
	return nil
}

// NumEdges reports the number of distinct preference edges added so far.
func (b *PreferenceBuilder) NumEdges() int { return len(b.edges) }

// Build produces the immutable Preference graph.
func (b *PreferenceBuilder) Build() *Preference {
	p := &Preference{numUsers: b.numUsers, numItems: b.numItems}

	udeg := make([]int32, b.numUsers)
	ideg := make([]int32, b.numItems)
	for e := range b.edges {
		udeg[e[0]]++
		ideg[e[1]]++
	}
	p.uoff = prefixSum(udeg)
	p.ioff = prefixSum(ideg)
	p.uitems = make([]int32, len(b.edges))
	p.iusers = make([]int32, len(b.edges))
	unext := make([]int32, b.numUsers)
	copy(unext, p.uoff[:b.numUsers])
	inext := make([]int32, b.numItems)
	copy(inext, p.ioff[:b.numItems])
	for e := range b.edges {
		u, i := e[0], e[1]
		p.uitems[unext[u]] = i
		unext[u]++
		p.iusers[inext[i]] = u
		inext[i]++
	}
	for u := 0; u < b.numUsers; u++ {
		slices.Sort(p.uitems[p.uoff[u]:p.uoff[u+1]])
	}
	for i := 0; i < b.numItems; i++ {
		slices.Sort(p.iusers[p.ioff[i]:p.ioff[i+1]])
	}
	return p
}

// PreferenceFromRows builds the Preference graph over len(rows) users and
// numItems items in which user u prefers exactly rows[u], in O(U+I+E) with
// no hashing or sorting: the user side is the rows concatenated, the item
// side a counting-sort transpose whose rows come out ascending because
// users are visited in order. Each row must be strictly ascending within
// [0, numItems); a violation is reported as an error, never repaired.
func PreferenceFromRows(rows [][]int32, numItems int) (*Preference, error) {
	if numItems < 0 || numItems > math.MaxInt32 {
		return nil, fmt.Errorf("graph: item count out of range")
	}
	uoff, err := rowOffsets(rows)
	if err != nil {
		return nil, err
	}
	p := &Preference{numUsers: len(rows), numItems: numItems, uoff: uoff}
	p.uitems = make([]int32, 0, uoff[len(rows)])
	ideg := make([]int32, numItems)
	for _, r := range rows {
		// Like AddEdge, the error names no user or item id: they are the
		// raw adjacency data.
		prev := int32(-1)
		for _, it := range r {
			if it <= prev || int(it) >= numItems {
				return nil, fmt.Errorf("graph: preference row not strictly ascending within [0, %d)", numItems)
			}
			prev = it
			ideg[it]++
		}
		p.uitems = append(p.uitems, r...)
	}
	p.ioff = prefixSum(ideg)
	p.iusers = make([]int32, len(p.uitems))
	next := ideg // the degrees are spent; reuse them as fill cursors
	copy(next, p.ioff[:numItems])
	for u, r := range rows {
		for _, it := range r {
			p.iusers[next[it]] = int32(u)
			next[it]++
		}
	}
	return p, nil
}

func prefixSum(deg []int32) []int32 {
	off := make([]int32, len(deg)+1)
	for i, d := range deg {
		off[i+1] = off[i] + d
	}
	return off
}

// NumUsers reports |U|.
func (p *Preference) NumUsers() int { return p.numUsers }

// NumItems reports |I|.
func (p *Preference) NumItems() int { return p.numItems }

// NumEdges reports |E_p|.
func (p *Preference) NumEdges() int { return len(p.uitems) }

// Items returns the sorted item ids preferred by user u. The returned slice
// aliases internal storage and must not be modified.
func (p *Preference) Items(u int) []int32 { return p.uitems[p.uoff[u]:p.uoff[u+1]] }

// Users returns the sorted user ids that prefer item i. The returned slice
// aliases internal storage and must not be modified.
func (p *Preference) Users(i int) []int32 { return p.iusers[p.ioff[i]:p.ioff[i+1]] }

// UserDegree reports the number of items preferred by user u.
func (p *Preference) UserDegree(u int) int { return int(p.uoff[u+1] - p.uoff[u]) }

// ItemDegree reports the number of users that prefer item i.
func (p *Preference) ItemDegree(i int) int { return int(p.ioff[i+1] - p.ioff[i]) }

// Weight reports w(u, i): 1 if the preference edge exists and 0 otherwise.
func (p *Preference) Weight(u, i int) float64 {
	items := p.Items(u)
	k := sort.Search(len(items), func(k int) bool { return items[k] >= int32(i) })
	if k < len(items) && items[k] == int32(i) {
		return 1
	}
	return 0
}

// AvgItemDegree returns the mean and population standard deviation of the
// item degree distribution, as reported in Table 1 of the paper. Items with
// no preference edges are excluded, matching how crawled datasets only
// contain items somebody interacted with.
func (p *Preference) AvgItemDegree() (mean, std float64) {
	var n int
	var sum float64
	for i := 0; i < p.numItems; i++ {
		if d := p.ItemDegree(i); d > 0 {
			n++
			sum += float64(d)
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	var ss float64
	for i := 0; i < p.numItems; i++ {
		if d := p.ItemDegree(i); d > 0 {
			dd := float64(d) - mean
			ss += dd * dd
		}
	}
	return mean, sqrtf(ss / float64(n))
}

// Sparsity reports 1 - |E_p| / (|U|·|I|), the fraction of absent user-item
// pairs, as reported in Table 1 of the paper.
func (p *Preference) Sparsity() float64 {
	total := float64(p.numUsers) * float64(p.numItems)
	if total == 0 {
		return 0
	}
	return 1 - float64(p.NumEdges())/total
}

// RemoveEdge returns a copy of the preference graph with the edge (u, i)
// removed, or the receiver itself if the edge does not exist. It is intended
// for constructing the neighboring databases of Definition 6 in privacy
// tests, not for hot paths.
func (p *Preference) RemoveEdge(u, i int) *Preference {
	if p.Weight(u, i) == 0 {
		return p
	}
	b := NewPreferenceBuilder(p.numUsers, p.numItems)
	for v := 0; v < p.numUsers; v++ {
		for _, it := range p.Items(v) {
			if v == u && int(it) == i {
				continue
			}
			_ = b.AddEdge(v, int(it))
		}
	}
	return b.Build()
}

// AddedEdge returns a copy of the preference graph with the edge (u, i)
// added, or the receiver itself if the edge already exists. See RemoveEdge.
func (p *Preference) AddedEdge(u, i int) *Preference {
	if p.Weight(u, i) != 0 {
		return p
	}
	b := NewPreferenceBuilder(p.numUsers, p.numItems)
	for v := 0; v < p.numUsers; v++ {
		for _, it := range p.Items(v) {
			_ = b.AddEdge(v, int(it))
		}
	}
	_ = b.AddEdge(u, i)
	return b.Build()
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
