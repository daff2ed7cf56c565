// Package graph provides the two graph structures that comprise the input to
// a social recommendation system: the social graph G_s (Definition 1 of the
// paper) and the bipartite preference graph G_p (Definition 2).
//
// Both graphs use dense integer node identifiers in [0, n). Callers that work
// with external identifiers (user names, item SKUs) should maintain their own
// mapping; internal/dataset provides one for TSV-encoded data.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Social is an undirected social graph G_s = (U, E_s). Nodes are users,
// identified by dense integers in [0, NumUsers). The adjacency structure is
// stored in compressed sparse row (CSR) form: the neighbors of user u are
// adj[off[u]:off[u+1]], sorted ascending. Social is immutable after Build.
type Social struct {
	off []int32 // len NumUsers+1
	adj []int32 // len 2*NumEdges
}

// SocialBuilder accumulates undirected edges and produces an immutable
// Social graph. Duplicate edges and self-loops are discarded.
type SocialBuilder struct {
	numUsers int
	edges    map[[2]int32]struct{}
}

// NewSocialBuilder returns a builder for a social graph with numUsers user
// nodes. It panics if numUsers is negative.
func NewSocialBuilder(numUsers int) *SocialBuilder {
	if numUsers < 0 {
		panic("graph: negative user count")
	}
	return &SocialBuilder{
		numUsers: numUsers,
		edges:    make(map[[2]int32]struct{}),
	}
}

// AddEdge records the undirected social edge (u, v). Self-loops and
// duplicates are ignored. It returns an error if either endpoint is out of
// range.
func (b *SocialBuilder) AddEdge(u, v int) error {
	if u < 0 || u >= b.numUsers || v < 0 || v >= b.numUsers {
		return fmt.Errorf("graph: social edge (%d, %d) out of range [0, %d)", u, v, b.numUsers)
	}
	if u == v {
		return nil
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int32{int32(u), int32(v)}] = struct{}{}
	return nil
}

// NumEdges reports the number of distinct undirected edges added so far.
func (b *SocialBuilder) NumEdges() int { return len(b.edges) }

// Build produces the immutable Social graph. The builder may be reused
// afterwards; further AddEdge calls do not affect the built graph.
func (b *SocialBuilder) Build() *Social {
	deg := make([]int32, b.numUsers)
	for e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	off := make([]int32, b.numUsers+1)
	for u := 0; u < b.numUsers; u++ {
		off[u+1] = off[u] + deg[u]
	}
	adj := make([]int32, off[b.numUsers])
	next := make([]int32, b.numUsers)
	copy(next, off[:b.numUsers])
	for e := range b.edges {
		u, v := e[0], e[1]
		adj[next[u]] = v
		next[u]++
		adj[next[v]] = u
		next[v]++
	}
	for u := 0; u < b.numUsers; u++ {
		slices.Sort(adj[off[u]:off[u+1]])
	}
	return &Social{off: off, adj: adj}
}

// SocialFromRows builds the Social graph whose neighbor list Γ(u) is
// rows[u], copying the rows into CSR form in O(V+E) with no hashing or
// sorting. Each row must be strictly ascending, within [0, len(rows)) and
// free of u itself, and the rows must be symmetric (v ∈ rows[u] iff
// u ∈ rows[v]); a violation is reported as an error, never repaired.
func SocialFromRows(rows [][]int32) (*Social, error) {
	n := len(rows)
	off, err := rowOffsets(rows)
	if err != nil {
		return nil, err
	}
	adj := make([]int32, 0, off[n])
	for _, r := range rows {
		adj = append(adj, r...)
	}
	// Symmetry in one pass: visiting u in ascending order consumes each
	// row v's entries in ascending order too, so next[v] must point at u
	// whenever v ∈ rows[u], and every row must be consumed exactly.
	next := make([]int32, n)
	for u, r := range rows {
		prev := int32(-1)
		for _, v := range r {
			if v <= prev || int(v) >= n || int(v) == u {
				return nil, fmt.Errorf("graph: social row %d not strictly ascending within [0, %d) without self-loops", u, n)
			}
			prev = v
			k := off[v] + next[v]
			if k >= off[v+1] || adj[k] != int32(u) {
				return nil, fmt.Errorf("graph: social rows not symmetric at (%d, %d)", u, v)
			}
			next[v]++
		}
	}
	for v := range rows {
		if off[v]+next[v] != off[v+1] {
			return nil, fmt.Errorf("graph: social row %d has neighbors that do not list it", v)
		}
	}
	return &Social{off: off, adj: adj}, nil
}

// rowOffsets returns the CSR offsets of rows, refusing a total that
// overflows the int32 offsets.
func rowOffsets(rows [][]int32) ([]int32, error) {
	off := make([]int32, len(rows)+1)
	for u, r := range rows {
		if len(r) > math.MaxInt32-int(off[u]) {
			return nil, fmt.Errorf("graph: more than %d adjacency entries", math.MaxInt32)
		}
		off[u+1] = off[u] + int32(len(r))
	}
	return off, nil
}

// NumUsers reports |U|.
func (g *Social) NumUsers() int { return len(g.off) - 1 }

// NumEdges reports |E_s| (undirected edges counted once).
func (g *Social) NumEdges() int { return len(g.adj) / 2 }

// Degree reports |Γ(u)|, the number of immediate neighbors of user u.
func (g *Social) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// Neighbors returns the sorted neighbor list Γ(u). The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Social) Neighbors(u int) []int32 { return g.adj[g.off[u]:g.off[u+1]] }

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Social) HasEdge(u, v int) bool {
	n := g.Neighbors(u)
	i := sort.Search(len(n), func(i int) bool { return n[i] >= int32(v) })
	return i < len(n) && n[i] == int32(v)
}

// AvgDegree returns the mean and population standard deviation of the user
// degree distribution, as reported in Table 1 of the paper.
func (g *Social) AvgDegree() (mean, std float64) {
	n := g.NumUsers()
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for u := 0; u < n; u++ {
		sum += float64(g.Degree(u))
	}
	mean = sum / float64(n)
	var ss float64
	for u := 0; u < n; u++ {
		d := float64(g.Degree(u)) - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n))
}

// ConnectedComponents labels each user with a component identifier in
// [0, count) and returns the labels together with the component count.
// Components are numbered in order of discovery by increasing user id, so
// label 0 is the component of the lowest-numbered user.
func (g *Social) ConnectedComponents() (labels []int32, count int) {
	n := g.NumUsers()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = int32(count)
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// MainComponent returns the user ids of the largest connected component,
// sorted ascending. Ties are broken by lowest component label.
func (g *Social) MainComponent() []int32 {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	out := make([]int32, 0, sizes[best])
	for u, l := range labels {
		if int(l) == best {
			out = append(out, int32(u))
		}
	}
	return out
}

// InducedSubgraph builds the social graph induced by the given user set and
// returns it together with the mapping from new ids to original ids
// (origID[newID] == original user id). Users not in the set are dropped along
// with their edges. The user set may be in any order; new ids follow the
// ascending order of original ids.
func (g *Social) InducedSubgraph(users []int32) (*Social, []int32) {
	origID := make([]int32, len(users))
	copy(origID, users)
	sort.Slice(origID, func(i, j int) bool { return origID[i] < origID[j] })
	newID := make(map[int32]int32, len(origID))
	for i, u := range origID {
		newID[u] = int32(i)
	}
	b := NewSocialBuilder(len(origID))
	for i, u := range origID {
		for _, v := range g.Neighbors(int(u)) {
			if j, ok := newID[v]; ok && int32(i) < j {
				// Errors are impossible: both endpoints are in range.
				_ = b.AddEdge(i, int(j))
			}
		}
	}
	return b.Build(), origID
}
