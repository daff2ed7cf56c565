package mechanism

import (
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// WeightedExact is the non-private reference recommender over weighted
// preference edges: μ_u^i = Σ_{v ∈ sim(u)} sim(u,v)·w(v,i) with real-valued
// w — Eq. 1 without the unit-weight simplification of §2.1.
type WeightedExact struct {
	prefs *graph.WeightedPreference
}

// NewWeightedExact returns the exact weighted estimator.
func NewWeightedExact(prefs *graph.WeightedPreference) *WeightedExact {
	return &WeightedExact{prefs: prefs}
}

// Name returns "exact-weighted".
func (*WeightedExact) Name() string { return "exact-weighted" }

// Utilities computes the weighted Eq. 1 for every user in the batch.
func (e *WeightedExact) Utilities(users []int32, sims []similarity.Scores, out [][]float64) {
	for k := range users {
		row := out[k]
		s := sims[k]
		for j, v := range s.Users {
			sv := s.Vals[j]
			items, ws := e.prefs.Edges(int(v))
			for idx, item := range items {
				row[item] += sv * ws[idx]
			}
		}
	}
}

// WeightedCluster extends Algorithm 1 to weighted preference edges — the
// §7 extension the paper sketches. The released quantity per (cluster,
// item) pair is the average edge *weight*
//
//	ŵ_c^i = (Σ_{v ∈ c} w(v, i)) / |c|  +  Lap(W_max/(|c|·ε))
//
// where W_max bounds every edge weight. Adding or removing one edge moves
// the cluster sum by at most W_max, so the noise scale W_max/(|c|·ε) gives
// ε-differential privacy by exactly the argument of Theorem 4; with
// normalized weights (W_max = 1, see graph.WeightedPreference.Normalized)
// the noise is identical to the unweighted framework's.
//
// Reconstruction and ranking are the unweighted Cluster's (see table):
// Eq. 4 is agnostic to how the averages were formed.
type WeightedCluster struct {
	table
}

// NewWeightedCluster performs the private release over a weighted
// preference graph. maxWeight must be an a-priori public bound on edge
// weights (e.g. 5 for star ratings); it must not be derived from the data
// itself. Graphs whose actual weights exceed maxWeight are rejected.
func NewWeightedCluster(clusters *community.Clustering, prefs *graph.WeightedPreference, maxWeight float64, eps dp.Epsilon, noise dp.NoiseSource) (*WeightedCluster, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if maxWeight <= 0 {
		return nil, fmt.Errorf("mechanism: maxWeight must be positive, got %v", maxWeight)
	}
	if prefs.MaxWeight() > maxWeight {
		// The actual maximum is a data-dependent statistic and must not
		// leak into the error; the declared bound is public by contract.
		return nil, fmt.Errorf("mechanism: graph contains a weight above the declared bound %v", maxWeight)
	}
	if clusters.NumUsers() != prefs.NumUsers() {
		return nil, fmt.Errorf("mechanism: clustering covers %d users but preference graph has %d",
			clusters.NumUsers(), prefs.NumUsers())
	}
	nc := clusters.NumClusters()
	ni := prefs.NumItems()
	c := &WeightedCluster{table: table{
		clusters: clusters,
		numItems: ni,
		avg:      make([]float64, nc*ni),
	}}
	for u := 0; u < prefs.NumUsers(); u++ {
		cu := clusters.Cluster(u)
		base := cu * ni
		items, ws := prefs.Edges(u)
		for k, item := range items {
			c.avg[base+int(item)] += ws[k]
		}
	}
	for cl := 0; cl < nc; cl++ {
		size := float64(clusters.Size(cl))
		if size == 0 {
			continue
		}
		var scale float64
		if !eps.IsInf() {
			scale = maxWeight / (size * float64(eps))
		}
		base := cl * ni
		for i := 0; i < ni; i++ {
			c.avg[base+i] = c.avg[base+i]/size + noise.Laplace(scale)
		}
	}
	telemetry.Budget().Record(telemetry.ReleaseEvent{
		Mechanism:   "weighted_cluster",
		Epsilon:     float64(eps),
		Sensitivity: maxWeight,
		Values:      nc * ni,
	})
	return c, nil
}

// Name returns "cluster-weighted".
func (*WeightedCluster) Name() string { return "cluster-weighted" }
