package mechanism

import (
	"context"
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Cluster is the paper's privacy-preserving framework (Algorithm 1). At
// construction it performs the only privacy-sensitive computation, module
// A_w: for every (cluster c, item i) pair it releases the noisy average
// preference weight
//
//	ŵ_c^i = (Σ_{v ∈ c} w(v, i)) / |c|  +  Lap(1/(|c|·ε))        (Eq. 3)
//
// Each preference edge (v, i) contributes to exactly one average (the one
// for v's cluster and item i), so by parallel composition (Theorem 3) the
// whole release satisfies ε-differential privacy, which is the content of
// the paper's Theorem 4. Everything after construction — reconstructing
// utility estimates via Eq. 4 and ranking items — is post-processing on the
// sanitized averages (see table for the reconstruction and the ranker).
type Cluster struct {
	table
}

// NewCluster runs module A_w of Algorithm 1: it computes the noisy
// per-(cluster, item) average weights from the preference graph. The
// clustering must partition exactly the users of prefs and must have been
// derived from the public social graph alone (e.g. community.Louvain) for
// the privacy guarantee to hold. eps may be dp.Inf to isolate approximation
// error (the paper's ε = ∞ runs).
func NewCluster(clusters *community.Clustering, prefs *graph.Preference, eps dp.Epsilon, noise dp.NoiseSource) (*Cluster, error) {
	return NewClusterCtx(context.Background(), clusters, prefs, eps, noise)
}

// NewClusterCtx is NewCluster on a caller-supplied context: a context
// carrying an active trace (a pipeline run, an admin reload request) gets
// a "laplace_release" child span, and the recorded budget spend carries
// the trace id so the ε is attributable to the run that spent it.
func NewClusterCtx(ctx context.Context, clusters *community.Clustering, prefs *graph.Preference, eps dp.Epsilon, noise dp.NoiseSource) (*Cluster, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if clusters.NumUsers() != prefs.NumUsers() {
		return nil, fmt.Errorf("mechanism: clustering covers %d users but preference graph has %d",
			clusters.NumUsers(), prefs.NumUsers())
	}
	nc := clusters.NumClusters()
	ni := prefs.NumItems()
	c := &Cluster{table: table{
		clusters: clusters,
		numItems: ni,
		avg:      make([]float64, nc*ni),
	}}
	// Accumulate raw per-cluster edge counts item-major: one pass over the
	// preference edges (lines 2–6 of Algorithm 1).
	for u := 0; u < prefs.NumUsers(); u++ {
		cu := clusters.Cluster(u)
		base := cu * ni
		for _, item := range prefs.Items(u) {
			c.avg[base+int(item)]++
		}
	}
	// Average and perturb (line 7). The noise scale for cluster c is
	// 1/(|c|·ε): one edge changes the cluster's average by at most 1/|c|.
	span := telemetry.Stages().Start("laplace_release")
	defer span.End()
	_, tsp := trace.StartChild(ctx, "laplace_release")
	defer tsp.End()
	for cl := 0; cl < nc; cl++ {
		size := float64(clusters.Size(cl))
		if size == 0 {
			continue
		}
		var scale float64
		if !eps.IsInf() {
			scale = 1 / (size * float64(eps))
		}
		base := cl * ni
		for i := 0; i < ni; i++ {
			c.avg[base+i] = c.avg[base+i]/size + noise.Laplace(scale)
		}
	}
	// The whole table is one ε-DP release by parallel composition: each
	// preference edge perturbs exactly one average by at most 1/|c|.
	telemetry.Budget().RecordCtx(ctx, telemetry.ReleaseEvent{
		Mechanism:   "cluster",
		Epsilon:     float64(eps),
		Sensitivity: 1,
		Values:      nc * ni,
	})
	return c, nil
}

// Name returns "cluster".
func (*Cluster) Name() string { return "cluster" }

// Averages returns a copy of the sanitized per-(cluster, item) averages,
// cluster-major. They are safe to persist and share: under differential
// privacy everything derived from them is post-processing (see
// internal/release).
func (c *Cluster) Averages() []float64 {
	out := make([]float64, len(c.avg))
	copy(out, c.avg)
	return out
}

// Clustering returns the user partition backing the release.
func (c *Cluster) Clustering() *community.Clustering { return c.clusters }

// NewClusterFromRelease reconstructs a Cluster estimator from previously
// released sanitized averages — no preference data and no privacy budget
// involved. avg must be cluster-major with numItems columns.
func NewClusterFromRelease(clusters *community.Clustering, numItems int, avg []float64) (*Cluster, error) {
	if numItems < 0 {
		return nil, fmt.Errorf("mechanism: negative item count")
	}
	if want := clusters.NumClusters() * numItems; len(avg) != want {
		return nil, fmt.Errorf("mechanism: %d averages, want %d", len(avg), want)
	}
	c := &Cluster{table: table{
		clusters: clusters,
		numItems: numItems,
		avg:      make([]float64, len(avg)),
	}}
	copy(c.avg, avg)
	return c, nil
}

// NumClusters reports the number of clusters backing the release.
func (c *Cluster) NumClusters() int { return c.clusters.NumClusters() }
