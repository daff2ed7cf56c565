package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// benchSetup builds a mid-sized dataset: 2000 users in 20 blocks, 5000
// items, ~60k preference edges.
func benchSetup(b *testing.B) (*graph.Social, *graph.Preference, *community.Clustering) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const n, items, blocks = 2000, 5000, 20
	sb := graph.NewSocialBuilder(n)
	per := n / blocks
	for e := 0; e < 7*n; e++ {
		u := rng.Intn(n)
		v := (u/per)*per + rng.Intn(per)
		_ = sb.AddEdge(u, v)
	}
	social := sb.Build()
	pb := graph.NewPreferenceBuilder(n, items)
	for e := 0; e < 60000; e++ {
		u := rng.Intn(n)
		blockBase := (u / per) * (items / blocks)
		_ = pb.AddEdge(u, blockBase+rng.Intn(items/blocks))
	}
	prefs := pb.Build()
	clusters := community.Louvain(social, community.Options{Seed: 1})
	return social, prefs, clusters
}

func BenchmarkClusterRelease(b *testing.B) {
	_, prefs, clusters := benchSetup(b)
	noise := dp.NewLaplaceSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), noise); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterUtilities(b *testing.B) {
	social, prefs, clusters := benchSetup(b)
	cl, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), dp.NewLaplaceSource(1))
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Utilities(users, sims, out)
	}
}

func BenchmarkExactUtilities(b *testing.B) {
	social, prefs, _ := benchSetup(b)
	exact := NewExact(prefs)
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range out {
			clear(out[k])
		}
		exact.Utilities(users, sims, out)
	}
}

func BenchmarkNOEUtilities(b *testing.B) {
	social, prefs, _ := benchSetup(b)
	noe, err := NewNOE(prefs, dp.Epsilon(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range out {
			clear(out[k])
		}
		noe.Utilities(users, sims, out)
	}
}

// rankSink keeps the benchmarked lists live.
var rankSink []core.Recommendation

// BenchmarkClusterRank measures one user's top-n over the lastfm-like
// table, served from the released averages: "dense" reconstructs the full
// Eq. 4 row and selects with core.TopN, "ranked" ranks straight from the
// table with the block-max ranker. Users cycle through a fixed sample.
func BenchmarkClusterRank(b *testing.B) {
	d := lastfmData(b, 1)
	sample := make([]int32, 0, 64)
	for u := 0; u < len(d.users); u += len(d.users) / 64 {
		sample = append(sample, d.users[u])
	}
	for _, p := range []struct {
		eps dp.Epsilon
		n   int
	}{{1, 10}, {1, 100}, {0.1, 10}, {0.1, 100}} {
		est := d.served(b, p.eps, 11)
		name := fmt.Sprintf("eps=%v/n=%d", p.eps, p.n)
		b.Run(name+"/dense", func(b *testing.B) {
			row := [][]float64{make([]float64, d.prefs.NumItems())}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u := sample[i%len(sample)]
				clear(row[0])
				est.Utilities(d.users[u:u+1], d.sims[u:u+1], row)
				rankSink = core.TopN(row[0], p.n, math.Inf(-1))
			}
		})
		b.Run(name+"/ranked", func(b *testing.B) {
			out := make([][]core.Recommendation, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u := sample[i%len(sample)]
				est.Bound(d.users[u:u+1], d.sims[u:u+1]).Rank(p.n, out)
				rankSink = out[0]
			}
		})
	}
}
