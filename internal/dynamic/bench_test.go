package dynamic

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/release"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// BenchmarkUpdaterAdvance times one Advance over a 64-op preference batch
// on the lastfm-like preset, the shape of a streamed publish: the batch's
// users come from one planted community, so the drift stays below the
// full-release threshold and each Advance publishes a delta. "delta" never
// reaches the chain limit, so every iteration is the delta path; "default"
// keeps FullEvery at its default, so every ninth publish is a full
// generation with ten Louvain runs. Appending and syncing the batch is not
// timed.
func BenchmarkUpdaterAdvance(b *testing.B) {
	social, planted, prefs, err := generator.LastFMLike(1).Generate()
	if err != nil {
		b.Fatal(err)
	}
	members := plantedMembers(planted)
	for _, bc := range []struct {
		name      string
		fullEvery int
	}{{"delta", math.MaxInt32}, {"default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			quiet := func(string, ...any) {}
			reg := telemetry.NewRegistry()
			log, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: reg, Logf: quiet})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			store, err := release.OpenStore(filepath.Join(dir, "store"), release.StoreOptions{Metrics: reg, Logf: quiet})
			if err != nil {
				b.Fatal(err)
			}
			u, err := OpenUpdater(UpdaterConfig{
				TotalBudget: 1e9, PerRelease: dp.Epsilon(1), Seed: 5,
				JournalPath: filepath.Join(dir, "journal"), WAL: log, Store: store,
				BaseSocial: social, BasePrefs: prefs, FullEvery: bc.fullEvery, Metrics: reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			if d, err := u.Advance(); err != nil || !d.Published {
				b.Fatalf("first advance: %+v %v", d, err)
			}
			rng := rand.New(rand.NewSource(9))
			items := int64(prefs.NumItems())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := members[rng.Intn(len(members))]
				for k := 0; k < 64; k++ {
					op := wal.OpAddPref
					if rng.Intn(3) == 0 {
						op = wal.OpDelPref
					}
					if _, err := log.Append(op, c[rng.Intn(len(c))], rng.Int63n(items)); err != nil {
						b.Fatal(err)
					}
				}
				if err := log.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d, err := u.Advance()
				if err != nil {
					b.Fatal(err)
				}
				if !d.Published {
					b.Fatalf("advance %d did not publish: %s", i, d.Reason)
				}
			}
		})
	}
}
