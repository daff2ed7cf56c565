package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"socialrec/internal/dp"
	"socialrec/internal/dynamic"
	"socialrec/internal/release"
	"socialrec/internal/server"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// perRelease is the ε each streamed publish spends.
const perRelease = dp.Epsilon(releaseEpsilon)

// maxWrite bounds how long the writer keeps stepping.
const maxWrite = 30 * time.Second

// updateStats are the streaming layers' figures from one update phase.
type updateStats struct {
	appendSync dist // appends + wal.Log.Sync of one batch, ns
	advance    dist // dynamic.Updater.Advance, ns
	swap       dist // LoadLatest + engine build + Hot.Swap/ApplyDelta, ns
	publish    dist // Sync of a batch until Hot serves a lineage covering it, ns
	publishCPU dist // the writer's CPU time over the same span, ns
	deltaBytes dist
	advances   int
	publishes  int
	deltas     int
}

// streamer owns the write side of the update phase: a WAL, an updater
// publishing into its own store, and the server.Hot slot it swaps into.
type streamer struct {
	log     *wal.Log
	store   *release.Store
	upd     *dynamic.Updater
	hot     *server.Hot
	engines *engines
	b       *built
	rng     *rand.Rand
	members [][]int32
	stats   updateStats
}

// openStreamer seeds a release store with the built release, opens a WAL
// and an updater on top, and returns a Hot slot serving the seed release.
func openStreamer(b *built, f *engines, dir string, louvainRuns int, seed int64) (*streamer, error) {
	reg := telemetry.NewRegistry()
	quiet := func(string, ...any) {}
	store, err := release.OpenStore(filepath.Join(dir, "store"), release.StoreOptions{Metrics: reg, Logf: quiet})
	if err != nil {
		return nil, err
	}
	v, err := store.Save(b.rel)
	if err != nil {
		return nil, err
	}
	log, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: reg, Logf: quiet})
	if err != nil {
		return nil, err
	}
	upd, err := dynamic.OpenUpdater(dynamic.UpdaterConfig{
		TotalBudget: 1e9, PerRelease: perRelease, Measure: similarity.CommonNeighbors{},
		LouvainRuns: louvainRuns, Seed: seed, JournalPath: filepath.Join(dir, "journal"),
		WAL: log, Store: store, BaseSocial: b.social, BasePrefs: b.prefs, Metrics: reg,
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	eng, err := f.forRelease(b.rel)
	if err != nil {
		log.Close()
		return nil, err
	}
	return &streamer{
		log: log, store: store, upd: upd, hot: server.NewHot(eng, v), engines: f, b: b,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)), members: b.rel.Clusters.Members(),
	}, nil
}

func (s *streamer) close() error { return s.log.Close() }

// batchFractions are the population shares one mutation batch's
// communities hold.
var batchFractions = []float64{0.02, 0.05}

// writeBatch appends one batch of preference adds and deletes, drawn from
// the seed, concentrated on whole communities the way real activity is.
func (s *streamer) writeBatch() error {
	n := s.b.social.NumUsers()
	target := int(batchFractions[s.rng.Intn(len(batchFractions))] * float64(n))
	var users []int32
	for len(users) < max(target, 1) {
		c := s.members[s.rng.Intn(len(s.members))]
		users = append(users, c...)
	}
	touch := min(len(users), 64)
	items := s.b.prefs.NumItems()
	for k := 0; k < touch; k++ {
		u := users[s.rng.Intn(len(users))]
		op, item := wal.OpAddPref, int64(s.rng.Intn(items))
		if have := s.b.prefs.Items(int(u)); len(have) > 0 && s.rng.Intn(3) == 0 {
			op, item = wal.OpDelPref, int64(have[s.rng.Intn(len(have))])
		}
		if _, err := s.log.Append(op, int64(u), item); err != nil {
			return err
		}
	}
	return s.log.Sync()
}

// step writes one batch, advances the updater and, when it published,
// swaps the new lineage into the Hot slot.
func (s *streamer) step() error {
	t0 := time.Now()
	if err := s.writeBatch(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	synced, c0 := time.Now(), threadCPU()
	s.stats.appendSync.addDur(synced.Sub(t0))
	d, err := s.upd.Advance()
	s.stats.advances++
	if err != nil {
		return fmt.Errorf("advance: %w", err)
	}
	advanced := time.Now()
	s.stats.advance.addDur(advanced.Sub(synced))
	if !d.Published {
		return nil
	}
	s.stats.publishes++
	if err := s.swap(context.Background()); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	done := time.Now()
	s.stats.swap.addDur(done.Sub(advanced))
	s.stats.publish.addDur(done.Sub(synced))
	s.stats.publishCPU.addDur(threadCPU() - c0)
	if d.Kind == "delta" {
		s.stats.deltas++
		st, err := os.Stat(filepath.Join(s.store.Dir(), fmt.Sprintf("delta-%012d.socdlt", d.Version)))
		if err != nil {
			return err
		}
		s.stats.deltaBytes.add(float64(st.Size()))
	}
	return nil
}

// swap loads the newest lineage from the store and installs it: a longer
// delta chain on the same full generation through ApplyDelta, a new full
// generation through Swap. The engine it replaces stops serving, so the
// benchmark stops tracking it.
func (s *streamer) swap(ctx context.Context) error {
	rel, ln, _, err := s.store.LoadLatestContext(ctx)
	if err != nil {
		return err
	}
	eng, err := s.engines.forRelease(rel)
	if err != nil {
		return err
	}
	prev := s.hot.Engine()
	cur := s.hot.Status()
	switch {
	case len(ln.Deltas) > 0 && ln.Full == cur.FullVersion:
		if err := s.hot.ApplyDelta(eng, cur.Version, ln.Deltas); err != nil {
			return err
		}
	case len(ln.Deltas) > 0:
		return fmt.Errorf("new full generation %d arrived with deltas already applied", ln.Full)
	default:
		s.hot.Swap(eng, ln.Full)
	}
	s.engines.retire(prev)
	return nil
}

// run steps the writer until ctx ends or, when publishes is positive,
// until that many publishes landed; maxWrite bounds it either way.
// interval paces batches; 0 writes back to back. The writer stays on one
// OS thread, so the thread's CPU time is the writer's alone even while
// reads are served beside it.
func (s *streamer) run(ctx context.Context, interval time.Duration, publishes int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if (publishes > 0 && s.stats.publishes >= publishes) || time.Since(start) >= maxWrite {
			return nil
		}
		if interval > 0 {
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				time.Sleep(d)
			}
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// check verifies the end state: Hot serves exactly the updater's lineage,
// and ε spent equals publishes × PerRelease.
func (s *streamer) check() error {
	ln := s.upd.Lineage()
	st := s.hot.Status()
	if st.Version != ln.Version() || st.FullVersion != ln.Full || len(st.Deltas) != len(ln.Deltas) {
		return fmt.Errorf("hot serves version %d (full %d, %d deltas), updater lineage is %d (full %d, %d deltas)",
			st.Version, st.FullVersion, len(st.Deltas), ln.Version(), ln.Full, len(ln.Deltas))
	}
	for i := range ln.Deltas {
		if st.Deltas[i] != ln.Deltas[i] {
			return fmt.Errorf("hot delta %d is version %d, updater has %d", i, st.Deltas[i], ln.Deltas[i])
		}
	}
	want := float64(s.stats.publishes) * float64(perRelease)
	if got := float64(s.upd.Spent()); math.Abs(got-want) > 1e-9*max(1, want) {
		return fmt.Errorf("ε spent %g, want %d publishes × %g = %g", got, s.stats.publishes, float64(perRelease), want)
	}
	return nil
}
