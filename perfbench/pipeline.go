package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"socialrec/internal/community"
	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/router"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// releaseEpsilon is the ε of the built release and of every streamed
// publish.
const releaseEpsilon = 1.0

// inputs are the generated TSV files a run hands to the program.
type inputs struct {
	social, prefs string
	bytes         int64
}

// writeInputs generates the workload's population from the seed and
// writes it as the two TSV files the program ingests.
func writeInputs(p generator.Preset, dir string) (inputs, error) {
	social, _, prefs, err := p.Generate()
	if err != nil {
		return inputs{}, fmt.Errorf("generating %s: %w", p.Name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, err
	}
	in := inputs{social: filepath.Join(dir, "social.tsv"), prefs: filepath.Join(dir, "preferences.tsv")}
	if err := writeTSV(in.social, func(w *bufio.Writer) error { return dataset.WriteSocialTSV(w, social) }); err != nil {
		return inputs{}, err
	}
	if err := writeTSV(in.prefs, func(w *bufio.Writer) error { return dataset.WritePreferenceTSV(w, prefs) }); err != nil {
		return inputs{}, err
	}
	for _, p := range []string{in.social, in.prefs} {
		st, err := os.Stat(p)
		if err != nil {
			return inputs{}, err
		}
		in.bytes += st.Size()
	}
	return in, nil
}

func writeTSV(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// buildTimes are the stage timings of one release build, and the CPU
// time the whole build took.
type buildTimes struct {
	ingest, louvain, mechanism, split, persist, load time.Duration
	cpu                                              time.Duration
}

func (t buildTimes) total() time.Duration {
	return t.ingest + t.louvain + t.mechanism + t.split + t.persist + t.load
}

// built is the outcome of one release build.
type built struct {
	social     *graph.Social
	prefs      *graph.Preference
	userIDs    map[string]int
	rel        *release.Release
	manifest   *release.Manifest
	shards     []*release.Shard // as read back from the store
	modularity float64
	bytes      int64 // persisted sharded generation
	times      buildTimes
}

// buildRelease runs the offline path from TSV files on disk to a sharded
// release persisted in a release.Store and read back, timing each stage
// with a direct call into its package. Every stage runs on the calling
// goroutine, which stays on one OS thread so the thread's CPU time is the
// build's.
func buildRelease(ctx context.Context, in inputs, louvainRuns, numShards int, seed int64, storeDir string) (*built, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	b := &built{}
	c0 := threadCPU()
	t0 := time.Now()
	social, ids, err := readSocial(in.social)
	if err != nil {
		return nil, err
	}
	prefs, err := readPrefs(in.prefs, ids)
	if err != nil {
		return nil, err
	}
	b.social, b.userIDs, b.prefs = social, ids, prefs
	t1 := time.Now()
	clusters, mod := community.BestOf(social, louvainRuns, seed, community.Options{})
	b.modularity = mod
	t2 := time.Now()
	eps := dp.Epsilon(releaseEpsilon)
	est, err := mechanism.NewCluster(clusters, prefs, eps, dp.SourceFor(eps, seed+1))
	if err != nil {
		return nil, err
	}
	b.rel = &release.Release{Epsilon: releaseEpsilon, Measure: similarity.CommonNeighbors{}.Name(),
		Clusters: clusters, NumItems: prefs.NumItems(), Avg: est.Averages()}
	t3 := time.Now()
	manifest, shards, err := split(b.rel, social, numShards)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	store, err := release.OpenStore(storeDir, release.StoreOptions{Metrics: telemetry.NewRegistry(), Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	if _, err := store.SaveSharded(ctx, manifest, shards); err != nil {
		return nil, err
	}
	t5 := time.Now()
	b.manifest, _, err = store.LoadManifest(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < b.manifest.NumShards; i++ {
		sh, err := store.LoadShard(ctx, b.manifest, i)
		if err != nil {
			return nil, err
		}
		b.shards = append(b.shards, sh)
	}
	t6 := time.Now()
	b.times = buildTimes{ingest: t1.Sub(t0), louvain: t2.Sub(t1), mechanism: t3.Sub(t2),
		split: t4.Sub(t3), persist: t5.Sub(t4), load: t6.Sub(t5), cpu: threadCPU() - c0}
	if b.bytes, err = dirBytes(storeDir); err != nil {
		return nil, err
	}
	return b, checkReadBack(shards, b.shards)
}

// split assigns clusters to shards through the router's consistent-hash
// ring, as the serving tier does, and splits the release with the
// similarity measure's hop horizon as halo.
func split(rel *release.Release, social *graph.Social, n int) (*release.Manifest, []*release.Shard, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = "shard_" + strconv.Itoa(i)
	}
	ring, err := router.NewRing(names, 0)
	if err != nil {
		return nil, nil, err
	}
	clusterShard := make([]int32, rel.Clusters.NumClusters())
	for c := range clusterShard {
		clusterShard[c] = int32(ring.NodeIndex("cluster:" + strconv.Itoa(c)))
	}
	return release.SplitRelease(rel, social, clusterShard, n, similarity.Horizon(similarity.CommonNeighbors{}))
}

// checkReadBack verifies that every shard read back from the store
// validates and carries bit-identical averages.
func checkReadBack(want, got []*release.Shard) error {
	if len(want) != len(got) {
		return fmt.Errorf("read back %d shards, persisted %d", len(got), len(want))
	}
	for i := range want {
		if err := got[i].Validate(); err != nil {
			return fmt.Errorf("read-back shard %d: %w", i, err)
		}
		a, b := want[i].Release.Avg, got[i].Release.Avg
		if len(a) != len(b) {
			return fmt.Errorf("read-back shard %d: %d averages, persisted %d", i, len(b), len(a))
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return fmt.Errorf("read-back shard %d: average %d differs", i, k)
			}
		}
	}
	return nil
}

func readSocial(path string) (*graph.Social, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return dataset.ReadSocialTSV(bufio.NewReaderSize(f, 1<<16))
}

func readPrefs(path string, ids map[string]int) (*graph.Preference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, items, err := dataset.ReadPreferenceTSV(bufio.NewReaderSize(f, 1<<16), ids)
	if err != nil {
		return nil, err
	}
	p, _, err := dataset.BuildPreferences(len(ids), len(items), raw, 0)
	return p, err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
