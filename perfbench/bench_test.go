package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	cases := []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {30, 50}}, 70},
		{"overlapping hedge", [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 80},
		{"sticking out", [][2]int64{{-10, 10}, {90, 120}}, 80},
		{"outside", [][2]int64{{200, 300}}, 100},
		{"covering", [][2]int64{{-5, 105}, {40, 50}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := quantile(vals, c.p); got != c.want {
			t.Errorf("quantile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestWindowedTailIgnoresABurst(t *testing.T) {
	t0 := time.Unix(0, 0)
	var s samples
	for i := 0; i < 1000; i++ {
		lat := time.Duration(1+i%10) * time.Millisecond // p90 of any window is 9 ms
		if i >= 100 && i < 300 {
			lat = time.Second // two windows' worth of requests stalled
		}
		s = append(s, sample{due: t0.Add(time.Duration(i) * time.Millisecond), lat: lat})
	}
	pct, v, windows := windowedTail(s, 90)
	if pct != 90 || windows != 10 {
		t.Fatalf("windowedTail: p%g over %d windows, want p90 over 10", pct, windows)
	}
	if v != float64(9*time.Millisecond) {
		t.Errorf("windowedTail = %v, want 9ms: the stalled windows moved the figure", time.Duration(v))
	}
	if p := s.dist().p(90); p != float64(time.Second) {
		t.Fatalf("test premise: pooled p90 = %v, want the stall", time.Duration(p))
	}
	if _, v, windows := windowedTail(s[:150], 90); windows != 1 || v != float64(time.Second) {
		t.Errorf("150 samples: %d windows, tail %v; want the whole sample's p90", windows, time.Duration(v))
	}
}

// requestTree is the span tree of one traced single-user read, one span
// per layer, each nested in its parent.
func requestTree() []span {
	return []span{
		{Req: 1, ID: 1, Name: spanClient, Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: spanRouter, Start: 5, End: 95},
		{Req: 1, ID: 3, Parent: 2, Name: spanAttempt, Start: 10, End: 90},
		{Req: 1, ID: 4, Parent: 3, Name: spanServer, Start: 15, End: 85},
		{Req: 1, ID: 5, Parent: 4, Name: spanEngine, Start: 20, End: 80},
		{Req: 1, ID: 6, Parent: 5, Name: spanSimcache, Start: 25, End: 40},
		{Req: 1, ID: 7, Parent: 6, Name: spanSimilarity, Start: 26, End: 39},
		{Req: 1, ID: 8, Parent: 5, Name: spanUtilities, Start: 45, End: 70},
	}
}

func TestAnalyzePathSumAndMissingLayers(t *testing.T) {
	lt := analyze(requestTree())
	if lt.pathGaps != 0 || lt.pathRatio.n() != 1 || lt.pathRatio.p(50) != 1 {
		t.Fatalf("complete tree: gaps %d, ratio %v over %d", lt.pathGaps, lt.pathRatio.p(50), lt.pathRatio.n())
	}
	// Without its utilities span the tree still sums to the client span,
	// so only the layer check can tell.
	lost := requestTree()[:7]
	lt = analyze(lost)
	if lt.pathRatio.p(50) != 1 || lt.pathGaps != 1 {
		t.Errorf("lost utilities span: ratio %v, gaps %d; want ratio 1 and one gap", lt.pathRatio.p(50), lt.pathGaps)
	}
	// A server span that escapes its attempt is counted past the client.
	escaped := requestTree()
	escaped[3].End = 120
	if r := analyze(escaped).pathRatio.p(50); r <= 1+pathTolerance {
		t.Errorf("escaping span: ratio %v, want above 1+%g", r, pathTolerance)
	}
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkloadEmitsItsMetrics runs every workload at tiny scale,
// untraced and traced, and requires each metric BENCHMARK.json names to be
// reported with its unit and every output check to pass.
func TestSmokeEveryWorkloadEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := run(context.Background(), wl, options{
				seed: 3, seconds: 3, traced: traced, tiny: true,
				dir: filepath.Join(dir, "work"), traceDir: filepath.Join(dir, "traces"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.correct, res.attempted, res.failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.Name, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
