package main

import (
	"fmt"
	"time"
)

// Both workloads serve the seeded lastfm-like population; they differ in
// which tier takes the traffic, its rates, and what the writer does.
const (
	// louvainRuns is the best-of count of the offline build and of full
	// streamed publishes.
	louvainRuns = 10
	// zipfS skews single-user reads over a seeded permutation of the users.
	zipfS = 1.1
	// batchShare is the share of 16-user batches in the warm-up's, the
	// saturation rounds' and the capacity search's requests.
	batchShare = 0.1
	// setupRuns and buildRuns are how many times a run generates its
	// inputs and builds the release before serving, for the medians in
	// setup_s and release_build_cpu_s; an untraced run builds once more in
	// each of its cycles.
	setupRuns, buildRuns = 5, 5
	// publishes is how many streamed publishes the writer lands back to
	// back, in shares between the cycles of an untraced run and after the
	// capacity search of a traced one, when it does not run beside reads.
	publishes = 40
	// latencyLimit is the single-user latency a capacity step must keep.
	latencyLimit = 100 * time.Millisecond
	// writeInterval paces mutation batches written beside reads.
	writeInterval = 500 * time.Millisecond
)

// workload is one traffic mix. Every workload runs the same phases, so
// every metric is measured on each.
type workload struct {
	name string
	// rate and batchRate are the fixed open-loop rates (req/s) of
	// single-user reads and of batches.
	rate, batchRate float64
	// readsBesideWrites sends the traffic to the server.Hot tier, with the
	// writer writing a batch every writeInterval during the warm-up and
	// fixed-rate phases, instead of to the static sharded tier.
	readsBesideWrites bool
}

// Fixed rates keep the generator's connections busy a sixth of the time
// or less on a 2-vCPU host, so the latencies measure the program rather
// than requests queued behind each other in the generator. A 30 s
// untraced run yields 1,600 or more single-user reads at the fixed rate;
// a traced run yields 800 untraced ones, so client.rec_p90_ms has ten
// samples beyond it in each of eight or more windows, and 300 batches.
var workloads = []workload{
	{name: "serve_hot", rate: 100, batchRate: 30},
	{name: "serve_update", rate: 80, batchRate: 30, readsBesideWrites: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
