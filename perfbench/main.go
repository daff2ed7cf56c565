// Command perfbench is the repository's benchmark: it generates a
// workload's inputs from a seed, builds the private release from TSV files
// on disk, serves it through the router and shard servers on loopback,
// drives them with an open-loop generator, publishes streamed updates into
// a server.Hot tier, checks every output, and prints one JSON result line.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run (see METRICS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 30, "measured seconds of the run")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		work    = flag.String("work", ".bench_build/work", "scratch directory for inputs, stores and WALs")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(*work, wl.name+"-"+strconv.Itoa(os.Getpid()))
	opts := options{seed: *seed, seconds: float64(*seconds), traced: *traced == 1, dir: dir,
		traceDir: filepath.Join(filepath.Dir(*work), "traces")}
	res, err := run(ctx, wl, opts)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance(wl, opts, res)
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		os.Exit(1)
	}
	if err := printJSON(map[string]any{"detail": res.detail}); err != nil {
		os.Exit(1)
	}
	if err := printJSON(res.output()); err != nil {
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	detail            map[string]any
	sizes             map[string]int
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) output() map[string]any {
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics}
}

// note records an operation's outcome; a failed check makes the run
// incorrect.
func (r *result) note(n int, err error, what string) {
	r.attempted += n
	if err != nil {
		r.failed++
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}
