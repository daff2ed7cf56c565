package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"socialrec"
)

// checkSample compares the tier's answers for a seeded sample of users,
// one by one and as one batch, with the in-process unsharded engine built
// from the same release. It returns the number of comparisons made and
// the first mismatch.
func checkSample(ctx context.Context, url string, ref *socialrec.Engine, tokens []string, ids map[string]int, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	sample := make([]string, 24)
	for i := range sample {
		sample[i] = tokens[rng.Intn(len(tokens))]
	}
	g := &loadGen{url: url}
	c := &http.Client{}
	defer c.CloseIdleConnections()
	checks := 0
	for _, tok := range sample {
		var r recResponse
		checks++
		if err := g.call(ctx, c, nil, []string{tok}, &r); err != nil {
			return checks, fmt.Errorf("user %s: %w", tok, err)
		}
		if err := sameAsReference(r, ref, ids[tok]); err != nil {
			return checks, err
		}
	}
	var b batchResponse
	checks++
	if err := g.call(ctx, c, nil, sample[:batchUsers], &b); err != nil {
		return checks, fmt.Errorf("batch: %w", err)
	}
	if err := checkBatch(sample[:batchUsers], b); err != nil {
		return checks, err
	}
	for i, r := range b.Results {
		if err := sameAsReference(r, ref, ids[sample[i]]); err != nil {
			return checks, fmt.Errorf("batch row %d: %w", i, err)
		}
	}
	return checks, nil
}

// sameAsReference requires a served list to equal the reference engine's
// list exactly: same items in the same order, bit-identical utilities
// (JSON round-trips float64 exactly), same cluster.
func sameAsReference(r recResponse, ref *socialrec.Engine, id int) error {
	if err := checkList(r.User, r); err != nil {
		return err
	}
	want, err := ref.Recommend(id, listN)
	if err != nil {
		return err
	}
	if r.Cluster != ref.ClusterOf(id) {
		return fmt.Errorf("user %s: served cluster %d, reference %d", r.User, r.Cluster, ref.ClusterOf(id))
	}
	for i, w := range want {
		got := r.Recommendations[i]
		if got.Item != strconv.Itoa(int(w.Item)) || got.Utility != w.Utility {
			return fmt.Errorf("user %s rank %d: served (%s, %v), reference (%d, %v)",
				r.User, i, got.Item, got.Utility, w.Item, w.Utility)
		}
	}
	return nil
}
