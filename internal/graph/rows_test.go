package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomGraphs builds a random social and preference graph through the
// builders, with duplicate and self-loop edges thrown in.
func randomGraphs(rng *rand.Rand, users, items, edges int) (*Social, *Preference) {
	sb := NewSocialBuilder(users)
	pb := NewPreferenceBuilder(users, items)
	for k := 0; k < edges; k++ {
		if users > 0 {
			_ = sb.AddEdge(rng.Intn(users), rng.Intn(users))
			if items > 0 {
				_ = pb.AddEdge(rng.Intn(users), rng.Intn(items))
			}
		}
	}
	return sb.Build(), pb.Build()
}

func socialRows(g *Social) [][]int32 {
	rows := make([][]int32, g.NumUsers())
	for u := range rows {
		rows[u] = slices.Clone(g.Neighbors(u))
	}
	return rows
}

func prefRows(p *Preference) [][]int32 {
	rows := make([][]int32, p.NumUsers())
	for u := range rows {
		rows[u] = slices.Clone(p.Items(u))
	}
	return rows
}

func sameSocial(t *testing.T, got, want *Social) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape (%d, %d), want (%d, %d)", got.NumUsers(), got.NumEdges(), want.NumUsers(), want.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got.Neighbors(u), want.Neighbors(u))
		}
	}
}

func samePreference(t *testing.T, got, want *Preference) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape (%d, %d, %d), want (%d, %d, %d)", got.NumUsers(), got.NumItems(), got.NumEdges(),
			want.NumUsers(), want.NumItems(), want.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		if !slices.Equal(got.Items(u), want.Items(u)) {
			t.Fatalf("Items(%d) = %v, want %v", u, got.Items(u), want.Items(u))
		}
	}
	for i := 0; i < want.NumItems(); i++ {
		if !slices.Equal(got.Users(i), want.Users(i)) {
			t.Fatalf("Users(%d) = %v, want %v", i, got.Users(i), want.Users(i))
		}
	}
}

func TestFromRowsMatchesBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		users, items := rng.Intn(40), rng.Intn(30)
		social, prefs := randomGraphs(rng, users, items, rng.Intn(200))
		rs, rp := socialRows(social), prefRows(prefs)
		gotS, err := SocialFromRows(rs)
		if err != nil {
			t.Fatalf("trial %d: SocialFromRows: %v", trial, err)
		}
		sameSocial(t, gotS, social)
		gotP, err := PreferenceFromRows(rp, items)
		if err != nil {
			t.Fatalf("trial %d: PreferenceFromRows: %v", trial, err)
		}
		samePreference(t, gotP, prefs)
		// The graphs own their storage: mutating the rows afterwards
		// changes nothing.
		for _, r := range append(rs, rp...) {
			for k := range r {
				r[k] = -7
			}
		}
		sameSocial(t, gotS, social)
		samePreference(t, gotP, prefs)
	}
}

func TestSocialFromRowsRejects(t *testing.T) {
	for name, rows := range map[string][][]int32{
		"unsorted":     {{2, 1}, {0}, {0}},
		"duplicate":    {{1, 1}, {0, 0}},
		"out of range": {{3}, {}, {}},
		"negative":     {{-1}, {}},
		"self-loop":    {{0}},
		"one-sided":    {{1}, {}},
		"extra entry":  {{1}, {0, 2}, {}},
		"mismatched":   {{1}, {2}, {1}},
	} {
		if _, err := SocialFromRows(rows); err == nil {
			t.Errorf("%s rows %v accepted", name, rows)
		}
	}
	g, err := SocialFromRows(nil)
	if err != nil || g.NumUsers() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty rows: %v, %v", g, err)
	}
}

func TestPreferenceFromRowsRejects(t *testing.T) {
	for name, rows := range map[string][][]int32{
		"unsorted":     {{2, 1}},
		"duplicate":    {{1, 1}},
		"out of range": {{3}},
		"negative":     {{-1, 0}},
	} {
		if _, err := PreferenceFromRows(rows, 3); err == nil {
			t.Errorf("%s rows %v accepted", name, rows)
		}
	}
	if _, err := PreferenceFromRows(nil, -1); err == nil {
		t.Error("negative item count accepted")
	}
	p, err := PreferenceFromRows([][]int32{{}, {}}, 0)
	if err != nil || p.NumUsers() != 2 || p.NumItems() != 0 || p.NumEdges() != 0 {
		t.Fatalf("empty rows: %v, %v", p, err)
	}
}
