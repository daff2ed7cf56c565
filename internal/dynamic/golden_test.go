package dynamic

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"socialrec/internal/dp"
	"socialrec/internal/faults"
	"socialrec/internal/generator"
	"socialrec/internal/wal"
)

// goldenArtifacts are the SHA-256 digests of every artifact the golden
// run below writes, recorded on linux/amd64. Any change to how the updater
// builds its graphs, derives its seeds or plans its deltas that alters a
// published byte changes one of them.
var goldenArtifacts = map[string]string{
	"release-000000000001.socrec": "1bc8491703e26adda75f66cf3b8ca8550156b78e935474b1fcf543c8e6555771",
	"delta-000000000002.socdlt":   "f472a69a422c7ffbe8322f21658c6be61bfb081a7572acc0b7a7759ed3f81252",
	"delta-000000000003.socdlt":   "07dd90dec10d52a34b8c5782729aa8bfb3d735fd88755232bbe454dc2169a268",
	"delta-000000000004.socdlt":   "333077c54e3848a0a4b4d5f25a85c14542d91219d2a4feae8207d3343f6b7e86",
	"release-000000000005.socrec": "5da58a075d34f6d067c776f90b31b1e9c957bb9f31391dc94a1820f7c3184c48",
	"delta-000000000006.socdlt":   "af063a3753b876c78fe1942f52ca5a5a4f60c5c0df2a80ade24a0156ba37def8",
}

// goldenKinds is the publish sequence the golden run must produce: the
// first full release, deltas up to the chain limit, then a chain-limit
// full generation and one delta on top of it.
var goldenKinds = []string{"full", "delta", "delta", "delta", "full", "delta"}

// goldenBatch appends one seeded mutation batch: a new user wired into the
// population, a new item, social adds and deletes, preference adds and
// deletes concentrated on one planted community, a duplicate add and a
// delete of an absent edge.
func goldenBatch(e *streamEnv, rng *rand.Rand, members [][]int64, users, items int64) {
	e.t.Helper()
	e.append(wal.OpAddUser, users, 0)
	e.append(wal.OpAddItem, items, 0)
	c := members[rng.Intn(len(members))]
	pick := func() int64 { return c[rng.Intn(len(c))] }
	for k := 0; k < 3; k++ {
		e.append(wal.OpAddSocial, users, pick())
	}
	a, b := pick(), pick()
	if a != b {
		e.append(wal.OpAddSocial, a, b)
		e.append(wal.OpAddSocial, a, b) // duplicate add
		e.append(wal.OpDelSocial, a, b)
	}
	e.append(wal.OpDelSocial, pick(), users) // absent unless picked above
	for k := 0; k < 12; k++ {
		u := pick()
		e.append(wal.OpAddPref, u, rng.Int63n(items+1))
		e.append(wal.OpDelPref, u, rng.Int63n(items+1))
	}
	e.append(wal.OpAddPref, users, items)
	e.append(wal.OpAddPref, users, items) // duplicate add
	if err := e.log.Sync(); err != nil {
		e.t.Fatal(err)
	}
}

// plantedMembers lists each planted community's users.
func plantedMembers(planted []int32) [][]int64 {
	var members [][]int64
	for v, c := range planted {
		for int(c) >= len(members) {
			members = append(members, nil)
		}
		members[c] = append(members[c], int64(v))
	}
	return members
}

// TestUpdaterGoldenArtifacts runs an updater over a fixed seeded WAL on
// the TinyTest preset and pins the SHA-256 of every artifact it writes,
// so "the published bytes did not change" is checked, not assumed. The
// "recovered" run crashes the last (delta) publish after its intent is
// journaled and lets OpenUpdater finish it by recomputation; it must land
// the same bytes and charge ε once.
func TestUpdaterGoldenArtifacts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; fused multiply-add elsewhere may change released floats")
	}
	social, planted, prefs, err := generator.TinyTest(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	members := plantedMembers(planted)
	for _, tc := range []struct {
		name  string
		crash bool
	}{{"live", false}, {"recovered", true}} {
		crash := tc.crash
		t.Run(tc.name, func(t *testing.T) {
			reg := faults.New(1)
			e := newStreamEnv(t, faults.NewFS(faults.OS{}, reg))
			open := func() *Updater {
				cfg := e.config()
				cfg.TotalBudget = dp.Epsilon(10)
				cfg.LouvainRuns = 3
				cfg.DriftFullUsers = 0.5
				cfg.FullEvery = 3
				cfg.BaseSocial, cfg.BasePrefs = social, prefs
				u, err := OpenUpdater(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			u := open()
			rng := rand.New(rand.NewSource(13))
			users, items := int64(social.NumUsers()), int64(prefs.NumItems())
			var kinds []string
			for step := range goldenKinds {
				if step > 0 {
					goldenBatch(e, rng, members, users, items)
					users++
					items++
				}
				last := step == len(goldenKinds)-1
				if crash && last {
					// The first rename is the intent journal's; the
					// second, the delta artifact's, dies.
					reg.Arm(faults.PointFSRename, faults.Plan{After: 1, Err: faults.ErrInjected})
					if _, err := u.Advance(); !errors.Is(err, faults.ErrInjected) {
						t.Fatalf("advance %d: %v, want injected failure", step, err)
					}
					reg.DisarmAll()
					e.reopen()
					u = open()
					kinds = append(kinds, goldenKinds[step])
					continue
				}
				d, err := u.Advance()
				if err != nil {
					t.Fatalf("advance %d: %v", step, err)
				}
				kinds = append(kinds, d.Kind)
			}
			for i := range goldenKinds {
				if kinds[i] != goldenKinds[i] {
					t.Fatalf("publish kinds %v, want %v", kinds, goldenKinds)
				}
			}
			if got, want := float64(u.Spent()), float64(len(goldenKinds))*0.5; got != want {
				t.Fatalf("spent %v, want %v", got, want)
			}
			got := e.storeBytes()
			for _, name := range sortedNames(got) {
				sum := sha256.Sum256(got[name])
				hash := hex.EncodeToString(sum[:])
				if want, ok := goldenArtifacts[name]; !ok {
					t.Errorf("unexpected artifact %s", name)
				} else if hash != want {
					t.Errorf("artifact %s: sha256 %s, want %s", name, hash, want)
				}
			}
			if len(got) != len(goldenArtifacts) {
				t.Errorf("wrote %d artifacts, want %d", len(got), len(goldenArtifacts))
			}
			if d, err := u.Advance(); err != nil || d.Published {
				t.Fatalf("advance after the run republished: %+v err %v", d, err)
			}
		})
	}
}
