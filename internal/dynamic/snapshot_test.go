package dynamic

import (
	"slices"
	"testing"

	"socialrec/internal/graph"
	"socialrec/internal/wal"
)

// mapState is the reference model of graphState: per-user edge sets frozen
// through the map-deduplicating graph builders.
type mapState struct {
	items  int
	social []map[int32]struct{}
	prefs  []map[int32]struct{}
}

// apply mirrors graphState.apply's validation and effect; it reports
// whether the record is valid.
func (m *mapState) apply(rec wal.Record) bool {
	users := int64(len(m.social))
	switch rec.Op {
	case wal.OpAddUser:
		if rec.A != users {
			return false
		}
		m.social = append(m.social, map[int32]struct{}{})
		m.prefs = append(m.prefs, map[int32]struct{}{})
	case wal.OpAddItem:
		if rec.A != int64(m.items) {
			return false
		}
		m.items++
	case wal.OpAddSocial, wal.OpDelSocial:
		a, b := rec.A, rec.B
		if a < 0 || b < 0 || a >= users || b >= users || a == b {
			return false
		}
		if rec.Op == wal.OpAddSocial {
			m.social[a][int32(b)] = struct{}{}
			m.social[b][int32(a)] = struct{}{}
		} else {
			delete(m.social[a], int32(b))
			delete(m.social[b], int32(a))
		}
	case wal.OpAddPref, wal.OpDelPref:
		a, b := rec.A, rec.B
		if a < 0 || b < 0 || a >= users || b >= int64(m.items) {
			return false
		}
		if rec.Op == wal.OpAddPref {
			m.prefs[a][int32(b)] = struct{}{}
		} else {
			delete(m.prefs[a], int32(b))
		}
	default:
		return false
	}
	return true
}

func (m *mapState) build(t *testing.T) (*graph.Social, *graph.Preference) {
	t.Helper()
	n := len(m.social)
	sb := graph.NewSocialBuilder(n)
	pb := graph.NewPreferenceBuilder(n, m.items)
	for u := 0; u < n; u++ {
		for v := range m.social[u] {
			if err := sb.AddEdge(u, int(v)); err != nil {
				t.Fatal(err)
			}
		}
		for it := range m.prefs[u] {
			if err := pb.AddEdge(u, int(it)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.Build(), pb.Build()
}

// sameGraphs fails unless both graphs agree row for row, on both sides of
// the preference graph.
func sameGraphs(t *testing.T, step int, gs *graph.Social, gp *graph.Preference, ws *graph.Social, wp *graph.Preference) {
	t.Helper()
	if gs.NumUsers() != ws.NumUsers() || gs.NumEdges() != ws.NumEdges() ||
		gp.NumUsers() != wp.NumUsers() || gp.NumItems() != wp.NumItems() || gp.NumEdges() != wp.NumEdges() {
		t.Fatalf("step %d: shapes social (%d, %d) prefs (%d, %d, %d), want (%d, %d) (%d, %d, %d)", step,
			gs.NumUsers(), gs.NumEdges(), gp.NumUsers(), gp.NumItems(), gp.NumEdges(),
			ws.NumUsers(), ws.NumEdges(), wp.NumUsers(), wp.NumItems(), wp.NumEdges())
	}
	for u := 0; u < ws.NumUsers(); u++ {
		if !slices.Equal(gs.Neighbors(u), ws.Neighbors(u)) {
			t.Fatalf("step %d: Neighbors(%d) = %v, want %v", step, u, gs.Neighbors(u), ws.Neighbors(u))
		}
		if !slices.Equal(gp.Items(u), wp.Items(u)) {
			t.Fatalf("step %d: Items(%d) = %v, want %v", step, u, gp.Items(u), wp.Items(u))
		}
	}
	for i := 0; i < wp.NumItems(); i++ {
		if !slices.Equal(gp.Users(i), wp.Users(i)) {
			t.Fatalf("step %d: Users(%d) = %v, want %v", step, i, gp.Users(i), wp.Users(i))
		}
	}
}

// decodeOp turns three fuzz bytes into a WAL record against a population
// of the given size. Operands range one past the population so that
// out-of-range and non-dense records occur, and small populations make
// duplicate adds and deletes of absent edges common.
func decodeOp(seq uint64, raw []byte, users, items int) wal.Record {
	rec := wal.Record{Seq: seq, Op: wal.Op(raw[0]%6) + wal.OpAddUser}
	switch rec.Op {
	case wal.OpAddUser, wal.OpAddItem:
		rec.A = int64(users)
		if rec.Op == wal.OpAddItem {
			rec.A = int64(items)
		}
		if raw[1]%16 == 15 {
			rec.A++ // non-dense
		}
	case wal.OpAddSocial, wal.OpDelSocial:
		rec.A, rec.B = int64(raw[1])%int64(users+1), int64(raw[2])%int64(users+1)
	default:
		rec.A, rec.B = int64(raw[1])%int64(users+1), int64(raw[2])%int64(items+1)
	}
	return rec
}

// opBytes encodes seed-corpus records: op, a, b per record.
func opBytes(head byte, ops ...[3]byte) []byte {
	out := []byte{head}
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzUpdaterSnapshot decodes bytes into WAL records and checks, after
// every record, that graphState's sorted-row snapshot equals what the
// map-deduplicating builders produce from the same state. The first byte
// splits the records into a base snapshot (loaded through newGraphState,
// with or without its preference graph) and the WAL replayed on top.
func FuzzUpdaterSnapshot(f *testing.F) {
	const (
		addUser, addItem, addSocial, delSocial, addPref, delPref = 0, 1, 2, 3, 4, 5
	)
	f.Add([]byte{})
	f.Add(opBytes(0,
		[3]byte{addUser}, [3]byte{addUser}, [3]byte{addUser}, [3]byte{addItem}, [3]byte{addItem},
		[3]byte{addSocial, 0, 1}, [3]byte{addSocial, 1, 0}, [3]byte{addSocial, 2, 1},
		[3]byte{addPref, 0, 1}, [3]byte{addPref, 0, 1}, [3]byte{addPref, 2, 0},
		[3]byte{delSocial, 0, 2}, [3]byte{delPref, 1, 1}, [3]byte{delSocial, 1, 0},
		[3]byte{addSocial, 1, 1}, [3]byte{addPref, 3, 0}, [3]byte{addUser, 15}))
	f.Add(opBytes(6,
		[3]byte{addUser}, [3]byte{addUser}, [3]byte{addUser}, [3]byte{addItem}, [3]byte{addSocial, 0, 2},
		[3]byte{addPref, 1, 0},
		[3]byte{addSocial, 0, 1}, [3]byte{addPref, 1, 0}, [3]byte{delPref, 1, 0}, [3]byte{addPref, 1, 0},
		[3]byte{addUser}, [3]byte{addSocial, 3, 0}, [3]byte{addSocial, 3, 2}, [3]byte{addItem, 15},
		[3]byte{addItem}, [3]byte{addPref, 3, 1}, [3]byte{addPref, 0, 1}))
	f.Add(opBytes(0x80|4,
		[3]byte{addUser}, [3]byte{addUser}, [3]byte{addItem}, [3]byte{addSocial, 0, 1},
		[3]byte{addPref, 0, 0}, [3]byte{delSocial, 0, 1}, [3]byte{addSocial, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head, data := data[0], data[1:]
		ops := min(len(data)/3, 256)
		baseOps := min(int(head&0x7f), ops)

		var ref mapState
		seq := uint64(0)
		for ; int(seq) < baseOps; seq++ {
			raw := data[3*seq:]
			ref.apply(decodeOp(seq+1, raw, len(ref.social), ref.items))
		}
		var st *graphState
		var err error
		if baseOps == 0 {
			st, err = newGraphState(nil, nil)
		} else {
			if head&0x80 != 0 {
				// A base without its preference graph starts with no
				// items and no preference edges.
				ref.items = 0
				for u := range ref.prefs {
					ref.prefs[u] = map[int32]struct{}{}
				}
			}
			bs, bp := ref.build(t)
			if head&0x80 != 0 {
				bp = nil
			}
			st, err = newGraphState(bs, bp)
		}
		if err != nil {
			t.Fatal(err)
		}

		var first struct {
			gs, ws *graph.Social
			gp, wp *graph.Preference
		}
		for ; ; seq++ {
			gs, gp, err := st.snapshot()
			if err != nil {
				t.Fatalf("step %d: snapshot: %v", seq, err)
			}
			ws, wp := ref.build(t)
			sameGraphs(t, int(seq), gs, gp, ws, wp)
			if first.gs == nil {
				first.gs, first.gp, first.ws, first.wp = gs, gp, ws, wp
			}
			if int(seq) == ops {
				break
			}
			rec := decodeOp(seq+1, data[3*seq:], len(ref.social), ref.items)
			valid := ref.apply(rec)
			if _, err := st.apply(rec); (err == nil) != valid {
				t.Fatalf("step %d: apply(%v) error %v, reference valid %v", seq, rec, err, valid)
			}
		}
		// A snapshot owns its storage: later records leave it unchanged.
		sameGraphs(t, -1, first.gs, first.gp, first.ws, first.wp)
	})
}
