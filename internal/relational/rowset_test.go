package relational

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// dedupWalk is one walk's rows as Union.Execute hands them to the dedup: n
// rows of width cells in the walk's layout, and per union column the walk
// position that feeds it (-1: the walk lacks the column).
type dedupWalk struct {
	cells    []ValueID
	n, width int
	src      []int32
}

// stringKeyDedup is the dedup the set replaced: a map keyed on the
// big-endian encoding of each row's cellJoinIDs, first occurrence kept, up to
// limit > 0 rows.
func stringKeyDedup(walks []dedupWalk, limit int) [][]ValueID {
	seen := map[string]bool{}
	var out [][]ValueID
	for _, w := range walks {
		key := make([]byte, 4*len(w.src))
		for r := 0; r < w.n; r++ {
			row := w.cells[r*w.width : (r+1)*w.width]
			for fc, sc := range w.src {
				binary.BigEndian.PutUint32(key[fc*4:], uint32(cellJoinID(row, sc)))
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			u := make([]ValueID, len(w.src))
			toUnion(u, row, w.src)
			if out = append(out, u); limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// setDedup runs the walks through a rowSet as Union.Execute does, stopping
// at the walk that brings it to limit.
func setDedup(walks []dedupWalk, limit int) *rowSet {
	var s rowSet
	for _, w := range walks {
		if s.add(w.cells, w.n, w.width, w.src, limit) {
			break
		}
	}
	return &s
}

// randomDedupWalks draws walks feeding finalW union columns whose cells come
// from IDs below alphabet, MissingValueID and NilValueID among them, each
// walk lacking some columns.
func randomDedupWalks(rng *rand.Rand, finalW, walks, rows int, alphabet ValueID) []dedupWalk {
	out := make([]dedupWalk, walks)
	for i := range out {
		w := &out[i]
		w.width, w.n = 1+rng.Intn(4), rng.Intn(rows+1)
		w.src = make([]int32, finalW)
		for fc := range w.src {
			w.src[fc] = int32(rng.Intn(w.width+1)) - 1
		}
		w.cells = make([]ValueID, w.n*w.width)
		for c := range w.cells {
			w.cells[c] = ValueID(rng.Intn(int(alphabet)))
		}
	}
	return out
}

// TestRowSetMatchesStringKeys holds the union's dedup set to the string-key
// dedup it replaced on random walk rows: the same rows, in the same order,
// with the first occurrence's cells (a missing cell and nil compare equal
// and the first kept stays), and every limit prefix of them. It covers
// probe collisions in the first 64-slot table and growth past 10k rows.
func TestRowSetMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	check := func(name string, walks []dedupWalk) *rowSet {
		t.Helper()
		want := stringKeyDedup(walks, 0)
		s := setDedup(walks, 0)
		if !slices.EqualFunc(s.rows, want, slices.Equal) {
			t.Fatalf("%s: set kept %d rows %v, string keys %d rows %v", name, len(s.rows), s.rows, len(want), want)
		}
		for _, limit := range []int{1, 2, 3, len(want) / 2, len(want) - 1, len(want), len(want) + 1} {
			if limit <= 0 {
				continue
			}
			got := setDedup(walks, limit).rows
			if !slices.EqualFunc(got, want[:min(limit, len(want))], slices.Equal) {
				t.Fatalf("%s: limit %d kept %v, want the prefix %v", name, limit, got, want[:min(limit, len(want))])
			}
		}
		return s
	}
	for c := 0; c < 300; c++ {
		finalW := rng.Intn(5)
		check("random", randomDedupWalks(rng, finalW, 1+rng.Intn(6), 40, ValueID(2+rng.Intn(6))))
	}

	// Two columns whose rows share home slots in the first 64-slot table,
	// the last slot among them, so that rows probe past each other and wrap
	// around; each row comes twice, the second time with nil for missing.
	empty := rowSet{slots: make([]uint32, minRowSetSlots)}
	byHome := map[int][]ValueID{}
	for a := ValueID(2); a < 200; a++ {
		for b := ValueID(2); b < 200; b++ {
			if h := empty.find([]ValueID{a, b}); h == 5 || h == minRowSetSlots-1 {
				byHome[h] = append(byHome[h], a, b)
			}
		}
	}
	walks := []dedupWalk{{width: 2, src: []int32{0, 1}}, {width: 3, src: []int32{0, 2}}}
	for _, h := range []int{5, minRowSetSlots - 1} {
		cells := byHome[h][:2*12]
		walks[0].cells = append(walks[0].cells, cells...)
		for i := 0; i < len(cells); i += 2 {
			walks[1].cells = append(walks[1].cells, cells[i], MissingValueID, cells[i+1])
		}
	}
	walks[0].n, walks[1].n = len(walks[0].cells)/2, len(walks[1].cells)/3
	if s := check("collisions", walks); len(s.slots) != minRowSetSlots || len(s.rows) != 24 {
		t.Fatalf("collision case kept %d rows in %d slots, want 24 in %d", len(s.rows), len(s.slots), minRowSetSlots)
	}

	// Growth: a walk with all three columns, then walks lacking some.
	walks = randomDedupWalks(rng, 3, 4, 8000, 40)
	walks[0] = dedupWalk{width: 3, n: 16000, src: []int32{2, 0, 1}, cells: make([]ValueID, 3*16000)}
	for c := range walks[0].cells {
		walks[0].cells[c] = ValueID(rng.Intn(40))
	}
	s := check("growth", walks)
	if len(s.rows) <= 10000 {
		t.Fatalf("growth case kept %d rows, want more than 10k", len(s.rows))
	}
}

// TestRowSetAllocations checks that n distinct rows cost the set O(log n)
// table and row-list allocations plus one row arena per CheckEvery rows, not
// one allocation per row as a string key did, and that the table doubles
// just in time to stay at most half full.
func TestRowSetAllocations(t *testing.T) {
	const n = 1 << 14
	w := dedupWalk{width: 2, n: n, src: []int32{1, -1, 0}}
	for r := 0; r < n; r++ {
		w.cells = append(w.cells, ValueID(2+r%97), ValueID(2+r/97))
	}
	var s *rowSet
	allocs := testing.AllocsPerRun(5, func() { s = setDedup([]dedupWalk{w}, 0) })
	if len(s.rows) != n {
		t.Fatalf("kept %d rows, want %d", len(s.rows), n)
	}
	logN := bits.Len(n)
	if ceiling := float64(n/512 + 1 + 3*logN); allocs > ceiling {
		t.Fatalf("%d distinct rows cost %.0f allocations, ceiling %.0f", n, allocs, ceiling)
	}
	t.Logf("%d distinct rows: %.0f allocations", n, allocs)

	// Row by row, the table is never over half full nor grown past that.
	var inc rowSet
	for r := 0; r < n; r++ {
		inc.add(w.cells[2*r:2*r+2], 1, 2, w.src, 0)
		if len(inc.slots) < 2*len(inc.rows) || len(inc.slots) > max(minRowSetSlots, 4*len(inc.rows)) {
			t.Fatalf("%d rows in %d slots", len(inc.rows), len(inc.slots))
		}
	}
}
