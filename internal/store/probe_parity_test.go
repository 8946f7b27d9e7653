package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bdi/internal/rdf"
)

// parityGraphs are the graphs of the parity store; the default graph is one
// of them, and "http://par/absent" never holds a quad.
var parityGraphs = []rdf.IRI{"", "http://par/g0", "http://par/g1", "http://par/g2", "http://par/absent"}

// parityQuads draws n quads whose subjects, predicates and objects come from
// small pools shared by every graph, so each union bucket mixes graphs.
func parityQuads(rng *rand.Rand, n int) []rdf.Quad {
	nodes := make([]rdf.Term, 9)
	for i := range nodes {
		nodes[i] = rdf.IRI(fmt.Sprintf("http://par/n%d", i))
	}
	nodes[7] = rdf.NewBlankNode("b7")
	nodes[8] = rdf.NewBlankNode("b8")
	preds := []rdf.Term{rdf.IRI("http://par/p0"), rdf.IRI("http://par/p1"), rdf.IRI("http://par/p2"), rdf.RDFType}
	quads := make([]rdf.Quad, n)
	for i := range quads {
		var obj rdf.Term = nodes[rng.Intn(len(nodes))]
		if rng.Intn(4) == 0 {
			obj = rdf.NewLiteral(fmt.Sprintf("v%d", rng.Intn(5)))
		}
		quads[i] = rdf.Quad{
			Triple: rdf.NewTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], obj),
			Graph:  parityGraphs[rng.Intn(len(parityGraphs)-1)],
		}
	}
	return quads
}

// checkProbeParity asserts that every graph × subject/predicate/object
// pattern shape, over the terms of sampled quads, answers exactly the full
// scan filtered by hand, in the same order — through Match, and through
// MatchWithIDs down to each quad's dictionary encoding — and that Contains
// agrees on every sampled quad.
func checkProbeParity(t *testing.T, label string, sn Snapshot, samples []rdf.Quad) {
	t.Helper()
	all := sn.Quads()
	unseen := rdf.IRI("http://par/unseen")
	for si, q := range samples {
		for _, g := range append(parityGraphs, unseen) {
			for _, scoped := range []bool{false, true} {
				if !scoped && g != "" {
					continue
				}
				for shape := 0; shape < 8; shape++ {
					p := Pattern{Graph: g, GraphSet: scoped}
					if shape&1 != 0 {
						p.Subject = q.Subject
					}
					if shape&2 != 0 {
						p.Predicate = q.Predicate
					}
					if shape&4 != 0 {
						p.Object = q.Object
					}
					var want []rdf.Quad
					for _, c := range all {
						if (!scoped || c.Graph == g) &&
							(p.Subject == nil || c.Subject.Equal(p.Subject)) &&
							(p.Predicate == nil || c.Predicate.Equal(p.Predicate)) &&
							(p.Object == nil || c.Object.Equal(p.Object)) {
							want = append(want, c)
						}
					}
					where := fmt.Sprintf("%s: sample %d graph %q scoped=%v shape %03b", label, si, g, scoped, shape)
					got := sn.Match(p)
					if len(got) != len(want) {
						t.Fatalf("%s: Match = %d quads, want %d", where, len(got), len(want))
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s: Match quad %d = %v, want %v", where, i, got[i], want[i])
						}
					}
					ids := sn.MatchWithIDs(p)
					if len(ids) != len(want) {
						t.Fatalf("%s: MatchWithIDs = %d quads, want %d", where, len(ids), len(want))
					}
					for i, m := range ids {
						if wid, _ := quadID(sn.Dict(), want[i]); m.ID != wid || !m.Quad.Equal(want[i]) {
							t.Fatalf("%s: MatchWithIDs quad %d = %v %v, want %v %v", where, i, m.Quad, m.ID, want[i], wid)
						}
					}
				}
			}
			probe := rdf.Quad{Triple: q.Triple, Graph: g}
			present := false
			for _, c := range all {
				if c.Equal(probe) {
					present = true
					break
				}
			}
			if sn.Contains(probe) != present {
				t.Fatalf("%s: Contains(%v) = %v, want %v", label, probe, !present, present)
			}
		}
	}
}

// checkSortedReference asserts that every subject and object bucket, every
// graph bucket and the graph order of s's current snapshot equal a
// reference built by sorting all live entries at once.
func checkSortedReference(t *testing.T, label string, s *Store) {
	t.Helper()
	sn := s.snap.Load()
	ref := make([]eref, 0, len(s.quads))
	for _, e := range s.quads {
		ref = append(ref, e)
	}
	slices.SortFunc(ref, func(x, y eref) int { return bytes.Compare(sn.key(x), sn.key(y)) })
	if sn.size != len(ref) {
		t.Fatalf("%s: snapshot size %d, %d live quads", label, sn.size, len(ref))
	}
	var graphOrder []rdf.TermID
	byGraph := map[rdf.TermID][]eref{}
	byDim := [2]map[rdf.TermID][]eref{{}, {}}
	for _, e := range ref {
		id := sn.slot(e).id
		if len(byGraph[id.Graph]) == 0 {
			graphOrder = append(graphOrder, id.Graph)
		}
		byGraph[id.Graph] = append(byGraph[id.Graph], e)
		for d := range byDim {
			byDim[d][id.dim(d)] = append(byDim[d][id.dim(d)], e)
		}
	}
	if len(sn.graphs) != len(graphOrder) {
		t.Fatalf("%s: %d graph buckets, want %d", label, len(sn.graphs), len(graphOrder))
	}
	for i, gb := range sn.graphs {
		if gb.name != graphName(sn.dict, graphOrder[i]) {
			t.Fatalf("%s: graph %d is %q, want %q", label, i, gb.name, graphName(sn.dict, graphOrder[i]))
		}
		if pos, ok := sn.graphPos(gb.name); !ok || pos != i {
			t.Fatalf("%s: graph %q found at %d, sits at %d", label, gb.name, pos, i)
		}
		if !slices.Equal(gb.entries, byGraph[graphOrder[i]]) {
			t.Fatalf("%s: graph %q bucket differs from the sorted reference", label, gb.name)
		}
	}
	for d, ti := range []*termIndex{sn.bySubject, sn.byObject} {
		n := 0
		for pi, pg := range ti.pages {
			if pg == nil {
				continue
			}
			for slot, bucket := range pg {
				tid := rdf.TermID(pi<<pageBits | slot)
				if !slices.Equal(bucket, byDim[d][tid]) {
					t.Fatalf("%s: dimension %d bucket of term %d differs from the sorted reference", label, d, tid)
				}
				if len(bucket) > 0 {
					n++
				}
			}
		}
		if n != len(byDim[d]) || ti.count != n {
			t.Fatalf("%s: dimension %d holds %d buckets (count %d), want %d", label, d, n, ti.count, len(byDim[d]))
		}
	}
}

// mergeBatches returns copy-on-write batches aimed at the merge's and the
// graph insertion's edge cases, for a store already holding named (not
// default-graph) parity quads:
//   - one batch creating several graphs at once, at the front ("" and
//     "http://par/a"), the middle and the end of the name order, whose
//     quads therefore land before, between and after the entries of
//     existing union buckets;
//   - n quads of subject x in g1, the bucket the next two batches hit;
//   - n more, one between each pair of the previous ones: a batch as large
//     as the bucket, with interleaved keys;
//   - a batch before x's first entry, as a single entry and as a run
//     between two entries, and after its last entry in g1 and in g2.
func mergeBatches(rng *rand.Rand) [][]rdf.Quad {
	x := rdf.IRI("http://par/x")
	lit := func(g rdf.IRI, v int) rdf.Quad {
		return rdf.Quad{Triple: rdf.NewTriple(x, rdf.IRI("http://par/p0"), rdf.NewLiteral(fmt.Sprintf("%04d", v))), Graph: g}
	}
	newGraphs := parityQuads(rng, 24)
	for i := range newGraphs {
		newGraphs[i].Graph = []rdf.IRI{"", "http://par/a", "http://par/g0x", "http://par/z"}[i%4]
	}
	n := 8 + rng.Intn(24)
	var base, interleaved, edges []rdf.Quad
	for i := 1; i <= n; i++ {
		base = append(base, lit("http://par/g1", 10*i))
		interleaved = append(interleaved, lit("http://par/g1", 10*i+5))
	}
	k := 1 + rng.Intn(n-1)
	edges = append(edges, lit("http://par/g1", 1), lit("http://par/g1", 2), lit("http://par/g1", 10*k+7))
	for v := 10*(k+1) + 1; v <= 10*(k+1)+4; v++ {
		edges = append(edges, lit("http://par/g1", v))
	}
	edges = append(edges, lit("http://par/g1", 10*n+9), lit("http://par/g2", 1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return [][]rdf.Quad{newGraphs, base, interleaved, edges}
}

// TestProbeParityRandomized pins that every probe, served from the union
// index of its subject or object, else its graph's entry list, else the full
// scan, and filtered on the rest of the pattern, equals the filtered full
// scan in content and order: on a store built by the bulk path,
// copy-on-write batches and single adds; after a further batch and further
// single adds; and on a snapshot pinned across those writes. After every
// batch, each bucket and the graph order also equal a sort-everything
// reference, including under batches aimed at the copy-on-write merge and
// at placing several new graphs at once (see mergeBatches).
func TestProbeParityRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		quads := parityQuads(rng, 160)
		samples := append(parityQuads(rng, 4), quads[:8]...)
		label := fmt.Sprintf("seed %d", seed)
		s := New()
		if _, err := s.AddAll(quads[:80]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddAll(quads[80:140]); err != nil {
			t.Fatal(err)
		}
		checkSortedReference(t, label+" batches", s)
		for _, q := range quads[140:] {
			if _, err := s.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		checkSortedReference(t, label+" loaded", s)
		checkProbeParity(t, label+" loaded", s.Snapshot(), samples)

		pinned := s.Snapshot()
		pinnedQuads := pinned.Quads()
		more := parityQuads(rng, 80)
		if _, err := s.AddAll(more[:60]); err != nil {
			t.Fatal(err)
		}
		checkSortedReference(t, label+" after a further batch", s)
		checkProbeParity(t, label+" after a further batch", s.Snapshot(), samples)
		for _, q := range more[60:] {
			if _, err := s.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		checkSortedReference(t, label+" after further adds", s)
		checkProbeParity(t, label+" after further adds", s.Snapshot(), append(samples, more[:4]...))

		// The pinned snapshot still answers its own state.
		if got := pinned.Quads(); len(got) != len(pinnedQuads) {
			t.Fatalf("%s: pinned snapshot holds %d quads, had %d", label, len(got), len(pinnedQuads))
		}
		checkProbeParity(t, label+" pinned", pinned, samples)

		// A store without a default graph, so a new graph can also land at
		// the front of the name order.
		m := New()
		var named []rdf.Quad
		for _, q := range quads {
			if q.Graph != "" {
				named = append(named, q)
			}
		}
		if _, err := m.AddAll(named[:len(named)/2]); err != nil {
			t.Fatal(err)
		}
		for bi, batch := range append(mergeBatches(rng), named[len(named)/2:]) {
			if _, err := m.AddAll(batch); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s merge batch %d", label, bi)
			checkSortedReference(t, where, m)
			checkProbeParity(t, where, m.Snapshot(), samples)
		}
	}
}
