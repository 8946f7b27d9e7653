package store

import (
	"fmt"
	"math/rand"
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
// scan filtered by hand, in the same order — through Match, MatchIDs and
// Count — and that Contains agrees on every sampled quad.
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
					if n := sn.Count(p); n != len(want) {
						t.Fatalf("%s: Count = %d, want %d", where, n, len(want))
					}
					ip, ok := idPattern(sn.Dict(), p)
					if !ok {
						if len(want) != 0 {
							t.Fatalf("%s: pattern has un-interned terms but %d matches", where, len(want))
						}
						continue
					}
					ids := sn.MatchIDs(ip)
					if len(ids) != len(want) {
						t.Fatalf("%s: MatchIDs = %d ids, want %d", where, len(ids), len(want))
					}
					for i, id := range ids {
						if wid, _ := quadID(sn.Dict(), want[i]); id != wid {
							t.Fatalf("%s: MatchIDs id %d = %v, want %v", where, i, id, wid)
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

// TestProbeParityRandomized pins that a graph-scoped probe, served from the
// union index of its subject, object or predicate and filtered on the graph,
// equals the filtered full scan in content and order: on a store built by
// the bulk path, copy-on-write batches and single adds; after Remove and
// RemoveGraph; and on a snapshot pinned across those writes.
func TestProbeParityRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		quads := parityQuads(rng, 160)
		samples := append(parityQuads(rng, 4), quads[:8]...)
		s := New()
		if _, err := s.AddAll(quads[:80]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddAll(quads[80:140]); err != nil {
			t.Fatal(err)
		}
		for _, q := range quads[140:] {
			if _, err := s.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("seed %d", seed)
		checkProbeParity(t, label+" loaded", s.Snapshot(), samples)

		pinned := s.Snapshot()
		pinnedQuads := pinned.Quads()
		for i := 0; i < len(quads); i += 5 {
			s.Remove(quads[i])
		}
		checkProbeParity(t, label+" after Remove", s.Snapshot(), samples)
		s.RemoveGraph("http://par/g1")
		if n := s.GraphLen("http://par/g1"); n != 0 {
			t.Fatalf("%s: g1 holds %d quads after RemoveGraph", label, n)
		}
		checkProbeParity(t, label+" after RemoveGraph", s.Snapshot(), samples)

		// The pinned snapshot still answers its own state.
		if got := pinned.Quads(); len(got) != len(pinnedQuads) {
			t.Fatalf("%s: pinned snapshot holds %d quads, had %d", label, len(got), len(pinnedQuads))
		}
		checkProbeParity(t, label+" pinned", pinned, samples)
	}
}
