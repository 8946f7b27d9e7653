package rdf

import (
	"testing"
	"testing/quick"
)

func exampleTriples() []Triple {
	return []Triple{
		T("http://ex/app", "http://ex/hasMonitor", "http://ex/monitor"),
		T("http://ex/monitor", "http://ex/generatesQoS", "http://ex/info"),
		NewTriple(IRI("http://ex/info"), IRI("http://ex/hasFeature"), IRI("http://ex/lagRatio")),
	}
}

func TestTripleValidate(t *testing.T) {
	valid := T("http://ex/s", "http://ex/p", "http://ex/o")
	if err := valid.Validate(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	cases := []Triple{
		{Subject: nil, Predicate: IRI("p"), Object: IRI("o")},
		{Subject: NewLiteral("s"), Predicate: IRI("p"), Object: IRI("o")},
		{Subject: IRI("s"), Predicate: NewBlankNode("p"), Object: IRI("o")},
		{Subject: IRI("s"), Predicate: IRI("p"), Object: NewVariable("o")},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid triple accepted: %v", i, c)
		}
	}
}

func TestTripleIsGroundAndEqual(t *testing.T) {
	g := T("http://ex/s", "http://ex/p", "http://ex/o")
	v := NewTriple(NewVariable("s"), IRI("http://ex/p"), IRI("http://ex/o"))
	if !g.Equal(T("http://ex/s", "http://ex/p", "http://ex/o")) {
		t.Error("identical triples should be equal")
	}
	if g.Equal(v) {
		t.Error("different triples should not be equal")
	}
}

func TestQuadString(t *testing.T) {
	q := Q("http://ex/s", "http://ex/p", "http://ex/o", "http://ex/g")
	if q.String() == q.Triple.String() {
		t.Error("named-graph quad should serialize differently from its triple")
	}
	dq := Quad{Triple: T("http://ex/s", "http://ex/p", "http://ex/o")}
	if dq.String() != dq.Triple.String() {
		t.Error("default-graph quad should serialize as a triple")
	}
}

func TestGraphAddDeduplicates(t *testing.T) {
	g := NewGraph("http://ex/g")
	tr := T("http://ex/s", "http://ex/p", "http://ex/o")
	g.Add(tr, tr, tr)
	if g.Len() != 1 {
		t.Errorf("expected 1 triple after duplicates, got %d", g.Len())
	}
	if !g.Contains(tr) {
		t.Error("graph should contain added triple")
	}
	clone := g.Clone()
	clone.Add(T("http://ex/x", "http://ex/y", "http://ex/z"))
	if g.Len() != 1 || clone.Len() != 2 {
		t.Errorf("clone is not independent: original %d, clone %d triples", g.Len(), clone.Len())
	}
}

func TestGraphNodeAccessors(t *testing.T) {
	g := NewGraph("")
	g.Add(exampleTriples()...)
	if !g.ContainsNode(IRI("http://ex/lagRatio")) {
		t.Error("lagRatio should be a node")
	}
	if g.ContainsNode(IRI("http://ex/absent")) {
		t.Error("absent node reported present")
	}
}

func TestGraphIsConnected(t *testing.T) {
	g := NewGraph("")
	g.Add(exampleTriples()...)
	if !g.IsConnected() {
		t.Error("chain graph should be connected")
	}
	g.Add(T("http://ex/isolated1", "http://ex/p", "http://ex/isolated2"))
	if g.IsConnected() {
		t.Error("graph with an isolated component should not be connected")
	}
	empty := NewGraph("")
	if !empty.IsConnected() {
		t.Error("empty graph is trivially connected")
	}
}

func TestGraphTopologicalSort(t *testing.T) {
	g := NewGraph("")
	g.Add(exampleTriples()...)
	order, ok := g.TopologicalSort()
	if !ok {
		t.Fatal("acyclic graph should have a topological sort")
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[TermKey(n)] = i
	}
	if pos[TermKey(IRI("http://ex/app"))] > pos[TermKey(IRI("http://ex/monitor"))] {
		t.Error("app should come before monitor")
	}
	// Add a cycle.
	g.Add(T("http://ex/lagRatio", "http://ex/back", "http://ex/app"))
	if _, ok := g.TopologicalSort(); ok {
		t.Error("cyclic graph should not have a topological sort")
	}
}

func TestGraphStringDeterministic(t *testing.T) {
	g1 := NewGraph("")
	g1.Add(exampleTriples()...)
	g2 := NewGraph("")
	ts := exampleTriples()
	for i := len(ts) - 1; i >= 0; i-- {
		g2.Add(ts[i])
	}
	if g1.String() != g2.String() {
		t.Error("graph String should be order-insensitive")
	}
}

func TestGraphSubsumesProperty(t *testing.T) {
	// Property: any graph subsumes every graph constructed from a subset of
	// its triples.
	f := func(picks []bool) bool {
		full := NewGraph("")
		full.Add(exampleTriples()...)
		sub := NewGraph("")
		for i, take := range picks {
			if take && i < len(exampleTriples()) {
				sub.Add(exampleTriples()[i])
			}
		}
		return full.Subsumes(sub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
