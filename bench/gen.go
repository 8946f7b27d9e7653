package main

import (
	"fmt"
	"math/rand"
	"strings"

	"bdi/internal/core"
	"bdi/internal/mdm"
	"bdi/internal/rdf"
)

// The generator turns a seed into ontologies, release bodies and SPARQL
// text. The program under test only ever sees what is generated here; sizes
// come from the scale and never from the seed, so two seeds give runs of
// equal cost over different bytes.

// chainSet is a family of disjoint chains of concepts (the Figure 8 shape,
// many times over): concept i of chain k has one identifier, `values`
// value features and an edge to concept i+1.
type chainSet struct {
	ns       string // namespace of every IRI of the family
	tag      string // prefix of attribute, wrapper and source names
	chains   int
	concepts int
	values   int
}

func (c chainSet) concept(k, i int) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("%s%sK%dC%d", c.ns, c.tag, k, i))
}
func (c chainSet) edge(k, i int) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("%s%sk%dc%d_next", c.ns, c.tag, k, i))
}
func (c chainSet) idAttr(k, i int) string { return fmt.Sprintf("%sk%dc%d_id", c.tag, k, i) }
func (c chainSet) valueAttr(k, i, v int) string {
	return fmt.Sprintf("%sk%dc%d_v%d", c.tag, k, i, v)
}
func (c chainSet) idFeature(k, i int) rdf.IRI { return rdf.IRI(c.ns + c.idAttr(k, i)) }
func (c chainSet) valueFeature(k, i, v int) rdf.IRI {
	return rdf.IRI(c.ns + c.valueAttr(k, i, v))
}
func (c chainSet) source(k, i, w int) string { return fmt.Sprintf("S_%sk%dc%d_%d", c.tag, k, i, w) }
func (c chainSet) wrapper(k, i, w, version int) string {
	return fmt.Sprintf("w_%sk%dc%d_%d_v%d", c.tag, k, i, w, version)
}

// design adds the family to the Global graph. G has no HTTP endpoint, so
// this is the one part of set-up that goes through the Go API on every
// workload.
func (c chainSet) design(o *core.Ontology) error {
	for k := range c.chains {
		for i := range c.concepts {
			if err := o.AddConcept(c.concept(k, i)); err != nil {
				return err
			}
			if err := o.AddIdentifier(c.concept(k, i), c.idFeature(k, i), rdf.XSDInteger); err != nil {
				return err
			}
			for v := range c.values {
				if err := o.AddFeatureTo(c.concept(k, i), c.valueFeature(k, i, v), rdf.XSDDouble); err != nil {
					return err
				}
			}
		}
		for i := 0; i+1 < c.concepts; i++ {
			if err := o.Relate(c.concept(k, i), c.edge(k, i), c.concept(k, i+1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// release is the body of a release of wrapper number w, at the given
// version, for concept i of chain k. It has the shape of the Figure 8
// wrappers: the concept's identifier and values and, when the chain goes
// on, the edge and the next concept's identifier. rows, when not nil, are
// the sample tuples that make the wrapper executable.
func (c chainSet) release(k, i, w, version int, rows [][]float64) mdm.ReleaseRequest {
	hasFeature := string(core.GHasFeature)
	req := mdm.ReleaseRequest{
		Wrapper:      c.wrapper(k, i, w, version),
		Source:       c.source(k, i, w),
		IDAttributes: []string{c.idAttr(k, i)},
		Subgraph:     [][3]string{{string(c.concept(k, i)), hasFeature, string(c.idFeature(k, i))}},
		Mappings:     map[string]string{c.idAttr(k, i): string(c.idFeature(k, i))},
	}
	for v := range c.values {
		req.NonIDAttributes = append(req.NonIDAttributes, c.valueAttr(k, i, v))
		req.Subgraph = append(req.Subgraph, [3]string{string(c.concept(k, i)), hasFeature, string(c.valueFeature(k, i, v))})
		req.Mappings[c.valueAttr(k, i, v)] = string(c.valueFeature(k, i, v))
	}
	last := i+1 == c.concepts
	if !last {
		req.IDAttributes = append(req.IDAttributes, c.idAttr(k, i+1))
		req.Subgraph = append(req.Subgraph,
			[3]string{string(c.concept(k, i)), string(c.edge(k, i)), string(c.concept(k, i+1))},
			[3]string{string(c.concept(k, i+1)), hasFeature, string(c.idFeature(k, i+1))})
		req.Mappings[c.idAttr(k, i+1)] = string(c.idFeature(k, i+1))
	}
	for id, vals := range rows {
		t := map[string]any{c.idAttr(k, i): id}
		if !last {
			t[c.idAttr(k, i+1)] = id
		}
		for v, x := range vals {
			t[c.valueAttr(k, i, v)] = x
		}
		req.SampleTuples = append(req.SampleTuples, t)
	}
	return req
}

// query is the OMQ over chain k that projects the value features selected
// by the bits of mask on every concept of the chain.
func (c chainSet) query(k int, mask uint, rng *rand.Rand) string {
	var pi []rdf.IRI
	var pattern []rdf.Triple
	for i := range c.concepts {
		for v := range c.values {
			if mask&(1<<v) != 0 {
				pi = append(pi, c.valueFeature(k, i, v))
				pattern = append(pattern, rdf.T(c.concept(k, i), core.GHasFeature, c.valueFeature(k, i, v)))
			}
		}
		if i+1 < c.concepts {
			pattern = append(pattern, rdf.T(c.concept(k, i), c.edge(k, i), c.concept(k, i+1)))
		}
	}
	return sparqlText(pi, pattern, rng)
}

// sparqlText renders an OMQ in the restricted template of the paper's Code
// 3, with full IRIs. The seed decides the order of the triple patterns, as
// the order in which an analyst writes them is arbitrary; the projection
// order, which fixes the answer's columns, is kept.
func sparqlText(pi []rdf.IRI, pattern []rdf.Triple, rng *rand.Rand) string {
	pattern = append([]rdf.Triple(nil), pattern...)
	rng.Shuffle(len(pattern), func(a, b int) { pattern[a], pattern[b] = pattern[b], pattern[a] })
	var vars, vals, where strings.Builder
	for i, p := range pi {
		fmt.Fprintf(&vars, " ?v%d", i)
		fmt.Fprintf(&vals, " <%s>", string(p))
	}
	for _, t := range pattern {
		fmt.Fprintf(&where, "  <%s> <%s> <%s> .\n", string(t.Subject.(rdf.IRI)), string(t.Predicate.(rdf.IRI)), string(t.Object.(rdf.IRI)))
	}
	return fmt.Sprintf("SELECT%s\nWHERE {\n  VALUES (%s ) { (%s ) }\n%s}\n", vars.String(), vars.String(), vals.String(), where.String())
}

// sampleRows draws, for every concept of every chain, n rows of values.
// Every version of a source serves the same rows, so the answer to a chain
// query has n rows however many versions have been released.
func (c chainSet) sampleRows(n int, rng *rand.Rand) [][][][]float64 {
	out := make([][][][]float64, c.chains)
	for k := range out {
		out[k] = make([][][]float64, c.concepts)
		for i := range out[k] {
			out[k][i] = make([][]float64, n)
			for r := range out[k][i] {
				out[k][i][r] = make([]float64, c.values)
				for v := range out[k][i][r] {
					out[k][i][r][v] = float64(rng.Intn(100000)) / 100
				}
			}
		}
	}
	return out
}

// toRelease is what POST /api/releases makes of a body, for the set-ups and
// twins that call Ontology.NewRelease without the server.
func toRelease(req mdm.ReleaseRequest) core.Release {
	g := rdf.NewGraph("")
	for _, t := range req.Subgraph {
		g.Add(rdf.T(rdf.IRI(t[0]), rdf.IRI(t[1]), rdf.IRI(t[2])))
	}
	f := make(map[string]rdf.IRI, len(req.Mappings))
	for attr, feature := range req.Mappings {
		f[attr] = rdf.IRI(feature)
	}
	return core.Release{
		Wrapper: core.WrapperSpec{
			Name:            req.Wrapper,
			Source:          req.Source,
			IDAttributes:    req.IDAttributes,
			NonIDAttributes: req.NonIDAttributes,
		},
		Subgraph: g,
		F:        f,
	}
}
