// Package steward implements the semi-automatic aids the paper proposes for
// the data steward when defining a release (§4.1): suggesting the
// attribute-to-feature function F by aligning attribute names with feature
// names (a lightweight stand-in for PARIS-style probabilistic alignment),
// and suggesting the LAV mapping subgraph of G that covers a set of
// features. It also validates wrapper data against the feature datatypes
// declared in G (G:hasDatatype), supporting the data-integrity use the paper
// mentions for datatype annotations (§3.1).
package steward

import (
	"context"
	"sort"
	"strings"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

// MappingSuggestion proposes a feature for one wrapper attribute.
type MappingSuggestion struct {
	Attribute string
	Feature   rdf.IRI
	// Confidence is a similarity score in [0, 1]; 1 means an exact
	// (normalized) name match.
	Confidence float64
	// Alternatives lists other candidate features in decreasing confidence.
	Alternatives []rdf.IRI
}

// SuggestMappings proposes, for each wrapper attribute, the most similar
// feature of the Global graph as of the view's generation. Suggestions below
// minConfidence are omitted (the steward must map those by hand). The
// result is sorted by attribute.
func SuggestMappings(v *core.View, attributes []string, minConfidence float64) []MappingSuggestion {
	features := v.Features()
	var out []MappingSuggestion
	for _, attr := range attributes {
		type scored struct {
			feature rdf.IRI
			score   float64
		}
		var candidates []scored
		for _, f := range features {
			candidates = append(candidates, scored{f, NameSimilarity(attr, f.LocalName())})
		}
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].score != candidates[j].score {
				return candidates[i].score > candidates[j].score
			}
			return candidates[i].feature < candidates[j].feature
		})
		if len(candidates) == 0 || candidates[0].score < minConfidence {
			continue
		}
		suggestion := MappingSuggestion{
			Attribute:  attr,
			Feature:    candidates[0].feature,
			Confidence: candidates[0].score,
		}
		for _, c := range candidates[1:] {
			if c.score >= minConfidence && len(suggestion.Alternatives) < 3 {
				suggestion.Alternatives = append(suggestion.Alternatives, c.feature)
			}
		}
		out = append(out, suggestion)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attribute < out[j].Attribute })
	return out
}

// NameSimilarity scores how similar an attribute name and a feature local
// name are, in [0, 1]. It combines exact/containment matches on normalized
// names with a token-overlap (Jaccard) score over camelCase / snake_case
// tokens, which is robust to the renamings observed in real APIs
// (waitTime -> bufferingTime, monitorId -> VoDmonitorId, ...).
func NameSimilarity(a, b string) float64 {
	na, nb := normalizeName(a), normalizeName(b)
	if na == nb && na != "" {
		return 1
	}
	if na != "" && nb != "" && (strings.Contains(na, nb) || strings.Contains(nb, na)) {
		shorter, longer := float64(len(na)), float64(len(nb))
		if shorter > longer {
			shorter, longer = longer, shorter
		}
		return 0.7 + 0.3*shorter/longer
	}
	ta, tb := tokens(a), tokens(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	set := map[string]bool{}
	for _, t := range ta {
		set[t] = true
	}
	union := len(set)
	for _, t := range tb {
		if set[t] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

func normalizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || r == '-' || r == '/' || r == ' ' {
			continue
		}
		b.WriteRune(r)
	}
	return strings.ToLower(b.String())
}

// tokens splits a name into lowercase tokens on case changes and separators.
func tokens(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == '/' || r == ' ' || r == '.':
			flush()
			prevLower = false
		case r >= 'A' && r <= 'Z':
			if prevLower {
				flush()
			}
			cur.WriteRune(r)
			prevLower = false
		default:
			cur.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z'
		}
	}
	flush()
	return out
}

// SuggestSubgraph proposes the LAV mapping subgraph for a set of features:
// the G:hasFeature edges of the features' concepts plus the shortest
// object-property paths connecting those concepts in G. The result is a
// connected subgraph of G when the concepts are connected; otherwise it
// contains the per-concept fragments only (and Connected reports false).
type SubgraphSuggestion struct {
	Graph     *rdf.Graph
	Concepts  []rdf.IRI
	Connected bool
}

// SuggestSubgraph builds the suggestion for the given features from G as
// of the view's generation.
func SuggestSubgraph(v *core.View, features []rdf.IRI) SubgraphSuggestion {
	g := rdf.NewGraph("")
	conceptSet := map[rdf.IRI]bool{}
	for _, f := range features {
		c, ok := v.ConceptOfFeature(f)
		if !ok {
			continue
		}
		conceptSet[c] = true
		g.Add(rdf.T(c, core.GHasFeature, f))
	}
	concepts := make([]rdf.IRI, 0, len(conceptSet))
	for c := range conceptSet {
		concepts = append(concepts, c)
	}
	sort.Slice(concepts, func(i, j int) bool { return concepts[i] < concepts[j] })

	// Connect the concepts pairwise through shortest paths over the concept
	// edges of G (undirected search, directed edges kept as asserted).
	edges := v.ConceptEdges()
	for i := 0; i < len(concepts); i++ {
		for j := i + 1; j < len(concepts); j++ {
			for _, t := range shortestPath(edges, concepts[i], concepts[j]) {
				g.Add(t)
			}
		}
	}
	return SubgraphSuggestion{Graph: g, Concepts: concepts, Connected: g.IsConnected()}
}

// shortestPath finds the shortest undirected path between two concepts over
// the concept edges, returning the asserted (directed) triples along it.
func shortestPath(edges []rdf.Triple, from, to rdf.IRI) []rdf.Triple {
	if from == to {
		return nil
	}
	type hop struct {
		node rdf.IRI
		edge rdf.Triple
		prev int
	}
	visited := map[rdf.IRI]bool{from: true}
	queue := []hop{{node: from, prev: -1}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range edges {
			s, _ := e.Subject.(rdf.IRI)
			obj, _ := e.Object.(rdf.IRI)
			var next rdf.IRI
			switch cur.node {
			case s:
				next = obj
			case obj:
				next = s
			default:
				continue
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			queue = append(queue, hop{node: next, edge: e, prev: head})
			if next == to {
				// Reconstruct.
				var path []rdf.Triple
				for idx := len(queue) - 1; idx > 0; idx = queue[idx].prev {
					path = append(path, queue[idx].edge)
					if queue[idx].prev == 0 {
						break
					}
				}
				return path
			}
		}
	}
	return nil
}

// DraftRelease combines SuggestMappings and SuggestSubgraph into a draft
// release for a new wrapper, both read from one pinned view. The steward
// reviews the draft (especially the unmapped attributes) before registering
// it with Algorithm 1.
func DraftRelease(o *core.Ontology, spec core.WrapperSpec, minConfidence float64) (core.Release, []string) {
	v := o.View()
	suggestions := SuggestMappings(v, spec.Attributes(), minConfidence)
	f := map[string]rdf.IRI{}
	var mappedFeatures []rdf.IRI
	for _, s := range suggestions {
		f[s.Attribute] = s.Feature
		mappedFeatures = append(mappedFeatures, s.Feature)
	}
	var unmapped []string
	for _, a := range spec.Attributes() {
		if _, ok := f[a]; !ok {
			unmapped = append(unmapped, a)
		}
	}
	subgraph := SuggestSubgraph(v, mappedFeatures)
	return core.Release{Wrapper: spec, Subgraph: subgraph.Graph, F: f}, unmapped
}

// DatatypeViolation reports a wrapper value incompatible with the XSD
// datatype declared for the feature it provides.
type DatatypeViolation struct {
	Wrapper   string
	Attribute string
	Feature   rdf.IRI
	Datatype  rdf.IRI
	Value     relational.Value
	Row       int
}

// CheckDatatypes executes the wrapper and validates every value against the
// G:hasDatatype declaration of the feature its attribute maps to, both read
// from one pinned view. Attributes without a mapping or features without a
// datatype are skipped.
func CheckDatatypes(ctx context.Context, o *core.Ontology, w wrapper.Wrapper) ([]DatatypeViolation, error) {
	d := relational.NewValueDict()
	out, err := w.Rows(ctx, relational.Pushdown{}, d)
	if err != nil {
		return nil, err
	}
	rows := out.Decode(d).Tuples
	// Resolve attribute -> (feature, datatype) once.
	type target struct {
		feature  rdf.IRI
		datatype rdf.IRI
	}
	targets := map[string]target{}
	v := o.View()
	featureOf := map[rdf.IRI]rdf.IRI{} // F: attribute -> feature
	for _, f := range v.Features() {
		for _, attr := range v.AttributesOfFeature(f) {
			featureOf[attr] = f
		}
	}
	for _, a := range w.Schema().Names() {
		f, ok := featureOf[core.AttributeURI(w.Source(), a)]
		if !ok {
			continue
		}
		dt, ok := v.DatatypeOf(f)
		if !ok {
			continue
		}
		targets[a] = target{feature: f, datatype: dt}
	}
	var violations []DatatypeViolation
	for i, row := range rows {
		for attr, tgt := range targets {
			v, present := row[attr]
			if !present || v == nil {
				continue
			}
			if !valueMatchesDatatype(v, tgt.datatype) {
				violations = append(violations, DatatypeViolation{
					Wrapper:   w.Name(),
					Attribute: attr,
					Feature:   tgt.feature,
					Datatype:  tgt.datatype,
					Value:     v,
					Row:       i,
				})
			}
		}
	}
	return violations, nil
}

func valueMatchesDatatype(v relational.Value, dt rdf.IRI) bool {
	switch dt {
	case rdf.XSDString, rdf.XSDAnyURI:
		_, ok := v.(string)
		return ok
	case rdf.XSDBoolean:
		_, ok := v.(bool)
		return ok
	case rdf.XSDInteger, rdf.XSDInt, rdf.XSDLong, rdf.XSDShort, rdf.XSDByte,
		rdf.XSDNonNegativeInteger, rdf.XSDPositiveInteger:
		switch n := v.(type) {
		case int, int64, int32:
			return true
		case float64:
			return n == float64(int64(n))
		case float32:
			return float64(n) == float64(int64(n))
		default:
			return false
		}
	case rdf.XSDDouble, rdf.XSDFloat, rdf.XSDDecimal:
		switch v.(type) {
		case float64, float32, int, int64, int32:
			return true
		default:
			return false
		}
	default:
		// Unknown datatype: accept anything (the model allows custom types).
		return true
	}
}
