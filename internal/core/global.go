package core

import (
	"fmt"
	"slices"
	"sort"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// editGlobal runs one Global-graph edit: under one hold of o.mu, plan
// validates the edit against one snapshot and returns its triples, which are
// added to G as one store batch, so the edit publishes at most one
// generation and a rejected edit publishes none.
func (o *Ontology) editGlobal(plan func(sn store.Snapshot) ([]rdf.Triple, error)) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	triples, err := plan(o.store.Snapshot())
	if err != nil {
		return err
	}
	quads := make([]rdf.Quad, len(triples))
	for i, t := range triples {
		quads[i] = rdf.Quad{Triple: t, Graph: GlobalGraphName}
	}
	if _, err := o.store.AddAll(quads); err != nil {
		return fmt.Errorf("core: adding %v to %s: %w", triples, GlobalGraphName, err)
	}
	return nil
}

// AddConcept declares a domain concept in G (an instance of G:Concept).
func (o *Ontology) AddConcept(concept rdf.IRI) error {
	return o.editGlobal(func(store.Snapshot) ([]rdf.Triple, error) {
		return []rdf.Triple{rdf.T(concept, rdf.RDFType, GConcept)}, nil
	})
}

// AddFeature declares a feature of analysis in G (an instance of G:Feature),
// optionally typed with an XSD datatype via G:hasDatatype.
func (o *Ontology) AddFeature(feature rdf.IRI, datatype rdf.IRI) error {
	return o.editGlobal(func(store.Snapshot) ([]rdf.Triple, error) {
		return featureDeclaration(feature, datatype), nil
	})
}

// HasFeature links a concept to a feature via G:hasFeature. To keep query
// rewriting unambiguous, a feature may belong to only one concept (§3.1);
// linking a feature to a second concept is an error.
func (o *Ontology) HasFeature(concept, feature rdf.IRI) error {
	return o.editGlobal(func(sn store.Snapshot) ([]rdf.Triple, error) {
		edge, err := o.featureEdge(sn, concept, feature, false)
		return []rdf.Triple{edge}, err
	})
}

// AddIdentifier declares a feature, marks it as an identifier (a subclass of
// sc:identifier) and attaches it to the concept, as one edit. ID features
// are what the restricted join .̃/ operates on.
func (o *Ontology) AddIdentifier(concept, feature rdf.IRI, datatype rdf.IRI) error {
	return o.editGlobal(func(sn store.Snapshot) ([]rdf.Triple, error) {
		edge, err := o.featureEdge(sn, concept, feature, true)
		decl := featureDeclaration(feature, datatype)
		return append(decl, rdf.T(feature, rdf.RDFSSubClassOf, rdf.SchemaIdentifier), edge), err
	})
}

// AddFeatureTo declares a (non-identifier) feature and attaches it to a
// concept, as one edit.
func (o *Ontology) AddFeatureTo(concept, feature rdf.IRI, datatype rdf.IRI) error {
	return o.editGlobal(func(sn store.Snapshot) ([]rdf.Triple, error) {
		edge, err := o.featureEdge(sn, concept, feature, true)
		return append(featureDeclaration(feature, datatype), edge), err
	})
}

// featureDeclaration returns the triples declaring feature a G:Feature of
// the given datatype ("" for none).
func featureDeclaration(feature, datatype rdf.IRI) []rdf.Triple {
	decl := []rdf.Triple{rdf.T(feature, rdf.RDFType, GFeature)}
	if datatype != "" {
		decl = append(decl, rdf.T(feature, GHasDatatype, datatype))
	}
	return decl
}

// featureEdge returns the G:hasFeature edge from concept to feature after
// checking it against sn: the concept must be a G:Concept, the feature a
// G:Feature (in sn, or declared by the same edit when declared is true),
// and the feature may belong to no other concept (§3.1).
func (o *Ontology) featureEdge(sn store.Snapshot, concept, feature rdf.IRI, declared bool) (rdf.Triple, error) {
	if !isTyped(sn, concept, GConcept) {
		return rdf.Triple{}, fmt.Errorf("core: %s is not declared as a G:Concept", o.prefixes.Compact(concept))
	}
	if !declared && !isTyped(sn, feature, GFeature) {
		return rdf.Triple{}, fmt.Errorf("core: %s is not declared as a G:Feature", o.prefixes.Compact(feature))
	}
	for _, q := range sn.Match(store.InGraph(GlobalGraphName, nil, GHasFeature, feature)) {
		if owner, ok := q.Subject.(rdf.IRI); ok && owner != concept {
			return rdf.Triple{}, fmt.Errorf("core: feature %s already belongs to concept %s (features may belong to only one concept)",
				o.prefixes.Compact(feature), o.prefixes.Compact(owner))
		}
	}
	return rdf.T(concept, GHasFeature, feature), nil
}

// Relate adds a domain-specific object property edge between two concepts
// (e.g. sc:SoftwareApplication sup:hasMonitor sup:Monitor). Analysts
// navigate these edges when posing OMQs.
func (o *Ontology) Relate(subject, property, object rdf.IRI) error {
	return o.editGlobal(func(sn store.Snapshot) ([]rdf.Triple, error) {
		for _, c := range []rdf.IRI{subject, object} {
			if !isTyped(sn, c, GConcept) {
				return nil, fmt.Errorf("core: %s is not declared as a G:Concept", o.prefixes.Compact(c))
			}
		}
		return []rdf.Triple{rdf.T(subject, property, object)}, nil
	})
}

// isTyped reports whether the entity has the given rdf:type in G of one
// snapshot.
func isTyped(sn store.Snapshot, entity, class rdf.IRI) bool {
	return sn.ContainsTriple(GlobalGraphName, rdf.T(entity, rdf.RDFType, class))
}

// IsConcept reports whether the IRI is declared as a G:Concept.
func (v *View) IsConcept(iri rdf.IRI) bool {
	return isTyped(v.snap, iri, GConcept)
}

// IsFeature reports whether the IRI is declared as a G:Feature.
func (v *View) IsFeature(iri rdf.IRI) bool {
	return isTyped(v.snap, iri, GFeature)
}

// isIdentifier reports whether the class is an rdfs:subClassOf
// sc:identifier, reflexively and transitively, in any graph of one
// snapshot. It walks up the rdfs:subClassOf edges from the class,
// following IRI objects only; each class is expanded once, so cycles end
// the walk.
func isIdentifier(sn store.Snapshot, class rdf.IRI) bool {
	seen := map[rdf.IRI]bool{}
	for stack := []rdf.IRI{class}; len(stack) > 0; {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c == rdf.SchemaIdentifier {
			return true
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		for _, q := range sn.Match(store.WildcardGraph(c, rdf.RDFSSubClassOf, nil)) {
			if sup, ok := q.Object.(rdf.IRI); ok {
				stack = append(stack, sup)
			}
		}
	}
	return false
}

// Concepts returns all declared concepts, sorted.
func (v *View) Concepts() []rdf.IRI {
	return typedInstances(v.snap, GlobalGraphName, GConcept)
}

// Features returns all declared features, sorted.
func (v *View) Features() []rdf.IRI {
	return typedInstances(v.snap, GlobalGraphName, GFeature)
}

// FeaturesOf returns the features attached to a concept via G:hasFeature,
// sorted.
func (v *View) FeaturesOf(concept rdf.IRI) []rdf.IRI {
	return objectIRIs(v.snap, GlobalGraphName, concept, GHasFeature)
}

// ConceptOfFeature returns the (single) concept owning the feature.
func (v *View) ConceptOfFeature(feature rdf.IRI) (rdf.IRI, bool) {
	for _, q := range v.snap.Match(store.InGraph(GlobalGraphName, nil, GHasFeature, feature)) {
		if c, ok := q.Subject.(rdf.IRI); ok {
			return c, true
		}
	}
	return "", false
}

// IdentifiersOf returns the ID features of a concept, in FeaturesOf order:
// features linked via G:hasFeature that are (transitively) subclasses of
// sc:identifier. The result is memoized (phase #3 resolves the ID feature
// of the same concept for every candidate walk).
func (v *View) IdentifiersOf(concept rdf.IRI) []rdf.IRI {
	cid, ok := v.snap.Dict().LookupIRI(concept)
	if !ok {
		return nil
	}
	return slices.Clone(memoize(v, v.identifiersOf, cid, func() []rdf.IRI {
		var out []rdf.IRI
		for _, f := range objectIRIs(v.snap, GlobalGraphName, concept, GHasFeature) {
			if isIdentifier(v.snap, f) {
				out = append(out, f)
			}
		}
		return out
	}))
}

// DatatypeOf returns the XSD datatype attached to a feature, if any.
func (v *View) DatatypeOf(feature rdf.IRI) (rdf.IRI, bool) {
	for _, q := range v.snap.Match(store.InGraph(GlobalGraphName, feature, GHasDatatype, nil)) {
		if dt, ok := q.Object.(rdf.IRI); ok {
			return dt, true
		}
	}
	return "", false
}

// ConceptEdges returns the object-property edges between concepts in G
// (excluding the metamodel properties), sorted by subject/predicate/object.
func (v *View) ConceptEdges() []rdf.Triple {
	sn := v.snap
	var out []rdf.Triple
	for _, q := range sn.Match(store.InGraph(GlobalGraphName, nil, nil, nil)) {
		p, ok := q.Predicate.(rdf.IRI)
		if !ok {
			continue
		}
		if p == rdf.RDFType || p == GHasFeature || p == GHasDatatype || p == rdf.RDFSSubClassOf ||
			p == rdf.RDFSDomain || p == rdf.RDFSRange || p == rdf.RDFSIsDefinedBy || p == rdf.RDFSLabel ||
			p == rdf.VANNPreferredNamespacePrefix || p == rdf.VANNPreferredNamespaceURI {
			continue
		}
		s, okS := q.Subject.(rdf.IRI)
		obj, okO := q.Object.(rdf.IRI)
		if !okS || !okO {
			continue
		}
		if isTyped(sn, s, GConcept) && isTyped(sn, obj, GConcept) {
			out = append(out, q.Triple)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// typedInstances returns the IRIs typed class in graph of one snapshot,
// sorted.
func typedInstances(sn store.Snapshot, graph, class rdf.IRI) []rdf.IRI {
	var out []rdf.IRI
	for _, q := range sn.Match(store.InGraph(graph, nil, rdf.RDFType, class)) {
		if iri, ok := q.Subject.(rdf.IRI); ok {
			out = append(out, iri)
		}
	}
	slices.Sort(out)
	return out
}

// objectIRIs returns the IRI objects of subject's predicate edges in graph
// of one snapshot, sorted.
func objectIRIs(sn store.Snapshot, graph, subject, predicate rdf.IRI) []rdf.IRI {
	var out []rdf.IRI
	for _, q := range sn.Match(store.InGraph(graph, subject, predicate, nil)) {
		if iri, ok := q.Object.(rdf.IRI); ok {
			out = append(out, iri)
		}
	}
	slices.Sort(out)
	return out
}
