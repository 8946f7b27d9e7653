// Package core implements the Big Data Integration (BDI) ontology: the
// two-level RDF structure (Global graph G, Source graph S) linked by the
// Mapping graph M that governs data integration under schema evolution
// (paper §3). It provides the metadata models of Codes 6 and 7, builders for
// the Global graph, release-based evolution of the Source and Mapping graphs
// (Algorithm 1), and the accessors used by the query rewriting algorithms.
package core

import "bdi/internal/rdf"

// Namespaces of the BDI vocabulary, as published by the paper.
const (
	// NSGlobal is the namespace of the Global graph vocabulary (prefix G).
	NSGlobal = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
	// NSSource is the namespace of the Source graph vocabulary (prefix S).
	NSSource = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/"
	// NSMapping is the namespace of the Mapping graph vocabulary (prefix M).
	NSMapping = "http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/"
	// NSSupersede is the namespace of the SUPERSEDE case-study vocabulary
	// (prefix sup), used by the running example.
	NSSupersede = "http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/"
)

// Global graph vocabulary (Code 6).
var (
	// GConcept is the metaclass of domain concepts (maps to UML classes).
	GConcept = rdf.IRI(NSGlobal + "Concept")
	// GFeature is the metaclass of features of analysis (maps to UML attributes).
	GFeature = rdf.IRI(NSGlobal + "Feature")
	// GHasFeature links a concept to one of its features.
	GHasFeature = rdf.IRI(NSGlobal + "hasFeature")
	// GHasDatatype links a feature to its XSD datatype.
	GHasDatatype = rdf.IRI(NSGlobal + "hasDataType")
)

// Source graph vocabulary (Code 7).
var (
	// SDataSource is the metaclass of data sources (e.g. one REST API method).
	SDataSource = rdf.IRI(NSSource + "DataSource")
	// SWrapper is the metaclass of wrappers; each wrapper models one schema
	// version of its data source.
	SWrapper = rdf.IRI(NSSource + "Wrapper")
	// SAttribute is the metaclass of attributes projected by wrappers.
	SAttribute = rdf.IRI(NSSource + "Attribute")
	// SHasWrapper links a data source to its wrappers.
	SHasWrapper = rdf.IRI(NSSource + "hasWrapper")
	// SHasAttribute links a wrapper to the attributes it projects.
	SHasAttribute = rdf.IRI(NSSource + "hasAttribute")
)

// Mapping graph vocabulary (§3.3).
var (
	// MMapping links a wrapper to the named graph holding its LAV mapping
	// (the subgraph of G it provides data for).
	MMapping = rdf.IRI(NSMapping + "mapping")
	// MRegistrationOrder annotates a wrapper with the sequence number of the
	// release that registered it. It supports historical queries ("as of
	// release n") and latest-version-only query policies; it lives in M so
	// that the growth analysis of S (§6.4) is unaffected.
	MRegistrationOrder = rdf.IRI(NSMapping + "registrationOrder")
)

// Named graphs of the ontology T = ⟨G, S, M⟩.
var (
	// GlobalGraphName is the named graph holding G.
	GlobalGraphName = rdf.IRI(NSGlobal[:len(NSGlobal)-1])
	// SourceGraphName is the named graph holding S.
	SourceGraphName = rdf.IRI(NSSource[:len(NSSource)-1])
	// MappingsGraphName is the named graph holding the owl:sameAs side of M
	// (per-wrapper LAV subgraphs live in their own named graphs).
	MappingsGraphName = rdf.IRI(NSMapping[:len(NSMapping)-1])
)

// SourceURI returns the IRI identifying a data source in S: the name
// appended to the S:DataSource/ namespace, verbatim. SourceLocalName is its
// exact inverse, so a name may hold any character, separators included.
func SourceURI(source string) rdf.IRI {
	return rdf.IRI(NSSource + "DataSource/" + source)
}

// WrapperURI returns the IRI identifying a wrapper in S: the name appended
// to the S:Wrapper/ namespace, verbatim. WrapperLocalName is its exact
// inverse, so a name may hold any character, separators included.
func WrapperURI(wrapper string) rdf.IRI {
	return rdf.IRI(NSSource + "Wrapper/" + wrapper)
}

// AttributeURI returns the IRI identifying a wrapper attribute in S. Per
// §3.2 the attribute name is prefixed with its data source so that attribute
// reuse only happens within the same source.
func AttributeURI(source, attribute string) rdf.IRI {
	return rdf.IRI(string(SourceURI(source)) + "/" + attribute)
}

// AttributeName extracts the "source/attribute" part of an attribute IRI,
// i.e. the name under which the executor and wrappers know the column.
func AttributeName(attr rdf.IRI) string {
	s := string(attr)
	prefix := NSSource + "DataSource/"
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return attr.LocalName()
}

// MappingGraphURI returns the name of the named graph holding the LAV
// mapping subgraph of a wrapper.
func MappingGraphURI(wrapper string) rdf.IRI {
	return rdf.IRI(NSMapping + "graph/" + wrapper)
}

// DefaultPrefixes returns the prefix map used when serializing or displaying
// the ontology: the standard vocabularies plus G, S, M and sup.
func DefaultPrefixes() *rdf.PrefixMap {
	pm := rdf.DefaultPrefixes()
	pm.Bind("G", NSGlobal)
	pm.Bind("S", NSSource)
	pm.Bind("M", NSMapping)
	pm.Bind("sup", NSSupersede)
	return pm
}
