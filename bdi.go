// Package bdi is the public facade of the Big Data Integration ontology
// library, a reproduction of "An Integration-Oriented Ontology to Govern
// Evolution in Big Data Ecosystems" (Nadal et al.).
//
// A System bundles the three artifacts a deployment needs:
//
//   - the BDI ontology T = ⟨G, S, M⟩ managed by the data steward,
//   - the wrapper registry holding the executable views over the sources, and
//   - the query rewriting engine that answers ontology-mediated queries by
//     resolving the LAV mappings into a union of conjunctive queries over the
//     wrappers.
//
// Typical usage:
//
//	sys := bdi.NewSystem()
//	bdi.BuildSupersedeGlobalGraph(sys.Ontology)           // design G
//	sys.RegisterRelease(bdi.SupersedeReleaseW1(), w1)     // Algorithm 1 + wrapper
//	answer, _, err := sys.QuerySPARQL(queryText)          // OMQ -> UCQ -> rows
//
// The facade is context-less: its queries run under context.Background().
// Callers that must bound a query (deadline, cancellation, budget) use the
// layers underneath, where every entry point takes ctx first:
// rewriting.Cache.RewriteContext, rewriting.Rewriter.ExecuteResultLimit and,
// at the source boundary, relational.WrapperResolver.Fetch(ctx, wrapper,
// Pushdown) down to wrapper.Wrapper.Rows and wrapper.DocumentSource.Documents.
package bdi

import (
	"context"
	"sync"

	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/wrapper"
)

// Re-exported types: the ontology-side vocabulary of the library.
type (
	// Ontology is the BDI ontology T = ⟨G, S, M⟩.
	Ontology = core.Ontology
	// Release is the construct registered by the data steward upon a new
	// schema version (Algorithm 1).
	Release = core.Release
	// WrapperSpec describes a wrapper's relational schema inside a release.
	WrapperSpec = core.WrapperSpec
	// ReleaseResult reports what a release changed in the ontology.
	ReleaseResult = core.ReleaseResult
	// OMQ is an ontology-mediated query ⟨π, φ⟩.
	OMQ = rewriting.OMQ
	// RewriteResult is the outcome of the three-phase rewriting.
	RewriteResult = rewriting.Result
	// Relation is a set of tuples returned by query answering.
	Relation = relational.Relation
	// Tuple is one row of a relation.
	Tuple = relational.Tuple
	// Schema describes the attributes of a relation.
	Schema = relational.Schema
	// Walk is a conjunctive query over the wrappers.
	Walk = relational.Walk
	// Wrapper is an executable view over one schema version of a source.
	Wrapper = wrapper.Wrapper
	// Registry holds the executable wrappers.
	Registry = wrapper.Registry
	// IRI is an RDF IRI.
	IRI = rdf.IRI
	// Graph is an RDF graph value (used for LAV mapping subgraphs).
	Graph = rdf.Graph
	// AttributeChange is a parameter-level schema change between versions.
	AttributeChange = evolution.AttributeChange
)

// Re-exported constructors and helpers.
var (
	// NewOntology returns an ontology initialized with the G and S metamodels.
	NewOntology = core.NewOntology
	// NewGraph returns an empty RDF graph value.
	NewGraph = rdf.NewGraph
	// NewRegistry returns an empty wrapper registry.
	NewRegistry = wrapper.NewRegistry
	// NewMemoryWrapper returns a wrapper over in-memory tuples.
	NewMemoryWrapper = wrapper.NewMemory
	// NewJSONWrapper returns a wrapper over a JSON document source.
	NewJSONWrapper = wrapper.NewJSON
	// NewSchema builds a wrapper schema from ID and non-ID attribute names.
	NewSchema = relational.NewSchema
	// ParseOMQ parses a restricted SPARQL query into an OMQ.
	ParseOMQ = rewriting.ParseOMQ
	// NewOMQ builds an OMQ from projected features and pattern triples.
	NewOMQ = rewriting.NewOMQ
	// SchemaDiff computes the parameter-level changes between two attribute
	// lists of the same source.
	SchemaDiff = evolution.SchemaDiff
	// DeriveRelease semi-automatically builds the next release from the
	// previous one plus a set of attribute changes.
	DeriveRelease = evolution.DeriveRelease

	// SUPERSEDE running example builders (paper §2.1).
	BuildSupersedeGlobalGraph = core.BuildSupersedeGlobalGraph
	BuildSupersedeOntology    = core.BuildSupersedeOntology
	SupersedeReleaseW1        = core.SupersedeReleaseW1
	SupersedeReleaseW2        = core.SupersedeReleaseW2
	SupersedeReleaseW3        = core.SupersedeReleaseW3
	SupersedeReleaseW4        = core.SupersedeReleaseW4
)

// System bundles the ontology, the wrapper registry and the rewriting engine.
type System struct {
	Ontology *core.Ontology
	Wrappers *wrapper.Registry

	rewriter *rewriting.Rewriter
	// releaseMu keeps concurrent RegisterRelease calls from interleaving
	// with each other's undo of a wrapper registration.
	releaseMu sync.Mutex
}

// NewSystem returns an empty system: a fresh ontology (metamodel only) and an
// empty wrapper registry.
func NewSystem() *System {
	o := core.NewOntology()
	return &System{
		Ontology: o,
		Wrappers: wrapper.NewRegistry(),
		rewriter: rewriting.NewRewriter(o),
	}
}

// NewSystemWith wraps an existing ontology and registry.
func NewSystemWith(o *core.Ontology, reg *wrapper.Registry) *System {
	return &System{Ontology: o, Wrappers: reg, rewriter: rewriting.NewRewriter(o)}
}

// Rewriter exposes the underlying rewriting engine.
func (s *System) Rewriter() *rewriting.Rewriter { return s.rewriter }

// resolver returns the wrapper resolver used to execute walks: attribute
// names are qualified with their data source, matching the Source graph.
func (s *System) resolver() relational.WrapperResolver {
	return wrapper.NewQualifiedResolver(s.Wrappers)
}

// RegisterRelease runs Algorithm 1 for the release. An executable wrapper,
// when provided, is registered (with an alias for its IRI) before the
// release is published, so a concurrent query that rewrites to the
// release's walks can execute them. If the release is not published, the
// registration is undone. A release that was published but whose release
// hook failed keeps its wrapper, since readers already see its walks.
func (s *System) RegisterRelease(r core.Release, w wrapper.Wrapper) (*core.ReleaseResult, error) {
	s.releaseMu.Lock()
	defer s.releaseMu.Unlock()
	undo := func() {}
	if w != nil {
		if w.Name() != r.Wrapper.Name {
			return nil, &MismatchError{ReleaseWrapper: r.Wrapper.Name, ExecutableWrapper: w.Name()}
		}
		unregister := s.Wrappers.Register(w)
		unalias := s.Wrappers.Alias(string(core.WrapperURI(w.Name())), w.Name())
		undo = func() { unalias(); unregister() }
	}
	res, err := s.Ontology.NewRelease(r)
	if res == nil {
		undo()
	}
	return res, err
}

// MismatchError reports a release whose wrapper spec and executable wrapper
// disagree.
type MismatchError struct {
	ReleaseWrapper    string
	ExecutableWrapper string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return "bdi: release describes wrapper " + e.ReleaseWrapper + " but the executable wrapper is named " + e.ExecutableWrapper
}

// Rewrite runs the three-phase rewriting on an OMQ without executing it.
func (s *System) Rewrite(q *rewriting.OMQ) (*rewriting.Result, error) {
	return s.rewriter.Rewrite(q)
}

// RewriteSPARQL parses a restricted SPARQL query and rewrites it.
func (s *System) RewriteSPARQL(text string) (*rewriting.Result, error) {
	return s.rewriter.RewriteSPARQL(text)
}

// Query rewrites and executes an OMQ, returning one column per projected
// feature.
func (s *System) Query(q *rewriting.OMQ) (*relational.Relation, *rewriting.Result, error) {
	return s.rewriter.Answer(q, s.resolver())
}

// QuerySPARQL rewrites and executes a restricted SPARQL OMQ.
func (s *System) QuerySPARQL(text string) (*relational.Relation, *rewriting.Result, error) {
	return s.rewriter.AnswerSPARQL(text, s.resolver())
}

// Stats returns ontology statistics (triples per graph, counts of concepts,
// features, sources, wrappers and attributes).
func (s *System) Stats() core.Stats { return s.Ontology.Stats() }

// Version policies for historical queries (see rewriting.VersionPolicy).
const (
	// AllVersions unions every schema version of every source (default).
	AllVersions = rewriting.AllVersions
	// LatestVersionsOnly answers from the newest wrapper of every source.
	LatestVersionsOnly = rewriting.LatestVersionsOnly
	// AsOfRelease answers as the ontology stood after a given release.
	AsOfRelease = rewriting.AsOfRelease
)

// PolicyOptions selects a version policy for QueryWithPolicy.
type PolicyOptions = rewriting.PolicyOptions

// QueryWithPolicy rewrites and executes an OMQ restricted to the schema
// versions admitted by the policy: all versions (the paper's default),
// latest versions only, or as of a given release sequence number.
func (s *System) QueryWithPolicy(q *rewriting.OMQ, opts rewriting.PolicyOptions) (*relational.Relation, *rewriting.Result, error) {
	return s.rewriter.AnswerWithPolicy(context.Background(), q, opts, s.resolver())
}

// QueryLatest answers the OMQ using only the newest schema version of every
// source.
func (s *System) QueryLatest(q *rewriting.OMQ) (*relational.Relation, *rewriting.Result, error) {
	return s.QueryWithPolicy(q, rewriting.PolicyOptions{Policy: rewriting.LatestVersionsOnly})
}

// QueryAsOf answers the OMQ as the ontology stood after the given release
// sequence number (historical query).
func (s *System) QueryAsOf(q *rewriting.OMQ, release int) (*relational.Relation, *rewriting.Result, error) {
	return s.QueryWithPolicy(q, rewriting.PolicyOptions{Policy: rewriting.AsOfRelease, Release: release})
}
