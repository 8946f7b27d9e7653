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
//	omq, err := bdi.ParseOMQ(queryText)                   // SPARQL -> OMQ
//	answer, _, err := sys.Answer(ctx, omq, 0)             // OMQ -> UCQ -> rows
//	fmt.Print(answer.Relation())
//
// System is also the MDM server's view (internal/mdm): the server publishes
// one System and every request works against it. Every query entry point
// takes ctx first, so a deadline, a cancellation or a lifecycle budget on
// ctx reaches the rewriting loops and, at the source boundary,
// relational.WrapperResolver.Fetch down to wrapper.Wrapper.Rows and
// wrapper.DocumentSource.Documents.
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

// System is the one composition of the library: the ontology, the wrapper
// registry, and the rewriting cache and wrapper resolver built around them.
// Library callers, bdictl, the examples and the MDM server all use it, so a
// release (RegisterRelease) and a cached rewrite (Rewrite) each exist once.
// It is safe for concurrent use.
type System struct {
	Ontology *core.Ontology
	Wrappers *wrapper.Registry

	cache *rewriting.Cache
	// resolver executes walks: attribute names are qualified with their
	// data source, matching the Source graph.
	resolver relational.WrapperResolver
	// releaseMu keeps concurrent RegisterRelease calls from interleaving
	// with each other's undo of a wrapper registration. No read takes it.
	releaseMu sync.Mutex
}

// NewSystem returns an empty system: a fresh ontology (metamodel only) and an
// empty wrapper registry.
func NewSystem() *System {
	return NewSystemWith(core.NewOntology(), wrapper.NewRegistry())
}

// NewSystemWith wraps an existing ontology and registry.
func NewSystemWith(o *core.Ontology, reg *wrapper.Registry) *System {
	return &System{
		Ontology: o,
		Wrappers: reg,
		cache:    rewriting.NewCache(rewriting.NewRewriter(o)),
		resolver: wrapper.NewQualifiedResolver(reg),
	}
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

// ReleaseRequest is the JSON shape of a wrapper release, as POST
// /api/releases and `bdictl releases -file` accept it. The LAV subgraph is
// given as triples of IRIs; the attribute-to-feature function as a map.
// Sample tuples, when present, make the release executable at once.
type ReleaseRequest struct {
	Wrapper         string            `json:"wrapper"`
	Source          string            `json:"source"`
	IDAttributes    []string          `json:"idAttributes"`
	NonIDAttributes []string          `json:"nonIdAttributes"`
	Subgraph        [][3]string       `json:"subgraph"`
	Mappings        map[string]string `json:"mappings"`
	SampleTuples    []map[string]any  `json:"sampleTuples,omitempty"`
}

// Release returns the release the request describes and, when it carries
// sample tuples, an in-memory wrapper serving them (nil otherwise): the two
// arguments of RegisterRelease.
func (req ReleaseRequest) Release() (core.Release, wrapper.Wrapper) {
	g := rdf.NewGraph("")
	for _, t := range req.Subgraph {
		g.Add(rdf.T(rdf.IRI(t[0]), rdf.IRI(t[1]), rdf.IRI(t[2])))
	}
	f := make(map[string]rdf.IRI, len(req.Mappings))
	for attr, feature := range req.Mappings {
		f[attr] = rdf.IRI(feature)
	}
	r := core.Release{
		Wrapper: core.WrapperSpec{
			Name:            req.Wrapper,
			Source:          req.Source,
			IDAttributes:    req.IDAttributes,
			NonIDAttributes: req.NonIDAttributes,
		},
		Subgraph: g,
		F:        f,
	}
	if len(req.SampleTuples) == 0 {
		return r, nil
	}
	rows := make([]relational.Tuple, len(req.SampleTuples))
	for i, t := range req.SampleTuples {
		rows[i] = relational.Tuple{}
		for k, v := range t {
			rows[i][k] = v
		}
	}
	schema := relational.NewSchema(req.IDAttributes, req.NonIDAttributes)
	return r, wrapper.NewMemory(req.Wrapper, req.Source, schema, rows)
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

// Rewrite runs the three-phase rewriting of an OMQ through the rewriting
// cache, without executing it. The result is shared and must be treated as
// immutable.
func (s *System) Rewrite(ctx context.Context, q *rewriting.OMQ) (*rewriting.Result, error) {
	return s.cache.RewriteContext(ctx, q)
}

// Answer rewrites an OMQ through the cache and executes it, returning one
// column per projected feature in canonical row order. limit > 0 keeps the
// first limit distinct rows. The rows are still in the ID domain: call
// Relation on the answer for tuples, or AppendJSON to encode it.
func (s *System) Answer(ctx context.Context, q *rewriting.OMQ, limit int) (*relational.IDRelation, *rewriting.Result, error) {
	return s.cache.Answer(ctx, q, s.resolver, limit)
}

// CacheStats reports the rewriting cache's effectiveness counters.
func (s *System) CacheStats() rewriting.CacheStats { return s.cache.Stats() }

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

// QueryWithPolicy is Answer restricted to the schema versions the policy
// admits: all versions (the paper's default), the latest version of every
// source, or the ontology as it stood after a given release sequence number.
// Policy rewrites bypass the cache.
func (s *System) QueryWithPolicy(ctx context.Context, q *rewriting.OMQ, opts rewriting.PolicyOptions) (*relational.IDRelation, *rewriting.Result, error) {
	res, err := rewriting.RewriteWithPolicy(ctx, s.Ontology, q, opts)
	if err != nil {
		return nil, nil, err
	}
	answer, err := res.Execute(ctx, s.resolver, 0)
	return answer, res, err
}
