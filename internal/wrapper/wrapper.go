// Package wrapper implements the mediator/wrapper layer of the paper: a
// wrapper hides the query complexity of a concrete data source (a REST API
// returning JSON, a file, an in-memory event buffer, ...) and exposes a flat
// relation in first normal form with ID and non-ID attributes. Wrappers are
// the only components that touch source data; the ontology is only concerned
// with how wrappers are joined and which attributes they project.
package wrapper

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"bdi/internal/relational"
)

// Wrapper is a view over one schema version of a data source.
type Wrapper interface {
	// Name returns the wrapper identifier (unique across the system).
	Name() string
	// Source returns the identifier of the data source the wrapper queries.
	Source() string
	// Schema describes the attributes projected by the wrapper's query.
	Schema() relational.Schema
	// Rows executes the wrapper's query with the pushdown applied at the
	// source and interns its output into d under the schema
	// p.Project(Schema()) yields; the zero Pushdown asks for the full output.
	// A cancelled ctx aborts the source query. A source without native
	// projection returns p.Apply(Name(), Schema(), its full output, d).
	Rows(ctx context.Context, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error)
}

// Memory is a wrapper over a fixed set of in-memory tuples; it is used in
// tests and examples where the source data is given literally (e.g. Table 1
// of the paper).
type Memory struct {
	name   string
	source string
	schema relational.Schema
	rows   []relational.Tuple
}

// NewMemory returns an in-memory wrapper.
func NewMemory(name, source string, schema relational.Schema, rows []relational.Tuple) *Memory {
	return &Memory{name: name, source: source, schema: schema, rows: rows}
}

// Name implements Wrapper.
func (m *Memory) Name() string { return m.name }

// Source implements Wrapper.
func (m *Memory) Source() string { return m.source }

// Schema implements Wrapper.
func (m *Memory) Schema() relational.Schema { return m.schema }

// Rows implements Wrapper with the shared pushdown helper, the reference
// implementation of source-side projection.
func (m *Memory) Rows(ctx context.Context, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.Apply(m.name, m.schema, slices.Values(m.rows), d), nil
}

// Append adds tuples to the in-memory wrapper (useful for event simulation).
func (m *Memory) Append(rows ...relational.Tuple) { m.rows = append(m.rows, rows...) }

// Registry holds the wrappers known to the system, keyed both by their plain
// name and by any aliases (e.g. the wrapper IRI in the Source graph). It
// implements relational.WrapperResolver so that walks can be executed
// directly against it.
type Registry struct {
	mu       sync.RWMutex
	wrappers map[string]Wrapper
	aliases  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{wrappers: map[string]Wrapper{}, aliases: map[string]string{}}
}

// Register adds a wrapper to the registry. Registering a wrapper with an
// existing name replaces the previous one (a new schema version supersedes
// an old registration under the same name). The returned undo puts back
// what the name held before: the replaced wrapper, or no registration.
func (r *Registry) Register(w Wrapper) (undo func()) {
	return swap(&r.mu, r.wrappers, w.Name(), w)
}

// Alias maps an alternative identifier (e.g. a wrapper IRI) to a registered
// wrapper name. The returned undo puts back what the alias held before.
func (r *Registry) Alias(alias, name string) (undo func()) {
	return swap(&r.mu, r.aliases, alias, name)
}

// swap sets m[k] = v under mu and returns a func that restores m[k] to its
// previous value, or deletes it if k was absent.
func swap[V any](mu *sync.RWMutex, m map[string]V, k string, v V) (undo func()) {
	mu.Lock()
	defer mu.Unlock()
	prev, had := m[k]
	m[k] = v
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if had {
			m[k] = prev
		} else {
			delete(m, k)
		}
	}
}

// Get returns the wrapper registered under the given name or alias.
func (r *Registry) Get(name string) (Wrapper, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if w, ok := r.wrappers[name]; ok {
		return w, true
	}
	if target, ok := r.aliases[name]; ok {
		w, ok := r.wrappers[target]
		return w, ok
	}
	return nil, false
}

// Names returns the registered wrapper names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.wrappers))
	for n := range r.wrappers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered wrappers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.wrappers)
}

// Fetch implements relational.WrapperResolver.
func (r *Registry) Fetch(ctx context.Context, name string, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	w, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("wrapper: %q is not registered", name)
	}
	c, err := w.Rows(ctx, p, d)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.Name(), err)
	}
	return c, nil
}

var _ relational.WrapperResolver = (*Registry)(nil)

// Qualified wraps a resolver so that every attribute of every fetched
// relation is renamed to "<source>/<attribute>". The ontology's Source graph
// names attributes with their data source prefix (§3.2), and the rewriting
// algorithms emit walks over those qualified names; this adapter lets such
// walks execute directly against wrappers that use plain column names.
type Qualified struct {
	Registry *Registry
}

// NewQualifiedResolver returns a resolver producing source-qualified
// attribute names.
func NewQualifiedResolver(r *Registry) *Qualified { return &Qualified{Registry: r} }

// Fetch implements relational.WrapperResolver: pushdown attribute names
// arrive source-qualified ("<source>/<attr>"), are translated to the
// wrapper's plain column names for the source, and the qualification travels
// down as the pushdown's rename — the source materializes qualified tuples
// directly, so the qualified fetch costs no extra pass over the rows.
func (q *Qualified) Fetch(ctx context.Context, name string, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	w, ok := q.Registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("wrapper: %q is not registered", name)
	}
	prefix := w.Source() + "/"
	unq := relational.Pushdown{Rename: map[string]string{}}
	for _, a := range p.Attrs {
		unq.Attrs = append(unq.Attrs, strings.TrimPrefix(a, prefix))
	}
	for _, a := range w.Schema().Names() {
		unq.Rename[a] = prefix + a
	}
	c, err := w.Rows(ctx, unq, d)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.Name(), err)
	}
	return c, nil
}

// FetchContext fetches the wrapper's full qualified output and decodes it.
// The frozen bench module calls it; delete it when the bench next moves.
func (q *Qualified) FetchContext(ctx context.Context, name string) (*relational.Relation, error) {
	d := relational.NewValueDict()
	c, err := q.Fetch(ctx, name, relational.Pushdown{}, d)
	if err != nil {
		return nil, err
	}
	return c.Decode(d), nil
}

var _ relational.WrapperResolver = (*Qualified)(nil)
