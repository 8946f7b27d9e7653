package rewriting

import (
	"context"
	"testing"

	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

// The helpers below are exported so that the external test package
// (rewriting_test) runs them too.

// OneRowResolver is a source-qualified resolver over the wrappers of reg
// that holds one row per wrapper: every ID attribute is 1, so every
// restricted join of a connected walk matches, and every other attribute
// holds its wrapper's name. A walk over it therefore returns exactly one
// row, carrying every attribute it projects.
func OneRowResolver(reg *wrapper.Registry) relational.WrapperResolver {
	one := wrapper.NewRegistry()
	for _, name := range reg.Names() {
		w, _ := reg.Get(name)
		row := relational.Tuple{}
		for _, a := range w.Schema().Attributes {
			row[a.Name] = name
			if a.ID {
				row[a.Name] = 1
			}
		}
		one.Register(wrapper.NewMemory(w.Name(), w.Source(), w.Schema(), []relational.Tuple{row}))
	}
	return wrapper.NewQualifiedResolver(one)
}

// RequireWalksRun executes every walk on its own over a OneRowResolver: each
// must compile and return exactly one row holding every attribute the walk
// projects. A failure names the walk.
func RequireWalksRun(t testing.TB, walks []*relational.Walk, resolver relational.WrapperResolver) {
	t.Helper()
	for _, w := range walks {
		rel, err := w.Execute(context.Background(), resolver)
		if err != nil {
			t.Fatalf("walk %s does not run: %v", w, err)
		}
		if n := rel.Cardinality(); n != 1 {
			t.Fatalf("walk %s returned %d rows over one row per wrapper, want 1", w, n)
		}
		for _, a := range w.Projections() {
			if !rel.Schema.Has(a) {
				t.Fatalf("walk %s returned no %s: %s", w, a, rel.Schema)
			}
		}
	}
}

// RequireResultRuns is RequireWalksRun over the result's walks, then runs
// the result itself (Result.Execute): its union must compile and return
// between one row and one row per walk.
func RequireResultRuns(t testing.TB, res *Result, resolver relational.WrapperResolver) {
	t.Helper()
	RequireWalksRun(t, res.UCQ.Walks, resolver)
	answer, err := res.Execute(context.Background(), resolver, 0)
	if err != nil {
		t.Fatalf("UCQ %s does not run: %v", res.UCQ, err)
	}
	if n := len(answer.Rows); n < 1 || n > res.UCQ.Len() {
		t.Fatalf("UCQ %s returned %d rows over one row per wrapper, want 1 to %d", res.UCQ, n, res.UCQ.Len())
	}
}
