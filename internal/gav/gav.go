// Package gav implements a global-as-view (GAV) baseline for comparison
// with the paper's LAV approach. In GAV, every feature of the Global graph
// is defined by a fixed query over a concrete wrapper and attribute; query
// answering is simple unfolding, but when a source releases a new schema
// version the existing mappings silently stop covering the new data, and
// renamed attributes break the unfolding entirely — the motivating problem
// of §1.
package gav

import (
	"context"
	"fmt"
	"sort"

	"bdi/internal/rdf"
	"bdi/internal/relational"
)

// Mapping defines one feature of the global schema as a projection of a
// concrete wrapper attribute (the "view" of GAV).
type Mapping struct {
	Feature rdf.IRI
	Wrapper string
	Source  string
	Attr    string
	IsID    bool
	Concept rdf.IRI
}

// System is a GAV integration system: a set of feature definitions plus the
// join conditions between concepts, both expressed directly over wrappers.
type System struct {
	mappings map[rdf.IRI]Mapping
	joins    []relational.JoinCondition
}

// New returns an empty GAV system.
func New() *System {
	return &System{mappings: map[rdf.IRI]Mapping{}}
}

// Define adds (or replaces) the definition of a feature.
func (s *System) Define(m Mapping) {
	s.mappings[m.Feature] = m
}

// AddJoin declares how two wrappers are joined.
func (s *System) AddJoin(j relational.JoinCondition) {
	s.joins = append(s.joins, j)
}

// Unfold rewrites a query over global features into a single conjunctive
// query (walk) over the wrappers by unfolding each feature's definition.
// Unlike the LAV rewriting, there is exactly one rewriting: alternative
// wrappers (new schema versions) are invisible unless the steward manually
// redefines every affected mapping.
func (s *System) Unfold(features []rdf.IRI) (*relational.Walk, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("gav: no features to unfold")
	}
	walk := &relational.Walk{}
	for _, f := range features {
		m, ok := s.mappings[f]
		if !ok {
			return nil, fmt.Errorf("gav: feature %s has no GAV definition", f)
		}
		walk.AddWrapper(relational.WrapperRef{
			Wrapper:    m.Wrapper,
			Source:     m.Source,
			Projection: []string{m.Attr},
		})
	}
	for _, j := range s.joins {
		if walk.HasWrapper(j.LeftWrapper) && walk.HasWrapper(j.RightWrapper) {
			walk.AddJoin(j)
		}
	}
	if err := walk.Validate(); err != nil {
		return nil, err
	}
	return walk, nil
}

// Answer unfolds the features and executes the resulting walk.
func (s *System) Answer(features []rdf.IRI, resolver relational.WrapperResolver) (*relational.Relation, error) {
	walk, err := s.Unfold(features)
	if err != nil {
		return nil, err
	}
	return walk.Execute(context.Background(), resolver)
}

// BreaksOnRename reports whether renaming the given wrapper attribute (a
// schema evolution event in the source) invalidates any GAV mapping: the
// mapping still refers to the old attribute name, so unfolded queries will
// fail or silently return no data. It returns the affected features.
func (s *System) BreaksOnRename(wrapperName, oldAttr string) []rdf.IRI {
	var affected []rdf.IRI
	for f, m := range s.mappings {
		if m.Wrapper == wrapperName && m.Attr == oldAttr {
			affected = append(affected, f)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return affected
}

// MissesNewVersion reports the features whose data would be incomplete when
// a source adds a new schema version served by a different wrapper: GAV
// mappings keep pointing at the old wrapper only. newVersionWrappers maps
// source name to the wrappers of the new version.
func (s *System) MissesNewVersion(newVersionWrappers map[string][]string) []rdf.IRI {
	var affected []rdf.IRI
	for f, m := range s.mappings {
		if versions, ok := newVersionWrappers[m.Source]; ok {
			for _, v := range versions {
				if v != m.Wrapper {
					affected = append(affected, f)
					break
				}
			}
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return affected
}

// RepairCost counts how many mapping definitions the steward must rewrite to
// accommodate an attribute rename plus a set of new schema versions. Under
// LAV the equivalent cost is a single release registration (Algorithm 1); the
// ablation benchmark compares the two.
func (s *System) RepairCost(wrapperName, oldAttr string, newVersionWrappers map[string][]string) int {
	return len(s.BreaksOnRename(wrapperName, oldAttr)) + len(s.MissesNewVersion(newVersionWrappers))
}
