package relational

import (
	"fmt"
	"slices"
	"strings"
)

// WrapperRef identifies a wrapper participating in a walk together with the
// attributes projected from it (Π̃). ID attributes are implicitly retained by
// the restricted projection semantics.
type WrapperRef struct {
	// Wrapper is the wrapper identifier (e.g. its IRI local name or full IRI).
	Wrapper string
	// Source is the data source the wrapper belongs to; walks must never join
	// two wrappers of the same source (they are alternative schema versions).
	Source string
	// Projection lists the attribute names projected from this wrapper.
	Projection []string
}

// JoinCondition is a restricted equi-join condition between two wrappers of
// a walk: LeftWrapper.LeftAttr = RightWrapper.RightAttr, both IDs.
type JoinCondition struct {
	LeftWrapper  string
	LeftAttr     string
	RightWrapper string
	RightAttr    string
}

// String renders the condition as "a=b".
func (j JoinCondition) String() string {
	return fmt.Sprintf("%s=%s", j.LeftAttr, j.RightAttr)
}

// Walk is a relational algebra expression over wrappers where wrappers are
// joined with the restricted equi-join .̃/ and attributes are projected with
// the restricted projection Π̃ (paper §2.2). A walk is a conjunctive query
// over the wrappers.
type Walk struct {
	Wrappers []WrapperRef
	Joins    []JoinCondition
}

// NewWalk returns a walk over a single wrapper with the given projection.
func NewWalk(wrapper, source string, projection ...string) *Walk {
	return &Walk{Wrappers: []WrapperRef{{Wrapper: wrapper, Source: source, Projection: projection}}}
}

// Clone returns a deep copy of the walk.
func (w *Walk) Clone() *Walk {
	c := &Walk{
		Wrappers: make([]WrapperRef, len(w.Wrappers)),
		Joins:    append([]JoinCondition(nil), w.Joins...),
	}
	for i, ref := range w.Wrappers {
		c.Wrappers[i] = WrapperRef{
			Wrapper:    ref.Wrapper,
			Source:     ref.Source,
			Projection: append([]string(nil), ref.Projection...),
		}
	}
	return c
}

// WrapperNames returns the distinct wrapper identifiers used by the walk
// (wrappers(W) in the paper), sorted.
func (w *Walk) WrapperNames() []string {
	out := make([]string, len(w.Wrappers))
	for i, ref := range w.Wrappers {
		out[i] = ref.Wrapper
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// HasWrapper reports whether the walk already references the wrapper.
func (w *Walk) HasWrapper(name string) bool {
	for _, ref := range w.Wrappers {
		if ref.Wrapper == name {
			return true
		}
	}
	return false
}

// Ref returns the wrapper reference for the given wrapper name.
func (w *Walk) Ref(name string) (*WrapperRef, bool) {
	for i := range w.Wrappers {
		if w.Wrappers[i].Wrapper == name {
			return &w.Wrappers[i], true
		}
	}
	return nil, false
}

// AddWrapper adds a wrapper reference, merging projections when the wrapper
// is already part of the walk.
func (w *Walk) AddWrapper(ref WrapperRef) {
	if existing, ok := w.Ref(ref.Wrapper); ok {
		existing.Projection = mergeUnique(existing.Projection, ref.Projection)
		if existing.Source == "" {
			existing.Source = ref.Source
		}
		return
	}
	w.Wrappers = append(w.Wrappers, WrapperRef{
		Wrapper:    ref.Wrapper,
		Source:     ref.Source,
		Projection: append([]string(nil), ref.Projection...),
	})
}

// AddJoin records a restricted join condition between two wrappers already
// present in (or being added to) the walk. Duplicate conditions are ignored.
func (w *Walk) AddJoin(j JoinCondition) {
	for _, existing := range w.Joins {
		if existing == j {
			return
		}
	}
	w.Joins = append(w.Joins, j)
}

// Merge combines two walks: wrapper references are merged (union of
// projections) and join conditions are concatenated. It corresponds to the
// MergeWalks operation of Algorithm 5.
func (w *Walk) Merge(other *Walk) *Walk {
	out := w.Clone()
	for _, ref := range other.Wrappers {
		out.AddWrapper(ref)
	}
	for _, j := range other.Joins {
		out.AddJoin(j)
	}
	return out
}

// MergeProjections collapses duplicate projected attributes per wrapper,
// mirroring the MergeProjections operator of Algorithm 4.
func (w *Walk) MergeProjections() {
	for i := range w.Wrappers {
		w.Wrappers[i].Projection = mergeUnique(nil, w.Wrappers[i].Projection)
	}
}

// Projections returns the union of all projected attribute names, sorted.
func (w *Walk) Projections() []string {
	n := 0
	for _, ref := range w.Wrappers {
		n += len(ref.Projection)
	}
	out := make([]string, 0, n)
	for _, ref := range w.Wrappers {
		out = append(out, ref.Projection...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// SourcesDisjoint reports whether all wrappers of the walk come from
// pairwise distinct data sources, which is the validity condition
// ∀ wi,wj ∈ wrappers(W): source(wi) ≠ source(wj) from §2.2.
func (w *Walk) SourcesDisjoint() bool {
	for i, ref := range w.Wrappers {
		if ref.Source == "" {
			continue
		}
		for _, earlier := range w.Wrappers[:i] {
			if earlier.Source == ref.Source {
				return false
			}
		}
	}
	return true
}

// Signature returns a canonical string identifying the walk's wrapper set;
// equivalent walks share the same signature.
func (w *Walk) Signature() string {
	return strings.Join(w.WrapperNames(), "|")
}

// Validate checks the structural validity of the walk: non-empty, sources
// pairwise disjoint, and every join condition references wrappers of the
// walk.
func (w *Walk) Validate() error {
	if len(w.Wrappers) == 0 {
		return fmt.Errorf("relational: walk has no wrappers")
	}
	if !w.SourcesDisjoint() {
		return fmt.Errorf("relational: walk joins two schema versions of the same data source: %v", w.WrapperNames())
	}
	for _, j := range w.Joins {
		if !w.HasWrapper(j.LeftWrapper) || !w.HasWrapper(j.RightWrapper) {
			return fmt.Errorf("relational: join %v references a wrapper not in the walk", j)
		}
	}
	return nil
}

// String renders the walk in the paper's notation, e.g.
// Π̃lagRatio,TargetApp(w1 .̃/ VoDmonitorId=MonitorId w3).
func (w *Walk) String() string {
	proj := w.Projections()
	size := len("Π̃()") + len(" on ")
	for _, p := range proj {
		size += len(p) + 1
	}
	for _, ref := range w.Wrappers {
		size += len(ref.Wrapper) + len(" ⋈ ")
	}
	for _, j := range w.Joins {
		size += len(j.LeftAttr) + len(j.RightAttr) + len("= ∧ ")
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("Π̃")
	for i, p := range proj {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte('(')
	for i, ref := range w.Wrappers {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString(ref.Wrapper)
	}
	for i, j := range w.Joins {
		if i == 0 {
			b.WriteString(" on ")
		} else {
			b.WriteString(" ∧ ")
		}
		b.WriteString(j.LeftAttr)
		b.WriteByte('=')
		b.WriteString(j.RightAttr)
	}
	b.WriteByte(')')
	return b.String()
}

// mergeUnique appends to dst the strings of src it does not hold yet,
// dropping duplicates of dst as well. The lists are a wrapper's projected
// attributes — a handful — so membership is a scan, not a map.
func mergeUnique(dst, src []string) []string {
	var out []string
	for _, list := range [2][]string{dst, src} {
		for _, s := range list {
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	return out
}
