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
	return w.position(name) >= 0
}

// Ref returns the wrapper reference for the given wrapper name.
func (w *Walk) Ref(name string) (*WrapperRef, bool) {
	if i := w.position(name); i >= 0 {
		return &w.Wrappers[i], true
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

// Signature returns a canonical string identifying the walk's wrapper set;
// equivalent walks share the same signature.
func (w *Walk) Signature() string {
	return strings.Join(w.WrapperNames(), "|")
}

// Validate reports whether the walk is valid (§2.2): it has wrappers, they
// come from pairwise distinct data sources (∀ wi,wj ∈ wrappers(W):
// source(wi) ≠ source(wj)), every join condition names wrappers of the
// walk, and the conditions connect every wrapper. Both executors check
// exactly this first. The error renders its text from the walk when read,
// so a rejection allocates nothing; the walk must not change before then.
func (w *Walk) Validate() error {
	var buf [16]joinStep
	_, err := w.validate(buf[:0], false)
	return err
}

// walkError is the error of Validate.
type walkError struct{ w *Walk }

func (e walkError) Error() string {
	_, err := e.w.validate(nil, true)
	return err.Error()
}

// invalid returns validate's error: text() when explain is set, else a
// walkError.
func (w *Walk) invalid(explain bool, text func() error) error {
	if !explain {
		return walkError{w}
	}
	return text()
}

// joinStep is one step of a walk's join order: condition Joins[join], whose
// wrappers are at positions l and r of Wrappers, brings the wrapper at
// position next into the accumulated result, or filters it when next is -1.
type joinStep struct{ join, l, r, next int32 }

// attrs returns the step's attribute on the accumulated side and the one on
// the side it brings in (for a filter, the condition's left and right).
func (s joinStep) attrs(w *Walk) (acc, next string) {
	j := &w.Joins[s.join]
	if s.next >= 0 && s.next == s.l {
		return j.RightAttr, j.LeftAttr
	}
	return j.LeftAttr, j.RightAttr
}

// validate is Validate, appending to steps the walk's join order, which
// both executors follow: from the first wrapper, each step is the
// lowest-numbered condition not taken yet that names a joined wrapper; it
// is a filter when both of its wrappers are joined, and brings the other in
// otherwise. A wrapper is resolved to its first entry, so a duplicate entry
// counts as one wrapper. Beyond growing steps, validate allocates only for
// a walk of more than 64 wrappers, or to explain why it is invalid.
func (w *Walk) validate(steps []joinStep, explain bool) ([]joinStep, error) {
	if len(w.Wrappers) == 0 {
		return nil, fmt.Errorf("relational: walk has no wrappers")
	}
	for i, ref := range w.Wrappers {
		for _, earlier := range w.Wrappers[:i] {
			if ref.Source != "" && earlier.Source == ref.Source {
				return nil, w.invalid(explain, func() error {
					return fmt.Errorf("relational: walk joins two schema versions of the same data source: %v", w.WrapperNames())
				})
			}
		}
	}
	base := len(steps)
	for i, j := range w.Joins {
		l, r := w.position(j.LeftWrapper), w.position(j.RightWrapper)
		if l < 0 || r < 0 {
			return nil, w.invalid(explain, func() error {
				return fmt.Errorf("relational: join %v references a wrapper not in the walk", j)
			})
		}
		steps = append(steps, joinStep{int32(i), int32(l), int32(r), -1})
	}
	var buf [64]bool
	joined := slices.Grow(buf[:0], len(w.Wrappers))[:len(w.Wrappers)]
	joined[0] = true
	pending := steps[base:]
	for k := range pending {
		i := k
		for ; i < len(pending); i++ {
			if s := &pending[i]; joined[s.l] && !joined[s.r] {
				s.next = s.r
			} else if joined[s.r] && !joined[s.l] {
				s.next = s.l
			} else if !joined[s.l] {
				continue
			}
			break
		}
		if i == len(pending) {
			return nil, w.invalid(explain, func() error {
				var remaining []JoinCondition
				for _, s := range pending[k:] {
					remaining = append(remaining, w.Joins[s.join])
				}
				return fmt.Errorf("relational: walk joins are disconnected: %v", remaining)
			})
		}
		// Take the step, keeping the pending ones in declaration order.
		s := pending[i]
		copy(pending[k+1:i+1], pending[k:i])
		if pending[k] = s; s.next >= 0 {
			joined[s.next] = true
		}
	}
	for i, ref := range w.Wrappers {
		if !joined[i] && !joined[w.position(ref.Wrapper)] {
			return nil, w.invalid(explain, func() error {
				return fmt.Errorf("relational: wrapper %s is not connected by any join in the walk", ref.Wrapper)
			})
		}
	}
	return steps, nil
}

// position returns the first position of the wrapper in Wrappers, or -1.
func (w *Walk) position(wrapper string) int {
	for i := range w.Wrappers {
		if w.Wrappers[i].Wrapper == wrapper {
			return i
		}
	}
	return -1
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
