package wrapper

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bdi/internal/relational"
)

// Document is a (possibly nested) JSON object produced by a data source.
type Document = map[string]any

// Op is a single step of a wrapper's projection pipeline. Pipelines mirror
// the MongoDB aggregation query of Code 2 in the paper: each document is
// transformed into a flat tuple by projecting, renaming and computing
// attributes.
type Op interface {
	// Apply writes the step's attributes of the document into the output
	// tuple. It returns an error when a referenced field is missing or has
	// the wrong type.
	Apply(doc Document, out relational.Tuple) error
	// Describe returns a human-readable description of the step.
	Describe() string
}

// PushdownOp is the optional Op extension behind projection pushdown: an op
// that writes exactly one output attribute reports it, together with whether
// skipping the op is safe. Only ops that can never fail are prunable —
// pruning a fallible op would change which documents survive the pipeline,
// and a pushdown must never change row-level outcomes.
type PushdownOp interface {
	Op
	// PushdownOutput returns the op's single output attribute and whether
	// the op may be pruned when that attribute is not needed.
	PushdownOutput() (attr string, prunable bool)
}

// ProjectField projects a (possibly nested, dot-separated) document field
// into an output attribute, optionally renaming it.
type ProjectField struct {
	// Path is the document path, e.g. "monitorId" or "user.id".
	Path string
	// As is the output attribute name; when empty the last path segment is
	// used.
	As string
	// Optional makes a missing field yield a nil value rather than an error.
	Optional bool
}

// Apply implements Op.
func (p ProjectField) Apply(doc Document, out relational.Tuple) error {
	name := p.name()
	v, ok := lookupPath(doc, p.Path)
	if !ok {
		if p.Optional {
			out[name] = nil
			return nil
		}
		return fmt.Errorf("wrapper: document has no field %q", p.Path)
	}
	out[name] = v
	return nil
}

// Describe implements Op.
func (p ProjectField) Describe() string {
	if p.As != "" && p.As != p.Path {
		return fmt.Sprintf("project %s as %s", p.Path, p.As)
	}
	return "project " + p.Path
}

// PushdownOutput implements PushdownOp. Only optional projections are
// prunable: a required one fails on documents missing the field, and that
// outcome must survive a pushdown.
func (p ProjectField) PushdownOutput() (string, bool) { return p.name(), p.Optional }

// name is the output attribute: As, or else the last path segment.
func (p ProjectField) name() string {
	if p.As != "" {
		return p.As
	}
	return p.Path[strings.LastIndexByte(p.Path, '.')+1:]
}

// ComputeRatio computes the ratio of two numeric document fields, mirroring
// the lagRatio = waitTime / watchTime computation of the running example.
type ComputeRatio struct {
	Numerator   string
	Denominator string
	As          string
}

// Apply implements Op.
func (c ComputeRatio) Apply(doc Document, out relational.Tuple) error {
	num, err := numericField(doc, c.Numerator)
	if err != nil {
		return err
	}
	den, err := numericField(doc, c.Denominator)
	if err != nil {
		return err
	}
	out[c.As] = nil // a zero denominator, or a quotient overflowing to ±Inf
	if r := num / den; den != 0 && !math.IsInf(r, 0) {
		out[c.As] = r
	}
	return nil
}

// Describe implements Op.
func (c ComputeRatio) Describe() string {
	return fmt.Sprintf("compute %s = %s / %s", c.As, c.Numerator, c.Denominator)
}

// PushdownOutput implements PushdownOp. Never prunable: the op fails on
// missing or non-numeric fields.
func (c ComputeRatio) PushdownOutput() (string, bool) { return c.As, false }

// Constant sets an output attribute to a fixed value (used e.g. to tag the
// schema version or the feedback-gathering tool id).
type Constant struct {
	As    string
	Value any
}

// Apply implements Op.
func (c Constant) Apply(doc Document, out relational.Tuple) error {
	out[c.As] = c.Value
	return nil
}

// Describe implements Op.
func (c Constant) Describe() string { return fmt.Sprintf("set %s = %v", c.As, c.Value) }

// PushdownOutput implements PushdownOp. Always prunable: setting a constant
// cannot fail.
func (c Constant) PushdownOutput() (string, bool) { return c.As, true }

// Concat concatenates the string values of several document paths.
type Concat struct {
	Paths     []string
	Separator string
	As        string
}

// Apply implements Op.
func (c Concat) Apply(doc Document, out relational.Tuple) error {
	parts := make([]string, 0, len(c.Paths))
	for _, p := range c.Paths {
		v, ok := lookupPath(doc, p)
		if !ok {
			return fmt.Errorf("wrapper: document has no field %q", p)
		}
		parts = append(parts, fmt.Sprintf("%v", v))
	}
	out[c.As] = strings.Join(parts, c.Separator)
	return nil
}

// Describe implements Op.
func (c Concat) Describe() string {
	return fmt.Sprintf("concat(%s) as %s", strings.Join(c.Paths, ", "), c.As)
}

// PushdownOutput implements PushdownOp. Never prunable: the op fails on
// missing fields.
func (c Concat) PushdownOutput() (string, bool) { return c.As, false }

// lookupPath resolves a dot-separated path in a nested document.
func lookupPath(doc Document, path string) (any, bool) {
	var cur any = doc
	for {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		seg, rest, nested := strings.Cut(path, ".")
		if cur, ok = m[seg]; !ok || !nested {
			return cur, ok
		}
		path = rest
	}
}

// numericField reads a finite number, or a string parsing to one: NaN and
// ±Inf are not numeric, since no answer could carry them to JSON.
func numericField(doc Document, path string) (float64, error) {
	v, ok := lookupPath(doc, path)
	if !ok {
		return 0, fmt.Errorf("wrapper: document has no field %q", path)
	}
	var f float64
	switch x := v.(type) {
	case float64:
		f = x
	case float32:
		f = float64(x)
	case int:
		f = float64(x)
	case int64:
		f = float64(x)
	case string:
		var err error
		if f, err = strconv.ParseFloat(x, 64); err != nil {
			return 0, fmt.Errorf("wrapper: field %q is not numeric: %q", path, x)
		}
	default:
		return 0, fmt.Errorf("wrapper: field %q is not numeric (%T)", path, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("wrapper: field %q is not a finite number: %v", path, f)
	}
	return f, nil
}
