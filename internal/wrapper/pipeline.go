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
// attributes, one output attribute per step.
type Op interface {
	// Output returns the attribute the step writes and whether the step may
	// be skipped when a pushdown does not need that attribute. Only steps
	// that can never fail are prunable: pruning a fallible step would change
	// which documents survive the pipeline, and a pushdown must never change
	// row-level outcomes.
	Output() (attr string, prunable bool)
	// Value computes the step's attribute for the document. It returns an
	// error when a referenced field is missing or has the wrong type.
	Value(doc Document) (relational.Value, error)
	// Describe returns a human-readable description of the step.
	Describe() string
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

// Output implements Op: As, or else the last path segment. Only optional
// projections are prunable: a required one fails on documents missing the
// field, and that outcome must survive a pushdown.
func (p ProjectField) Output() (string, bool) {
	if p.As != "" {
		return p.As, p.Optional
	}
	return p.Path[strings.LastIndexByte(p.Path, '.')+1:], p.Optional
}

// Value implements Op.
func (p ProjectField) Value(doc Document) (relational.Value, error) {
	v, ok := lookupPath(doc, p.Path)
	if !ok && !p.Optional {
		return nil, fmt.Errorf("wrapper: document has no field %q", p.Path)
	}
	return v, nil
}

// Describe implements Op.
func (p ProjectField) Describe() string {
	if p.As != "" && p.As != p.Path {
		return fmt.Sprintf("project %s as %s", p.Path, p.As)
	}
	return "project " + p.Path
}

// ComputeRatio computes the ratio of two numeric document fields, mirroring
// the lagRatio = waitTime / watchTime computation of the running example.
type ComputeRatio struct {
	Numerator   string
	Denominator string
	As          string
}

// Output implements Op. Never prunable: the step fails on missing or
// non-numeric fields.
func (c ComputeRatio) Output() (string, bool) { return c.As, false }

// Value implements Op: nil for a zero denominator, or a quotient
// overflowing to ±Inf.
func (c ComputeRatio) Value(doc Document) (relational.Value, error) {
	num, err := numericField(doc, c.Numerator)
	if err != nil {
		return nil, err
	}
	den, err := numericField(doc, c.Denominator)
	if err != nil {
		return nil, err
	}
	if r := num / den; den != 0 && !math.IsInf(r, 0) {
		return r, nil
	}
	return nil, nil
}

// Describe implements Op.
func (c ComputeRatio) Describe() string {
	return fmt.Sprintf("compute %s = %s / %s", c.As, c.Numerator, c.Denominator)
}

// Constant sets the output attribute As to the value Fixed (used e.g. to tag
// the schema version or the feedback-gathering tool id).
type Constant struct {
	As    string
	Fixed any
}

// Output implements Op. Always prunable: setting a constant cannot fail.
func (c Constant) Output() (string, bool) { return c.As, true }

// Value implements Op.
func (c Constant) Value(Document) (relational.Value, error) { return c.Fixed, nil }

// Describe implements Op.
func (c Constant) Describe() string { return fmt.Sprintf("set %s = %v", c.As, c.Fixed) }

// Concat concatenates the string values of several document paths.
type Concat struct {
	Paths     []string
	Separator string
	As        string
}

// Output implements Op. Never prunable: the step fails on missing fields.
func (c Concat) Output() (string, bool) { return c.As, false }

// Value implements Op.
func (c Concat) Value(doc Document) (relational.Value, error) {
	parts := make([]string, 0, len(c.Paths))
	for _, p := range c.Paths {
		v, ok := lookupPath(doc, p)
		if !ok {
			return nil, fmt.Errorf("wrapper: document has no field %q", p)
		}
		parts = append(parts, fmt.Sprintf("%v", v))
	}
	return strings.Join(parts, c.Separator), nil
}

// Describe implements Op.
func (c Concat) Describe() string {
	return fmt.Sprintf("concat(%s) as %s", strings.Join(c.Paths, ", "), c.As)
}

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
