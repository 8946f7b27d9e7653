// Package relational implements the relational machinery the paper places
// below the ontology: wrappers exposed as relations in first normal form
// with ID and non-ID attributes, the restricted projection Π̃ (which never
// projects out ID attributes), the restricted equi-join .̃/ (only on ID
// attributes), walks (select-project-join expressions over wrappers), unions
// of conjunctive queries, and an executor that evaluates them against the
// wrapper rows.
package relational

import "strings"

// Attribute is a named, typed column of a wrapper relation.
type Attribute struct {
	// Name is the attribute name as exposed by the wrapper (already prefixed
	// with the data source name when registered in the Source graph, e.g.
	// "D1/VoDmonitorId").
	Name string
	// ID marks identifier attributes (w.a_ID in the paper's notation).
	ID bool
	// Type is a free-form type hint ("string", "integer", "double", ...).
	Type string
}

// String renders the attribute, marking IDs with a trailing '*'.
func (a Attribute) String() string {
	if a.ID {
		return a.Name + "*"
	}
	return a.Name
}

// Schema is an ordered list of attributes.
type Schema struct {
	Attributes []Attribute
}

// NewSchema builds a schema with the given ID and non-ID attribute names.
func NewSchema(idAttrs, nonIDAttrs []string) Schema {
	s := Schema{}
	for _, a := range idAttrs {
		s.Attributes = append(s.Attributes, Attribute{Name: a, ID: true})
	}
	for _, a := range nonIDAttrs {
		s.Attributes = append(s.Attributes, Attribute{Name: a})
	}
	return s
}

// Names returns all attribute names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Attributes))
	for i, a := range s.Attributes {
		out[i] = a.Name
	}
	return out
}

// IDNames returns the names of the ID attributes.
func (s Schema) IDNames() []string {
	var out []string
	for _, a := range s.Attributes {
		if a.ID {
			out = append(out, a.Name)
		}
	}
	return out
}

// Has reports whether the schema contains an attribute with the given name.
func (s Schema) Has(name string) bool {
	_, ok := s.Lookup(name)
	return ok
}

// Lookup returns the attribute with the given name.
func (s Schema) Lookup(name string) (Attribute, bool) {
	for _, a := range s.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// IsID reports whether the named attribute exists and is an ID attribute.
func (s Schema) IsID(name string) bool {
	a, ok := s.Lookup(name)
	return ok && a.ID
}

// Project returns a new schema restricted to the named attributes, in the
// order given. Unknown attributes are skipped.
func (s Schema) Project(names []string) Schema {
	var out Schema
	for _, n := range names {
		if a, ok := s.Lookup(n); ok {
			out.Attributes = append(out.Attributes, a)
		}
	}
	return out
}

// Merge returns the union of two schemas (attributes of s first, then the
// attributes of other that are not already present).
func (s Schema) Merge(other Schema) Schema {
	out := Schema{Attributes: append([]Attribute(nil), s.Attributes...)}
	for _, a := range other.Attributes {
		if !out.Has(a.Name) {
			out.Attributes = append(out.Attributes, a)
		}
	}
	return out
}

// String renders the schema as "(a*, b, c)".
func (s Schema) String() string {
	parts := make([]string, len(s.Attributes))
	for i, a := range s.Attributes {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
