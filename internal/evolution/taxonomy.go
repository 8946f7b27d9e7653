// Package evolution implements the REST API change taxonomy of the paper's
// functional evaluation (§6.2, Tables 3-5), the classification of each
// change kind to the component responsible for handling it (wrapper, BDI
// ontology, or both), the industrial applicability analysis over real-world
// API change profiles (§6.3, Table 6), and utilities to diff wrapper schemas
// across versions and derive releases semi-automatically.
package evolution

import "fmt"

// Level is the granularity at which a REST API change occurs, following
// Wang et al. (ICSOC 2014) as adopted by the paper.
type Level int

// Change levels.
const (
	// APILevel changes concern the API as a whole (Table 3).
	APILevel Level = iota
	// MethodLevel changes concern one operation of the API (Table 4).
	MethodLevel
	// ParameterLevel changes concern request or response parameters (Table 5).
	ParameterLevel
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case APILevel:
		return "API-level"
	case MethodLevel:
		return "Method-level"
	case ParameterLevel:
		return "Parameter-level"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Handler identifies which component(s) accommodate a change.
type Handler int

// Handler values.
const (
	// HandledByWrapper means only the wrapper (request side, auth, rate
	// limits, URLs) needs to change.
	HandledByWrapper Handler = iota
	// HandledByOntology means the change is fully accommodated by the BDI
	// ontology via a new release (Algorithm 1).
	HandledByOntology
	// HandledByBoth means both the wrapper and the ontology participate.
	HandledByBoth
)

// String implements fmt.Stringer.
func (h Handler) String() string {
	switch h {
	case HandledByWrapper:
		return "Wrapper"
	case HandledByOntology:
		return "BDI Ontology"
	case HandledByBoth:
		return "Wrapper & BDI Ontology"
	default:
		return fmt.Sprintf("Handler(%d)", int(h))
	}
}

// InvolvesWrapper reports whether the wrapper participates in handling.
func (h Handler) InvolvesWrapper() bool { return h == HandledByWrapper || h == HandledByBoth }

// InvolvesOntology reports whether the ontology participates in handling.
func (h Handler) InvolvesOntology() bool { return h == HandledByOntology || h == HandledByBoth }

// ChangeKind identifies one structural change pattern from Tables 3-5.
type ChangeKind string

// API-level change kinds (Table 3).
const (
	AddAuthenticationModel    ChangeKind = "Add authentication model"
	ChangeResourceURL         ChangeKind = "Change resource URL"
	ChangeAuthenticationModel ChangeKind = "Change authentication model"
	ChangeAPIRateLimit        ChangeKind = "Change rate limit (API)"
	DeleteResponseFormat      ChangeKind = "Delete response format"
	AddResponseFormat         ChangeKind = "Add response format"
	ChangeResponseFormatAPI   ChangeKind = "Change response format (API)"
)

// Method-level change kinds (Table 4).
const (
	AddErrorCode                    ChangeKind = "Add error code"
	ChangeMethodRateLimit           ChangeKind = "Change rate limit (method)"
	ChangeMethodAuthenticationModel ChangeKind = "Change authentication model (method)"
	ChangeDomainURL                 ChangeKind = "Change domain URL"
	AddMethod                       ChangeKind = "Add method"
	DeleteMethod                    ChangeKind = "Delete method"
	ChangeMethodName                ChangeKind = "Change method name"
	ChangeResponseFormatMethod      ChangeKind = "Change response format (method)"
)

// Parameter-level change kinds (Table 5).
const (
	ChangeParameterRateLimit ChangeKind = "Change rate limit (parameter)"
	ChangeRequireType        ChangeKind = "Change require type"
	AddParameter             ChangeKind = "Add parameter"
	DeleteParameter          ChangeKind = "Delete parameter"
	RenameResponseParameter  ChangeKind = "Rename response parameter"
	ChangeFormatOrType       ChangeKind = "Change format or type"
)

// Classification describes how a change kind is handled.
type Classification struct {
	Kind    ChangeKind
	Level   Level
	Handler Handler
	// Action summarizes what the data steward (or the wrapper maintainer)
	// must do to accommodate the change.
	Action string
}

// catalog enumerates the full taxonomy of Tables 3, 4 and 5 with the
// component assignment given by the paper.
var catalog = []Classification{
	// Table 3: API-level.
	{AddAuthenticationModel, APILevel, HandledByWrapper, "update the wrapper's request engine with the new credentials"},
	{ChangeResourceURL, APILevel, HandledByWrapper, "point the wrapper's request engine to the new URL"},
	{ChangeAuthenticationModel, APILevel, HandledByWrapper, "update the wrapper's request engine credentials"},
	{ChangeAPIRateLimit, APILevel, HandledByWrapper, "adjust the wrapper's polling/throttling policy"},
	{DeleteResponseFormat, APILevel, HandledByOntology, "no action: historic elements are preserved in T"},
	{AddResponseFormat, APILevel, HandledByOntology, "register a new release per wrapper with the new format"},
	{ChangeResponseFormatAPI, APILevel, HandledByOntology, "register a new release per wrapper with the changed format"},
	// Table 4: method-level.
	{AddErrorCode, MethodLevel, HandledByWrapper, "extend the wrapper's error handling"},
	{ChangeMethodRateLimit, MethodLevel, HandledByWrapper, "adjust the wrapper's polling/throttling policy"},
	{ChangeMethodAuthenticationModel, MethodLevel, HandledByWrapper, "update the wrapper's request engine credentials"},
	{ChangeDomainURL, MethodLevel, HandledByWrapper, "point the wrapper's request engine to the new domain"},
	{AddMethod, MethodLevel, HandledByBoth, "implement a wrapper query and declare a new S:DataSource via a release"},
	{DeleteMethod, MethodLevel, HandledByBoth, "stop polling; no ontology elements are removed (historic compatibility)"},
	{ChangeMethodName, MethodLevel, HandledByBoth, "update the wrapper request and rename the data source instance"},
	{ChangeResponseFormatMethod, MethodLevel, HandledByOntology, "register a new release with the changed response schema"},
	// Table 5: parameter-level.
	{ChangeParameterRateLimit, ParameterLevel, HandledByWrapper, "adjust the wrapper's polling/throttling policy"},
	{ChangeRequireType, ParameterLevel, HandledByWrapper, "adjust the wrapper's request parameters"},
	{AddParameter, ParameterLevel, HandledByBoth, "extend the wrapper projection and register a release with the new attribute"},
	{DeleteParameter, ParameterLevel, HandledByBoth, "register a release without the attribute; prior versions remain queryable"},
	{RenameResponseParameter, ParameterLevel, HandledByOntology, "register a release mapping the renamed attribute to the same feature"},
	{ChangeFormatOrType, ParameterLevel, HandledByOntology, "register a release updating the feature's datatype"},
}

// Catalog returns the full classification catalog (a copy), ordered as in
// Tables 3-5.
func Catalog() []Classification {
	out := make([]Classification, len(catalog))
	copy(out, catalog)
	return out
}

// Classify returns the classification of a change kind.
func Classify(kind ChangeKind) (Classification, bool) {
	for _, c := range catalog {
		if c.Kind == kind {
			return c, true
		}
	}
	return Classification{}, false
}

// ByLevel returns the classifications for one level, preserving table order.
func ByLevel(level Level) []Classification {
	var out []Classification
	for _, c := range catalog {
		if c.Level == level {
			out = append(out, c)
		}
	}
	return out
}

// Change is a concrete change event observed in an API changelog.
type Change struct {
	Kind ChangeKind
	// API names the API or method affected.
	API string
	// Detail carries free-form information (e.g. the renamed parameter).
	Detail string
}

// Summary aggregates how a set of changes distributes over the handling
// components.
type Summary struct {
	Total        int
	WrapperOnly  int
	OntologyOnly int
	Both         int
	Unknown      int
	ByKind       map[ChangeKind]int
}

// Summarize classifies every change of a changelog.
func Summarize(changes []Change) Summary {
	s := Summary{ByKind: map[ChangeKind]int{}}
	for _, ch := range changes {
		s.Total++
		s.ByKind[ch.Kind]++
		c, ok := Classify(ch.Kind)
		if !ok {
			s.Unknown++
			continue
		}
		switch c.Handler {
		case HandledByWrapper:
			s.WrapperOnly++
		case HandledByOntology:
			s.OntologyOnly++
		case HandledByBoth:
			s.Both++
		}
	}
	return s
}
