package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// PrefixMap maintains a bidirectional mapping between namespace prefixes and
// namespace IRIs, as used in Turtle documents and for compact (CURIE-style)
// rendering of IRIs in logs and tables.
type PrefixMap struct {
	prefixToNS map[string]string
	nsToPrefix map[string]string
}

// NewPrefixMap returns an empty prefix map.
func NewPrefixMap() *PrefixMap {
	return &PrefixMap{
		prefixToNS: map[string]string{},
		nsToPrefix: map[string]string{},
	}
}

// DefaultPrefixes returns a prefix map preloaded with the namespaces used by
// the BDI ontology and the SUPERSEDE running example.
func DefaultPrefixes() *PrefixMap {
	pm := NewPrefixMap()
	pm.Bind("rdf", NSRDF)
	pm.Bind("rdfs", NSRDFS)
	pm.Bind("owl", NSOWL)
	pm.Bind("xsd", NSXSD)
	pm.Bind("voaf", NSVOAF)
	pm.Bind("vann", NSVANN)
	pm.Bind("duv", NSDUV)
	pm.Bind("dct", NSDCT)
	pm.Bind("sc", NSSchema)
	return pm
}

// Bind associates prefix with namespace ns, replacing any prior binding of
// that prefix.
func (p *PrefixMap) Bind(prefix, ns string) {
	if old, ok := p.prefixToNS[prefix]; ok {
		delete(p.nsToPrefix, old)
	}
	p.prefixToNS[prefix] = ns
	p.nsToPrefix[ns] = prefix
}

// Expand resolves a CURIE of the form "prefix:local" to a full IRI. If the
// input already looks like an absolute IRI (or the prefix is unknown) it is
// returned unchanged along with ok=false.
func (p *PrefixMap) Expand(curie string) (IRI, bool) {
	idx := strings.Index(curie, ":")
	if idx < 0 {
		return IRI(curie), false
	}
	prefix, local := curie[:idx], curie[idx+1:]
	if strings.HasPrefix(local, "//") {
		// absolute IRI like http://...
		return IRI(curie), false
	}
	ns, ok := p.prefixToNS[prefix]
	if !ok {
		return IRI(curie), false
	}
	return IRI(ns + local), true
}

// Compact renders the given IRI as "prefix:local" when a namespace binding
// matches, or the full IRI otherwise.
func (p *PrefixMap) Compact(iri IRI) string {
	s := string(iri)
	best := ""
	bestPrefix := ""
	for ns, prefix := range p.nsToPrefix {
		if strings.HasPrefix(s, ns) && len(ns) > len(best) {
			best, bestPrefix = ns, prefix
		}
	}
	if best == "" {
		return s
	}
	return bestPrefix + ":" + s[len(best):]
}

// Namespace returns the namespace bound to prefix.
func (p *PrefixMap) Namespace(prefix string) (string, bool) {
	ns, ok := p.prefixToNS[prefix]
	return ns, ok
}

// Prefixes returns all bound prefixes in sorted order.
func (p *PrefixMap) Prefixes() []string {
	out := make([]string, 0, len(p.prefixToNS))
	for prefix := range p.prefixToNS {
		out = append(out, prefix)
	}
	sort.Strings(out)
	return out
}

// TurtleHeader renders the prefix map as Turtle @prefix declarations.
func (p *PrefixMap) TurtleHeader() string {
	var b strings.Builder
	for _, prefix := range p.Prefixes() {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", prefix, p.prefixToNS[prefix])
	}
	return b.String()
}
