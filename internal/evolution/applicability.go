package evolution

import (
	"fmt"
	"sort"
	"strings"
)

// APIProfile holds, for one real-world API, the number of evolution changes
// that concern only the wrappers, only the ontology, or both. The figures
// come from the 16 change patterns of Li et al. (ICWS 2013) as classified in
// Table 6 of the paper.
type APIProfile struct {
	Name            string
	WrapperOnly     int
	OntologyOnly    int
	WrapperOntology int
}

// Total returns the total number of changes of the profile.
func (p APIProfile) Total() int { return p.WrapperOnly + p.OntologyOnly + p.WrapperOntology }

// PartiallyAccommodated returns the percentage of changes partially
// accommodated by the ontology (changes also concerning the wrappers).
func (p APIProfile) PartiallyAccommodated() float64 {
	if p.Total() == 0 {
		return 0
	}
	return 100 * float64(p.WrapperOntology) / float64(p.Total())
}

// FullyAccommodated returns the percentage of changes fully accommodated by
// the ontology alone.
func (p APIProfile) FullyAccommodated() float64 {
	if p.Total() == 0 {
		return 0
	}
	return 100 * float64(p.OntologyOnly) / float64(p.Total())
}

// Table6Profiles returns the change counts of the five widely-used APIs
// studied in Table 6 (from Li et al. [14]).
func Table6Profiles() []APIProfile {
	return []APIProfile{
		{Name: "Google Calendar", WrapperOnly: 0, OntologyOnly: 24, WrapperOntology: 23},
		{Name: "Google Gadgets", WrapperOnly: 2, OntologyOnly: 6, WrapperOntology: 30},
		{Name: "Amazon MWS", WrapperOnly: 22, OntologyOnly: 36, WrapperOntology: 14},
		{Name: "Twitter API", WrapperOnly: 27, OntologyOnly: 0, WrapperOntology: 25},
		{Name: "Sina Weibo", WrapperOnly: 35, OntologyOnly: 3, WrapperOntology: 56},
	}
}

// ApplicabilityReport is the computed Table 6 plus the aggregate figures the
// paper reports in §6.3 (48.84% partially, 22.77% fully, 71.62% overall).
type ApplicabilityReport struct {
	Profiles []APIProfile
	// Aggregate percentages are weighted by the number of changes of each
	// API (i.e. computed over the union of all changes).
	AggregatePartially float64
	AggregateFully     float64
	AggregateTotal     float64
}

// Applicability computes the industrial applicability report for a set of
// API profiles.
func Applicability(profiles []APIProfile) ApplicabilityReport {
	rep := ApplicabilityReport{Profiles: append([]APIProfile(nil), profiles...)}
	totalChanges, totalBoth, totalOntology := 0, 0, 0
	for _, p := range profiles {
		totalChanges += p.Total()
		totalBoth += p.WrapperOntology
		totalOntology += p.OntologyOnly
	}
	if totalChanges > 0 {
		rep.AggregatePartially = 100 * float64(totalBoth) / float64(totalChanges)
		rep.AggregateFully = 100 * float64(totalOntology) / float64(totalChanges)
		rep.AggregateTotal = rep.AggregatePartially + rep.AggregateFully
	}
	return rep
}

// String renders the report as the rows of Table 6 plus the aggregate line.
func (r ApplicabilityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %14s %12s %10s\n", "API", "#Wrapper", "#Ontology", "#Wrap&Ont", "Partially", "Fully")
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "%-16s %10d %10d %14d %11.2f%% %9.2f%%\n",
			p.Name, p.WrapperOnly, p.OntologyOnly, p.WrapperOntology, p.PartiallyAccommodated(), p.FullyAccommodated())
	}
	fmt.Fprintf(&b, "%-16s %10s %10s %14s %11.2f%% %9.2f%%   (total %.2f%%)\n",
		"AVERAGE", "", "", "", r.AggregatePartially, r.AggregateFully, r.AggregateTotal)
	return b.String()
}

// ChangesFromProfile expands an API profile into a synthetic changelog whose
// classification reproduces the profile's counts. It is used to exercise the
// end-to-end classification pipeline over realistic volumes.
func ChangesFromProfile(p APIProfile) []Change {
	var out []Change
	wrapperKinds := kindsByHandler(HandledByWrapper)
	ontologyKinds := kindsByHandler(HandledByOntology)
	bothKinds := kindsByHandler(HandledByBoth)
	for i := 0; i < p.WrapperOnly; i++ {
		out = append(out, Change{Kind: wrapperKinds[i%len(wrapperKinds)], API: p.Name})
	}
	for i := 0; i < p.OntologyOnly; i++ {
		out = append(out, Change{Kind: ontologyKinds[i%len(ontologyKinds)], API: p.Name})
	}
	for i := 0; i < p.WrapperOntology; i++ {
		out = append(out, Change{Kind: bothKinds[i%len(bothKinds)], API: p.Name})
	}
	return out
}

func kindsByHandler(h Handler) []ChangeKind {
	var out []ChangeKind
	for _, c := range catalog {
		if c.Handler == h {
			out = append(out, c.Kind)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
