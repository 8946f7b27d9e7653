package rewriting

import (
	"fmt"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

// VersionPolicy restricts which schema versions (wrappers) a rewriting may
// use. The default policy (AllVersions) reproduces the paper's behaviour:
// historical and current schema versions are unioned, so historical queries
// stay correct. LatestVersionsOnly answers from the newest wrapper of every
// source; AsOfRelease answers as the ontology stood after the n-th release.
type VersionPolicy int

// Version policies.
const (
	// AllVersions unions every schema version (the paper's default).
	AllVersions VersionPolicy = iota
	// LatestVersionsOnly restricts each source to its most recent wrapper.
	LatestVersionsOnly
	// AsOfRelease restricts the rewriting to wrappers registered up to (and
	// including) a given release sequence number.
	AsOfRelease
)

// String implements fmt.Stringer.
func (p VersionPolicy) String() string {
	switch p {
	case AllVersions:
		return "all-versions"
	case LatestVersionsOnly:
		return "latest-versions-only"
	case AsOfRelease:
		return "as-of-release"
	default:
		return fmt.Sprintf("VersionPolicy(%d)", int(p))
	}
}

// PolicyOptions selects a version policy and its parameters.
type PolicyOptions struct {
	Policy VersionPolicy
	// Release is the sequence number used by AsOfRelease.
	Release int
}

// wrapperAdmitted reports whether the wrapper w may participate in walks
// under the policy. Algorithm 4 asks it of every wrapper covering a concept.
func wrapperAdmitted(v *core.View, opts PolicyOptions, w rdf.IRI) bool {
	switch opts.Policy {
	case LatestVersionsOnly:
		sourceIRI, ok := v.SourceOfWrapper(w)
		if !ok {
			return false
		}
		latest, ok := v.LatestWrapperOfSource(core.SourceLocalName(sourceIRI))
		return ok && latest == w
	case AsOfRelease:
		seq, ok := v.RegistrationOrder(w)
		return ok && seq <= opts.Release
	default:
		return true
	}
}
