package gav

import (
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// supersedeGAV builds the GAV baseline over the original (pre-evolution)
// SUPERSEDE wrappers: every feature is defined over exactly one wrapper
// attribute.
func supersedeGAV() *System {
	s := New()
	s.Define(Mapping{Feature: core.SupApplicationID, Wrapper: "w3", Source: "D3", Attr: "TargetApp", IsID: true, Concept: core.SupSoftwareApplication})
	s.Define(Mapping{Feature: core.SupMonitorID, Wrapper: "w3", Source: "D3", Attr: "MonitorId", IsID: true, Concept: core.SupMonitor})
	s.Define(Mapping{Feature: core.SupFeedbackGatheringID, Wrapper: "w3", Source: "D3", Attr: "FeedbackId", IsID: true, Concept: core.SupFeedbackGathering})
	s.Define(Mapping{Feature: core.SupLagRatio, Wrapper: "w1", Source: "D1", Attr: "lagRatio", Concept: core.SupInfoMonitor})
	s.Define(Mapping{Feature: core.SupDescription, Wrapper: "w2", Source: "D2", Attr: "tweet", Concept: core.SupUserFeedback})
	s.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})
	s.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "FeedbackId", RightWrapper: "w2", RightAttr: "FGId"})
	return s
}

func TestUnfoldAndAnswer(t *testing.T) {
	s := supersedeGAV()
	walk, err := s.Unfold([]rdf.IRI{core.SupApplicationID, core.SupLagRatio})
	if err != nil {
		t.Fatal(err)
	}
	if len(walk.WrapperNames()) != 2 {
		t.Errorf("wrappers = %v", walk.WrapperNames())
	}
	reg := workload.SupersedeTable1Registry(false)
	rel, err := s.Answer([]rdf.IRI{core.SupApplicationID, core.SupLagRatio}, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Same result as the LAV rewriting before evolution: Table 2 (3 tuples).
	if rel.Cardinality() != 3 {
		t.Errorf("cardinality = %d\n%s", rel.Cardinality(), rel)
	}
	if len(s.mappings) != 5 {
		t.Errorf("mappings = %d", len(s.mappings))
	}
}

func TestUnfoldErrors(t *testing.T) {
	s := supersedeGAV()
	if _, err := s.Unfold(nil); err == nil {
		t.Error("empty feature list should fail")
	}
	if _, err := s.Unfold([]rdf.IRI{rdf.IRI("http://ex/unknown")}); err == nil {
		t.Error("unknown feature should fail")
	}
	// w1 and w2 join only through w3, which neither feature needs: the walk
	// is refused when it is unfolded, not when it runs.
	want := "relational: wrapper w2 is not connected by any join in the walk"
	if _, err := s.Unfold([]rdf.IRI{core.SupLagRatio, core.SupDescription}); err == nil || err.Error() != want {
		t.Errorf("disconnected unfolding: error %v, want %q", err, want)
	}
}

func TestGAVBreaksUnderEvolution(t *testing.T) {
	s := supersedeGAV()
	// The D1 provider renames lagRatio to bufferingRatio and starts serving
	// data through the new schema version (wrapper w4).
	affected := s.BreaksOnRename("w1", "lagRatio")
	if len(affected) != 1 || affected[0] != core.SupLagRatio {
		t.Errorf("affected features = %v", affected)
	}
	missing := s.MissesNewVersion(map[string][]string{"D1": {"w1", "w4"}})
	if len(missing) != 1 || missing[0] != core.SupLagRatio {
		t.Errorf("missing features = %v", missing)
	}
	if cost := s.RepairCost("w1", "lagRatio", map[string][]string{"D1": {"w1", "w4"}}); cost != 2 {
		t.Errorf("repair cost = %d", cost)
	}

	// Concretely: once the old endpoint stops producing data, the GAV answer
	// silently loses the lagRatio instances that now only arrive via w4,
	// while the LAV rewriting picks both versions up (rewriting tests cover
	// the latter).
	regOldOnly := wrapper.NewRegistry()
	regOldOnly.Register(wrapper.NewMemory("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}), nil)) // drained
	regOldOnly.Register(wrapper.NewMemory("w3", "D3",
		relational.NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil),
		[]relational.Tuple{{"TargetApp": 1, "MonitorId": 12, "FeedbackId": 77}}))
	rel, err := s.Answer([]rdf.IRI{core.SupApplicationID, core.SupLagRatio}, regOldOnly)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 0 {
		t.Errorf("GAV should silently return no data after the source evolves, got %d tuples", rel.Cardinality())
	}
}

func TestGAVRedefinitionRestoresAnswers(t *testing.T) {
	// After the steward manually repairs the mapping (pointing lagRatio at
	// w4/bufferingRatio), answers flow again — but every affected mapping had
	// to be rewritten by hand, unlike the single release of Algorithm 1.
	s := supersedeGAV()
	s.Define(Mapping{Feature: core.SupLagRatio, Wrapper: "w4", Source: "D1", Attr: "bufferingRatio", Concept: core.SupInfoMonitor})
	s.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w4", RightAttr: "VoDmonitorId"})
	reg := workload.SupersedeTable1Registry(true)
	rel, err := s.Answer([]rdf.IRI{core.SupApplicationID, core.SupLagRatio}, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Only the new version's single tuple is visible; historical w1 data is
	// no longer reachable through GAV (no union over versions).
	if rel.Cardinality() != 1 {
		t.Errorf("cardinality = %d\n%s", rel.Cardinality(), rel)
	}
}
