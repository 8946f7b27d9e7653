package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/store"
)

// The crash-recovery parity suite: a scripted workload runs against a
// durable manager, the process "crashes" (Abort: no final checkpoint, no
// fsync), the WAL is truncated or corrupted at arbitrary offsets, and the
// recovered state must be byte-identical — quads, dictionary TermIDs,
// MatchWithIDs output and query rewriting — to a from-scratch rebuild of the
// op prefix the surviving log encodes. Every script op publishes exactly
// one store generation, so "which prefix survived" is read directly off the
// recovered generation.

// scriptOp is one workload step; run must bump the store generation by
// exactly one.
type scriptOp struct {
	name string
	run  func(o *core.Ontology) error
}

// supersedeGlobalQuads returns the SUPERSEDE Global-graph triples as one
// quad batch (the delta over a fresh ontology), so the script can install G
// in a single generation.
func supersedeGlobalQuads(t *testing.T) []rdf.Quad {
	t.Helper()
	scratch := core.NewOntology()
	if err := core.BuildSupersedeGlobalGraph(scratch); err != nil {
		t.Fatal(err)
	}
	base := map[string]bool{}
	for _, q := range core.NewOntology().Store().Quads() {
		base[q.String()] = true
	}
	var out []rdf.Quad
	for _, q := range scratch.Store().Quads() {
		if !base[q.String()] {
			out = append(out, q)
		}
	}
	if len(out) == 0 {
		t.Fatal("no global-graph quads derived")
	}
	return out
}

func sideConcept(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ex/crash/Side%d", i)) }
func sideFeature(i int, kind string) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("http://ex/crash/side%d_%s", i, kind))
}

// sideConceptOp adds side concept i (with an id and a value feature) to G
// in one batch.
func sideConceptOp(i int) scriptOp {
	return scriptOp{
		name: fmt.Sprintf("side-concept-%d", i),
		run: func(o *core.Ontology) error {
			quads := []rdf.Quad{
				{Triple: rdf.T(sideConcept(i), rdf.RDFType, core.GConcept), Graph: core.GlobalGraphName},
				{Triple: rdf.T(sideFeature(i, "id"), rdf.RDFType, core.GFeature), Graph: core.GlobalGraphName},
				{Triple: rdf.T(sideFeature(i, "value"), rdf.RDFType, core.GFeature), Graph: core.GlobalGraphName},
				{Triple: rdf.T(sideConcept(i), core.GHasFeature, sideFeature(i, "id")), Graph: core.GlobalGraphName},
				{Triple: rdf.T(sideConcept(i), core.GHasFeature, sideFeature(i, "value")), Graph: core.GlobalGraphName},
			}
			n, err := o.Store().AddAll(quads)
			if err != nil {
				return err
			}
			if n != len(quads) {
				return fmt.Errorf("side concept %d: %d of %d quads added", i, n, len(quads))
			}
			return nil
		},
	}
}

// sideReleaseOp registers a wrapper over side concept i.
func sideReleaseOp(i, seq int) scriptOp {
	name := fmt.Sprintf("w_crash_side%d_%d", i, seq)
	return scriptOp{
		name: "release-" + name,
		run: func(o *core.Ontology) error {
			g := rdf.NewGraph("")
			g.Add(
				rdf.T(sideConcept(i), core.GHasFeature, sideFeature(i, "id")),
				rdf.T(sideConcept(i), core.GHasFeature, sideFeature(i, "value")),
			)
			_, err := o.NewRelease(core.Release{
				Wrapper: core.WrapperSpec{
					Name:            name,
					Source:          fmt.Sprintf("D_crash_side%d_%d", i, seq),
					IDAttributes:    []string{"id"},
					NonIDAttributes: []string{"value"},
				},
				Subgraph: g,
				F:        map[string]rdf.IRI{"id": sideFeature(i, "id"), "value": sideFeature(i, "value")},
			})
			return err
		},
	}
}

// buildScript assembles the seeded workload: the SUPERSEDE scenario, side
// concepts with releases, then Global-graph edits (a new concept, an edge
// to it, a feature and an identifier attached to it) and a last release. A
// G edit is the mutation no release delta explains: caches flush fully
// across it and View.ChangedSince answers "not covered".
func buildScript(t *testing.T, rng *rand.Rand) []scriptOp {
	gQuads := supersedeGlobalQuads(t)
	ops := []scriptOp{{
		name: "global-graph",
		run: func(o *core.Ontology) error {
			n, err := o.Store().AddAll(gQuads)
			if err != nil {
				return err
			}
			if n != len(gQuads) {
				return fmt.Errorf("global graph: %d of %d quads added", n, len(gQuads))
			}
			return nil
		},
	}}
	for _, r := range []func() core.Release{
		core.SupersedeReleaseW1, core.SupersedeReleaseW2, core.SupersedeReleaseW3, core.SupersedeReleaseW4,
	} {
		release := r()
		ops = append(ops, scriptOp{
			name: "release-" + release.Wrapper.Name,
			run:  func(o *core.Ontology) error { _, err := o.NewRelease(release); return err },
		})
	}
	nSides := 2 + rng.Intn(3)
	for i := 0; i < nSides; i++ {
		ops = append(ops, sideConceptOp(i))
	}
	seq := 0
	for i := 0; i < nSides*2; i++ {
		seq++
		ops = append(ops, sideReleaseOp(rng.Intn(nSides), seq))
	}
	// Four G edits of one generation each.
	extra := sideConcept(nSides)
	ops = append(ops,
		scriptOp{name: "g-edit-concept", run: func(o *core.Ontology) error { return o.AddConcept(extra) }},
		scriptOp{name: "g-edit-relate", run: func(o *core.Ontology) error {
			return o.Relate(sideConcept(0), rdf.IRI("http://ex/crash/linksTo"), extra)
		}},
		scriptOp{name: "g-edit-feature-to", run: func(o *core.Ontology) error {
			return o.AddFeatureTo(extra, sideFeature(nSides, "value"), rdf.XSDDouble)
		}},
		scriptOp{name: "g-edit-identifier", run: func(o *core.Ontology) error {
			return o.AddIdentifier(extra, sideFeature(nSides, "id"), rdf.XSDInteger)
		}},
	)
	// A final release after the G edits, so truncation can land on a
	// suffix whose delta interval follows non-release mutations.
	seq++
	ops = append(ops, sideReleaseOp(0, seq))
	return ops
}

// runScript applies ops in order, asserting the one-generation-per-op
// contract, and returns per generation: the pinned snapshot and the
// dictionary size at that point (snapshots share the append-only
// dictionary, so the size must be captured live — a pinned snapshot's
// Dict() keeps growing with later ops).
func runScript(t *testing.T, o *core.Ontology, ops []scriptOp) (map[uint64]store.Snapshot, map[uint64]int) {
	t.Helper()
	gen := o.Store().Generation()
	snaps := map[uint64]store.Snapshot{gen: o.Store().Snapshot()}
	dictLens := map[uint64]int{gen: o.Store().Snapshot().Dict().Len()}
	for _, op := range ops {
		before := o.Store().Generation()
		if err := op.run(o); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
		after := o.Store().Generation()
		if after != before+1 {
			t.Fatalf("op %s bumped generation %d -> %d, want exactly one", op.name, before, after)
		}
		snaps[after] = o.Store().Snapshot()
		dictLens[after] = o.Store().Snapshot().Dict().Len()
	}
	return snaps, dictLens
}

// copyDir clones the data dir so each trial mutates its own copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// demoOMQ is the running-example query used for rewriting parity.
func demoOMQ() *rewriting.OMQ {
	return rewriting.NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
}

// rewriteFingerprint rewrites the demo OMQ and renders the full UCQ (walk
// order and content) or the error, for byte-level comparison.
func rewriteFingerprint(o *core.Ontology) string {
	res, err := rewriting.NewRewriter(o).Rewrite(demoOMQ())
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(res.UCQ.Signatures(), "|") + "\n" + res.UCQ.String()
}

// assertStateParity compares the recovered ontology against the expected
// snapshot at the same generation: quads, dictionary table, MatchWithIDs in raw
// TermID space, and rewriting output. wantDictLen is the baseline
// dictionary size as of that generation (the baseline dict keeps growing
// with later ops; the recovered table must equal its prefix).
func assertStateParity(t *testing.T, recovered *core.Ontology, want store.Snapshot, wantDictLen int, label string) {
	t.Helper()
	got := recovered.Store().Snapshot()
	if got.Generation() != want.Generation() {
		t.Fatalf("%s: generation = %d, want %d", label, got.Generation(), want.Generation())
	}
	gq, wq := got.Quads(), want.Quads()
	if len(gq) != len(wq) {
		t.Fatalf("%s: %d quads, want %d", label, len(gq), len(wq))
	}
	for i := range gq {
		if gq[i].String() != wq[i].String() {
			t.Fatalf("%s: quad %d = %s, want %s", label, i, gq[i], wq[i])
		}
	}
	// Dictionary parity: same terms at the same TermIDs, exactly as many as
	// the baseline had interned by this generation. This is what makes
	// MatchWithIDs byte-identical, not merely equivalent.
	gt, wt := got.Dict().Terms(), want.Dict().Terms()
	if len(gt) != wantDictLen {
		t.Fatalf("%s: dict has %d terms, want %d", label, len(gt), wantDictLen)
	}
	for i := range gt {
		if !gt[i].Equal(wt[i]) {
			t.Fatalf("%s: dict term %d = %v, want %v", label, i+1, gt[i], wt[i])
		}
	}
	// MatchWithIDs parity on raw IDs for a few probe shapes.
	probes := []store.Pattern{
		{},
		store.WildcardGraph(nil, rdf.RDFType, nil),
		store.InGraph(core.SourceGraphName, nil, nil, nil),
		store.WildcardGraph(nil, rdf.OWLSameAs, nil),
	}
	for pi, p := range probes {
		gi := got.MatchWithIDs(p)
		wi := want.MatchWithIDs(p)
		if len(gi) != len(wi) {
			t.Fatalf("%s: probe %d returned %d matches, want %d", label, pi, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i].ID != wi[i].ID {
				t.Fatalf("%s: probe %d match %d ID = %+v, want %+v", label, pi, i, gi[i].ID, wi[i].ID)
			}
		}
	}
}

// TestCrashRecoveryParity is the main fault-injection suite: the WAL of a
// crashed run is truncated at arbitrary offsets (frame boundaries and
// mid-record alike) and recovery must land on the exact op prefix the
// surviving records encode, byte-identical to a from-scratch rebuild.
func TestCrashRecoveryParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := buildScript(t, rng)

			// Durable run (the one that crashes).
			dir := t.TempDir()
			m, err := Open(dir, Options{Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			baseGen := m.Ontology().Store().Generation()
			// A mid-script checkpoint on one seed exercises checkpoint +
			// tail replay; the others replay the whole WAL.
			half := len(ops) / 2
			durableSnaps, _ := runScript(t, m.Ontology(), ops[:half])
			if seed == 2 {
				if _, err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			tailSnaps, _ := runScript(t, m.Ontology(), ops[half:])
			for gen, sn := range tailSnaps {
				durableSnaps[gen] = sn
			}
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}

			// From-scratch rebuild (no WAL involved at all): the parity
			// baseline, one pinned snapshot per generation.
			expected := core.NewOntology()
			if expected.Store().Generation() != baseGen {
				t.Fatalf("baseline generation %d, durable baseline %d", expected.Store().Generation(), baseGen)
			}
			expSnaps, expDictLens := runScript(t, expected, ops)
			for gen, sn := range expSnaps {
				if durableSnaps[gen].Len() != sn.Len() {
					t.Fatalf("durable and baseline runs diverged at generation %d", gen)
				}
			}

			segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
			if err != nil {
				t.Fatal(err)
			}
			lastSeg := segs[len(segs)-1]
			fi, err := os.Stat(lastSeg.path)
			if err != nil {
				t.Fatal(err)
			}
			size := fi.Size()

			trial := func(name string, mutate func(tdir, seg string)) {
				tdir := copyDir(t, dir)
				mutate(tdir, filepath.Join(tdir, filepath.Base(lastSeg.path)))
				m2, err := Open(tdir, Options{Sync: SyncOff})
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", name, err)
				}
				defer m2.Abort()
				rec := m2.Ontology()
				gen := rec.Store().Generation()
				want, ok := expSnaps[gen]
				if !ok {
					t.Fatalf("%s: recovered to generation %d, which no op prefix produces", name, gen)
				}
				assertStateParity(t, rec, want, expDictLens[gen], name)
				if fp, wfp := rewriteFingerprint(rec), rewriteFingerprint(rebuildAt(t, ops, gen, expected)); fp != wfp {
					t.Fatalf("%s: rewriting diverged:\n got: %s\nwant: %s", name, fp, wfp)
				}
			}

			if size == 0 {
				t.Fatal("final segment is empty; the trials would be vacuous")
			}
			// Kill at random offsets within the last segment, including 0
			// (only earlier segments / the checkpoint survive) and full size.
			offsets := []int64{0, size}
			for i := 0; i < 8; i++ {
				offsets = append(offsets, rng.Int63n(size+1))
			}
			for _, off := range offsets {
				trial(fmt.Sprintf("truncate@%d", off), func(tdir, seg string) {
					if err := os.Truncate(seg, off); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Flip bytes at random offsets: the CRC must fence off the
			// corrupted suffix; the surviving prefix still recovers.
			for i := 0; i < 4; i++ {
				off := rng.Int63n(size)
				trial(fmt.Sprintf("corrupt@%d", off), func(tdir, seg string) {
					data, err := os.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					data[off] ^= 0x5a
					if err := os.WriteFile(seg, data, 0o644); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// rebuildAt returns a fresh ontology rebuilt by applying the op prefix that
// ends at generation gen — the "from-scratch rebuild" of the acceptance
// criterion (the rewriting side needs a live ontology, not just a pinned
// snapshot; reuse is fine because ops are deterministic).
func rebuildAt(t *testing.T, ops []scriptOp, gen uint64, _ *core.Ontology) *core.Ontology {
	t.Helper()
	o := core.NewOntology()
	for _, op := range ops {
		if o.Store().Generation() >= gen {
			break
		}
		if err := op.run(o); err != nil {
			t.Fatalf("rebuild op %s: %v", op.name, err)
		}
	}
	if o.Store().Generation() != gen {
		t.Fatalf("rebuild stopped at generation %d, want %d", o.Store().Generation(), gen)
	}
	return o
}
