package replication

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/wal"
)

// A replica applies each release's add-all record as one generation of its
// store's log, from which View.ChangedSince derives the release's footprint
// exactly as on the primary. These tests apply shipped frames in process,
// through the same applyFrames the sync loop calls, so they can stop
// between any two frames.

// inProcessReplica bootstraps a replica from m's newest checkpoint.
func inProcessReplica(t *testing.T, m *wal.Manager) *Replica {
	t.Helper()
	path, _, err := m.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o, err := wal.RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replica{opts: (&Options{Primary: "http://primary.invalid"}).withDefaults()}
	r.ontology.Store(o)
	return r
}

// shipOnce ships what r still needs from m, at most maxBytes (the primary
// always finishes the frame it started), applies it and returns whether
// anything was shipped.
func shipOnce(t *testing.T, m *wal.Manager, r *Replica, maxBytes int) bool {
	t.Helper()
	o := r.Ontology()
	from := o.Store().Generation()
	frames, next, err := m.ShipFrames(from, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if next == from {
		return false
	}
	if err := r.applyFrames(o, frames); err != nil {
		t.Fatal(err)
	}
	if got := o.Store().Generation(); got != next {
		t.Fatalf("replica at generation %d after applying frames up to %d", got, next)
	}
	return true
}

// TestReplicaPublishesReleaseDeltaWithItsBatch ships exactly one frame, a
// release's add-all record, and requires the replica to explain the
// release's generation as soon as it applies that frame, with the footprint
// of the delta the primary's NewRelease reported.
func TestReplicaPublishesReleaseDeltaWithItsBatch(t *testing.T) {
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	primary := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(primary); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep := inProcessReplica(t, m)
	o := rep.Ontology()

	// W2 reuses none of W1's attributes; W1b reuses D1's and maps them
	// anew, so its add-all record lacks the owl:sameAs link the store
	// already held.
	w1b := core.SupersedeReleaseW1()
	w1b.Wrapper.Name = "w1b"
	for _, r := range []core.Release{core.SupersedeReleaseW2(), w1b} {
		pre := primary.Store().Generation()
		res, err := primary.NewRelease(r)
		if err != nil {
			t.Fatal(err)
		}
		post := primary.Store().Generation()
		frames, next, err := m.ShipFrames(pre, 1)
		if err != nil {
			t.Fatal(err)
		}
		if next != post {
			t.Fatalf("%s: shipped up to generation %d, want %d", r.Wrapper.Name, next, post)
		}
		rec, n, err := wal.DecodeFrame(frames)
		if err != nil || n != len(frames) || rec.Generation != post {
			t.Fatalf("%s: shipped %d bytes, want exactly one add-all frame publishing %d (decoded %d bytes publishing %d, %v)", r.Wrapper.Name, len(frames), post, n, rec.Generation, err)
		}
		if err := rep.applyFrames(o, frames); err != nil {
			t.Fatal(err)
		}
		got, ok := o.View().ChangedSince(pre)
		want, wantOK := primary.View().ChangedSince(pre)
		if !ok || !wantOK {
			t.Fatalf("%s: interval (%d, %d] covered on the replica %v, on the primary %v; want both", r.Wrapper.Name, pre, post, ok, wantOK)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, res.Delta.Footprint) {
			t.Fatalf("%s: replica footprint %+v, primary %+v, reported %+v", r.Wrapper.Name, got, want, res.Delta.Footprint)
		}
	}
	if st := rep.Status().Stats; st.FramesApplied != 2 {
		t.Fatalf("replica stats %+v, want 2 frames applied", st)
	}
}

// TestReplicaDeltaParityRandomized runs seeded schedules on a durable
// primary: releases over new sources and releases reusing a source's
// attributes (mapped to the same or to another feature), Global-graph edits
// (new concepts, new features of a concept), and a checkpoint resync of the
// replica partway.
// The replica follows in chunks of random size, and for every interval
// between two generations it applied since its last resync, ChangedSince on
// the views pinned at the interval's end must return the same footprint and
// the same covered flag on both sides.
func TestReplicaDeltaParityRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff, CheckpointEveryBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Abort()
			primary := m.Ontology()
			// Every op publishes one generation; pin the primary's view
			// of each.
			primaryViews := map[uint64]*core.View{}
			concepts := 2
			for i := range concepts {
				if err := replConceptOp(i).run(primary); err != nil {
					t.Fatal(err)
				}
				primaryViews[primary.Store().Generation()] = primary.View()
			}
			rep := inProcessReplica(t, m)
			seen, checked := []uint64{rep.Generation()}, 1
			replicaViews := map[uint64]*core.View{}

			var sources []string
			covered := 0
			const steps = 40
			for step := range steps {
				var err error
				switch k := rng.Intn(10); {
				case k < 4 || len(sources) == 0:
					sources = append(sources, fmt.Sprintf("D_parity%d", step))
					err = parityRelease(primary, fmt.Sprintf("w_parity%d", step), sources[len(sources)-1], rng.Intn(concepts), rng.Intn(concepts))
				case k < 7:
					// Reuse a source's attributes; "value" may move to
					// another concept's feature.
					src := sources[rng.Intn(len(sources))]
					i := rng.Intn(concepts)
					err = parityRelease(primary, fmt.Sprintf("w_parity%d", step), src, i, []int{i, rng.Intn(concepts)}[rng.Intn(2)])
				case k < 8:
					err = replConceptOp(concepts).run(primary)
					concepts++
				default:
					err = primary.AddFeatureTo(replConcept(rng.Intn(concepts)), rdf.IRI(fmt.Sprintf("http://ex/repl/extra%d", step)), "")
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				primaryViews[primary.Store().Generation()] = primary.View()

				if step == steps/2 {
					if _, err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					rep = inProcessReplica(t, m)
					seen, checked = []uint64{rep.Generation()}, 1
				}
				for shipOnce(t, m, rep, 1+rng.Intn(2048)) {
					seen = append(seen, rep.Generation())
					replicaViews[rep.Generation()] = rep.Ontology().View()
				}
				// Intervals ending at a generation checked in an earlier
				// step read the same pinned views again.
				for _, to := range seen[checked:] {
					for _, from := range seen {
						if from >= to {
							break
						}
						want, wantOK := primaryViews[to].ChangedSince(from)
						got, ok := replicaViews[to].ChangedSince(from)
						if ok != wantOK || !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: ChangedSince(%d) at %d: replica %v %+v, primary %v %+v", step, from, to, ok, got, wantOK, want)
						}
						if ok {
							covered++
						}
					}
				}
				checked = len(seen)
			}
			if covered == 0 {
				t.Fatal("no interval the replica applied was covered by releases")
			}
		})
	}
}

// parityRelease registers wrapper name over source with attributes "id",
// mapped to concept i's id feature, and "value", mapped to concept j's value
// feature.
func parityRelease(o *core.Ontology, name, source string, i, j int) error {
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(replConcept(i), core.GHasFeature, replFeature(i, "id")),
		rdf.T(replConcept(j), core.GHasFeature, replFeature(j, "value")),
	)
	_, err := o.NewRelease(core.Release{
		Wrapper: core.WrapperSpec{
			Name:            name,
			Source:          source,
			IDAttributes:    []string{"id"},
			NonIDAttributes: []string{"value"},
		},
		Subgraph: g,
		F:        map[string]rdf.IRI{"id": replFeature(i, "id"), "value": replFeature(j, "value")},
	})
	return err
}
