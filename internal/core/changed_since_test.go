package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
	"bdi/internal/wal"
)

const csNS = "http://ex/changed/"

func csConcept(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sC%d", csNS, i)) }
func csFeature(i int, kind string) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("%sc%d_%s", csNS, i, kind))
}

// csRelease registers wrapper name over source, mapping "id" to concept i's
// identifier and "value" to concept j's value feature.
func csRelease(o *core.Ontology, name, source string, i, j int) (*core.ReleaseResult, error) {
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(csConcept(i), core.GHasFeature, csFeature(i, "id")),
		rdf.T(csConcept(j), core.GHasFeature, csFeature(j, "value")),
	)
	return o.NewRelease(core.Release{
		Wrapper: core.WrapperSpec{
			Name:            name,
			Source:          source,
			IDAttributes:    []string{"id"},
			NonIDAttributes: []string{"value"},
		},
		Subgraph: g,
		F:        map[string]rdf.IRI{"id": csFeature(i, "id"), "value": csFeature(j, "value")},
	})
}

// changeLog is what the primary reported, per generation: the delta of
// every release, and nothing for any other generation.
type changeLog map[uint64]*core.ReleaseDelta

// want is ChangedSince(a) on a view at b of a store whose log starts at
// base: covered iff a is not before base and every generation in (a, b] is
// a release, and then the union of their reported footprints.
func (l changeLog) want(base, a, b uint64) (core.Footprint, bool) {
	if a < base || a > b {
		return core.Footprint{}, false
	}
	var concepts, features []rdf.IRI
	for g := a + 1; g <= b; g++ {
		d := l[g]
		if d == nil {
			return core.Footprint{}, false
		}
		concepts = append(concepts, d.Concepts...)
		features = append(features, d.Features...)
	}
	return core.NewFootprint(concepts, features), true
}

// check compares v.ChangedSince(a) with the log.
func (l changeLog) check(t *testing.T, label string, base, a uint64, v *core.View) {
	t.Helper()
	got, ok := v.ChangedSince(a)
	want, wantOK := l.want(base, a, v.Generation())
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ChangedSince(%d) at %d = %+v, %v; want %+v, %v", label, a, v.Generation(), got, ok, want, wantOK)
	}
}

// TestChangedSinceMatchesReportedDeltas runs seeded schedules of releases
// (new sources and sources whose attributes are reused), G edits, vetoed
// batches and rejected releases, ending with a stretch of more than 256
// releases and no G edit. For intervals (a, b] since the store's base,
// ChangedSince(a) on a view pinned at b must equal the union of the
// ReleaseResult.Deltas of the releases in between when no other mutation
// lies in it, and report not covered otherwise: on the primary (also from
// goroutines pinning views while releases land), on a store recovered from
// the WAL of the same batches, and on a replica that follows that WAL from
// a checkpoint taken partway.
func TestChangedSinceMatchesReportedDeltas(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChangedSinceSchedule(t, seed) })
	}
}

func runChangedSinceSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	primary := core.NewOntology()
	dir := t.TempDir()
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	mirror := m.Ontology()
	if mirror.Store().Generation() != primary.Store().Generation() {
		t.Fatalf("the WAL-backed ontology starts at %d, the primary at %d", mirror.Store().Generation(), primary.Store().Generation())
	}

	// The primary's commit hook vetoes on demand; the batches it accepts
	// are applied to the WAL-backed mirror as a replica applies them.
	errVeto := errors.New("vetoed")
	veto := false
	var accepted []store.Batch
	primary.Store().SetCommitHook(func(b store.Batch) error {
		if veto {
			return errVeto
		}
		accepted = append(accepted, b)
		return nil
	})

	reported := changeLog{}
	views := map[uint64]*core.View{}
	lastEdit := uint64(0)
	step := func(name string, op func() (*core.ReleaseResult, error)) {
		t.Helper()
		before := primary.Store().Generation()
		res, err := op()
		after := primary.Store().Generation()
		switch {
		case veto:
			if !errors.Is(err, errVeto) || after != before {
				t.Fatalf("%s: vetoed op returned %v and moved %d -> %d", name, err, before, after)
			}
			return
		case err != nil:
			if after != before {
				t.Fatalf("%s: rejected op (%v) moved %d -> %d", name, err, before, after)
			}
			return
		case after != before+1 || len(accepted) != 1 || accepted[0].Generation != after:
			t.Fatalf("%s: published %d -> %d with %d batches", name, before, after, len(accepted))
		}
		if n, err := mirror.AddAll(accepted[0].Quads); err != nil || n != len(accepted[0].Quads) || mirror.Store().Generation() != after {
			t.Fatalf("%s: mirror applied %d of %d quads (%v), at %d", name, n, len(accepted[0].Quads), err, mirror.Store().Generation())
		}
		accepted = accepted[:0]
		if res != nil {
			reported[after] = res.Delta
		} else {
			lastEdit = after
		}
		views[after] = primary.View()
	}
	gEdit := func(name string, edit func() error) {
		step(name, func() (*core.ReleaseResult, error) { return nil, edit() })
	}

	// G: a few concepts, each with an identifier and a value feature.
	concepts := 3
	for i := range concepts {
		gEdit("concept", func() error { return primary.AddConcept(csConcept(i)) })
		gEdit("identifier", func() error { return primary.AddIdentifier(csConcept(i), csFeature(i, "id"), rdf.XSDInteger) })
		gEdit("feature", func() error { return primary.AddFeatureTo(csConcept(i), csFeature(i, "value"), rdf.XSDDouble) })
	}
	built := primary.Store().Generation()

	// Readers pin views while releases land and record what they derive.
	type observation struct {
		v *core.View
		a uint64
		f core.Footprint
		k bool
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	observed := make([][]observation, 2)
	for r := range observed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed*10 + int64(r)))
			for !done.Load() && len(observed[r]) < 500 {
				v := primary.View()
				a := v.Generation() - uint64(rr.Intn(12))
				f, k := v.ChangedSince(a)
				observed[r] = append(observed[r], observation{v, a, f, k})
			}
		}()
	}

	var sources []string
	release := func(s int) {
		name := fmt.Sprintf("w%d", s)
		i, j := rng.Intn(concepts), rng.Intn(concepts)
		if len(sources) == 0 || rng.Intn(3) == 0 {
			sources = append(sources, fmt.Sprintf("D%d", s))
		}
		// A reused source's attributes may be mapped to other features.
		src := sources[rng.Intn(len(sources))]
		step(name, func() (*core.ReleaseResult, error) { return csRelease(primary, name, src, i, j) })
	}
	// The schedule ends with a stretch of releases and vetoed batches only,
	// and a checkpoint in its middle.
	const mixed, long = 40, 320
	var checkpoint uint64
	for s := 0; s < mixed+long; s++ {
		tail := s >= mixed
		switch k := rng.Intn(20); {
		case k == 0:
			veto = true
			release(s)
			veto = false
		case k == 1 && !tail:
			veto = true
			gEdit("vetoed G edit", func() error { return primary.AddConcept(csConcept(100 + s)) })
			veto = false
		case k == 2:
			// Algorithm 1 rejects a wrapper registered twice.
			step("duplicate", func() (*core.ReleaseResult, error) { return csRelease(primary, "w_dup", "D_dup", 0, 0) })
		case k < 5 && !tail:
			switch rng.Intn(3) {
			case 0:
				concepts++
				gEdit("new concept", func() error { return primary.AddConcept(csConcept(concepts - 1)) })
				gEdit("its identifier", func() error {
					return primary.AddIdentifier(csConcept(concepts-1), csFeature(concepts-1, "id"), rdf.XSDInteger)
				})
				gEdit("its value", func() error {
					return primary.AddFeatureTo(csConcept(concepts-1), csFeature(concepts-1, "value"), "")
				})
			case 1:
				gEdit("extra feature", func() error {
					return primary.AddFeatureTo(csConcept(rng.Intn(concepts)), rdf.IRI(fmt.Sprintf("%sextra%d", csNS, s)), "")
				})
			default:
				gEdit("relate", func() error {
					return primary.Relate(csConcept(rng.Intn(concepts)), rdf.IRI(fmt.Sprintf("%slinksTo%d", csNS, s)), csConcept(rng.Intn(concepts)))
				})
			}
		default:
			release(s)
		}
		if s == mixed+long/2 {
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkpoint = mirror.Store().Generation()
		}
	}
	done.Store(true)
	wg.Wait()
	final := primary.Store().Generation()
	if lastEdit >= final-256 {
		t.Fatalf("the schedule ends %d generations after its last G edit; want more than 256", final-lastEdit)
	}

	// The primary, from generation 0 on.
	edits := []uint64{0, built}
	for b := built + 1; b <= final; b++ {
		if reported[b] == nil {
			edits = append(edits, b)
		}
	}
	checkView := func(label string, base uint64, v *core.View) {
		t.Helper()
		b := v.Generation()
		reported.check(t, label, base, b-1, v)
		reported.check(t, label, base, b-1-uint64(rng.Intn(int(min(b, 10)))), v)
		if b%16 == 0 || b == final {
			for _, e := range edits {
				if e < b {
					reported.check(t, label, base, e, v)
					reported.check(t, label, base, e-min(e, 1), v)
				}
			}
			reported.check(t, label, base, base, v)
			reported.check(t, label, base, b-min(b, 257), v)
		}
	}
	for b := built + 1; b <= final; b++ {
		if v := views[b]; v != nil {
			checkView("primary", 0, v)
		}
	}
	for _, obs := range observed {
		for _, o := range obs {
			want, wantOK := reported.want(0, o.a, o.v.Generation())
			if o.k != wantOK || !reflect.DeepEqual(o.f, want) {
				t.Fatalf("concurrent reader: ChangedSince(%d) at %d = %+v, %v; want %+v, %v", o.a, o.v.Generation(), o.f, o.k, want, wantOK)
			}
		}
	}

	// A replica following the WAL from the checkpoint.
	path, _, err := m.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := wal.RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if replica.Store().Generation() != checkpoint {
		t.Fatalf("replica restored at %d, the checkpoint was taken at %d", replica.Store().Generation(), checkpoint)
	}
	for {
		from := replica.Store().Generation()
		frames, next, err := m.ShipFrames(from, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if next == from {
			break
		}
		for off := 0; off < len(frames); {
			r, n, err := wal.DecodeFrame(frames[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += n
			if err := r.Apply(replica); err != nil {
				t.Fatal(err)
			}
			checkView("replica", checkpoint, replica.View())
		}
	}
	if replica.Store().Generation() != final {
		t.Fatalf("replica at %d, primary at %d", replica.Store().Generation(), final)
	}

	// A store recovered from the WAL: the checkpoint plus the tail.
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Store().Generation() != final {
		t.Fatalf("recovered to %d, want %d", recovered.Store().Generation(), final)
	}
	v := recovered.View()
	for a := uint64(0); a <= final; a += 1 + uint64(rng.Intn(7)) {
		reported.check(t, "recovered", checkpoint, a, v)
	}
	for _, a := range []uint64{checkpoint - 1, checkpoint, lastEdit - 1, lastEdit, final - 257, final - 1} {
		reported.check(t, "recovered", checkpoint, a, v)
	}
}
