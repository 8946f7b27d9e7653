package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
)

// TestCheckpointConcurrentWithTraffic hammers the non-blocking claim: while
// writers register releases and readers pin snapshots and probe, checkpoints
// run back to back. Readers must never observe a torn batch (their pinned
// generation's quad count must be monotonic), writers must never fail, and a
// final recovery must land exactly on the last published generation. CI runs
// this under -race, so any unsynchronized access between the checkpoint
// writer (which walks snapshot buckets and the dict table) and live
// writers/readers fails the build.
func TestCheckpointConcurrentWithTraffic(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}

	const (
		sides    = 4
		releases = 24
		readers  = 3
	)
	for i := 0; i < sides; i++ {
		op := sideConceptOp(i)
		if err := op.run(o); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	writerDone := make(chan struct{})

	// Writer: a stream of releases; the other loops wind down after it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for i := 0; i < releases; i++ {
			op := sideReleaseOp(i%sides, i+1)
			if err := op.run(o); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Checkpointer: back-to-back checkpoints during the writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := m.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: pin snapshots and verify internal consistency.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			var lastLen int
			for !stop.Load() {
				sn := o.Store().Snapshot()
				if sn.Generation() < lastGen {
					errs <- errGenerationWentBackwards
					return
				}
				n := len(sn.MatchWithIDs(store.Pattern{}))
				if n != sn.Len() {
					errs <- errTornRead
					return
				}
				if sn.Generation() == lastGen && n != lastLen && lastGen != 0 {
					errs <- errTornRead
					return
				}
				lastGen, lastLen = sn.Generation(), n
			}
		}()
	}

	// Wind down once the writer is done.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-writerDone
		stop.Store(true)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantQuads := o.Store().Quads()
	wantGen := o.Store().Generation()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	o2, rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Store().Generation() != wantGen {
		t.Fatalf("recovered generation %d, want %d (recovery: %+v)", o2.Store().Generation(), wantGen, rec)
	}
	quadsEqual(t, o2.Store().Quads(), wantQuads)
}

var (
	errGenerationWentBackwards = errConst("snapshot generation went backwards")
	errTornRead                = errConst("snapshot observed a torn batch")
)

type errConst string

func (e errConst) Error() string { return string(e) }

// TestAutoCheckpointFires: with a tiny byte threshold, appends trigger a
// background checkpoint without any explicit call.
func TestAutoCheckpointFires(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := o.Store().Add(rdf.Quad{Triple: rdf.T(
			"http://ex/auto/s",
			"http://ex/auto/p",
			rdf.IRI(fmt.Sprintf("http://ex/auto/o%d", i)),
		)}); err != nil {
			t.Fatal(err)
		}
	}
	// The threshold was crossed many times over; wait for at least one
	// background checkpoint (beyond the initial one at Open) to land.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().CheckpointsWritten < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auto checkpoint never fired: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
