package wal

import (
	"fmt"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
)

func benchQuads(n int) []rdf.Quad {
	quads := make([]rdf.Quad, n)
	for i := range quads {
		quads[i] = rdf.Quad{
			Triple: rdf.T(
				rdf.IRI(fmt.Sprintf("http://ex/bench/s%d", i/10)),
				rdf.IRI(fmt.Sprintf("http://ex/bench/p%d", i%17)),
				rdf.IRI(fmt.Sprintf("http://ex/bench/o%d", i)),
			),
			Graph: rdf.IRI(fmt.Sprintf("http://ex/bench/g%d", i%4)),
		}
	}
	return quads
}

// BenchmarkWALAppend measures the raw journaling cost of a 100-quad batch
// record per fsync policy (the store itself is not involved).
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncOff, SyncBatch, SyncAlways} {
		b.Run(string(policy), func(b *testing.B) {
			l, err := openLog(b.TempDir(), 0, policy)
			if err != nil {
				b.Fatal(err)
			}
			defer l.close()
			quads := benchQuads(100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.append(&record{gen: uint64(i + 1), quads: quads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreAddAllWAL measures the end-to-end write amplification the
// acceptance criterion bounds: AddAll of 10k quads into a non-empty durable
// store versus the same store without a WAL (sub-benchmark "none"). At
// -wal-sync=batch the durable path must stay within 2x of the in-memory
// path.
func BenchmarkStoreAddAllWAL(b *testing.B) {
	const n = 10_000
	run := func(b *testing.B, attach func(s *store.Store) func()) {
		quads := benchQuads(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := store.New()
			// Pre-populate so the batch exercises the regular merge path, not
			// the empty-store fast path.
			if _, err := s.AddAll(benchQuads(64)); err != nil {
				b.Fatal(err)
			}
			detach := attach(s)
			b.StartTimer()
			if _, err := s.AddAll(quads); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			detach()
			b.StartTimer()
		}
	}
	b.Run("none", func(b *testing.B) {
		run(b, func(*store.Store) func() { return func() {} })
	})
	for _, policy := range []SyncPolicy{SyncOff, SyncBatch, SyncAlways} {
		b.Run("sync="+string(policy), func(b *testing.B) {
			dir := b.TempDir()
			run(b, func(s *store.Store) func() {
				l, err := openLog(dir, 0, policy)
				if err != nil {
					b.Fatal(err)
				}
				s.SetCommitHook(func(batch store.Batch) error {
					return l.append(&record{gen: batch.Generation, quads: batch.Quads})
				})
				return func() {
					s.SetCommitHook(nil)
					l.close()
				}
			})
		})
	}
}

// BenchmarkStoreAddAllBulkFastPath measures the empty-store fast path the
// ROADMAP asked for: 10k quads into a fresh store build one snapshot with
// plain appends instead of per-bucket COW merges.
func BenchmarkStoreAddAllBulkFastPath(b *testing.B) {
	quads := benchQuads(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := store.New()
		if _, err := s.AddAll(quads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures serializing a checkpoint of the SUPERSEDE
// ontology (write path only; no log rotation).
func BenchmarkCheckpoint(b *testing.B) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		b.Fatal(err)
	}
	sn := o.Store().Snapshot()
	terms := sn.Dict().Terms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data := encodeCheckpoint(sn, terms); len(data) == 0 {
			b.Fatal("empty checkpoint")
		}
	}
}

// BenchmarkRecovery measures a full Open (checkpoint load + WAL replay)
// of a data dir whose WAL tail holds half the workload.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		b.Fatal(err)
	}
	quads := benchQuads(10_000)
	// Half the data lands in a checkpoint, half stays in the WAL tail.
	if _, err := o.Store().AddAll(quads[:5_000]); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 5_000; i < len(quads); i += 500 {
		if _, err := o.Store().AddAll(quads[i : i+500]); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Abort(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o2, rec, err := Inspect(dir)
		if err != nil {
			b.Fatal(err)
		}
		if o2.Store().Len() == 0 || rec.RecordsReplayed == 0 {
			b.Fatalf("recovery did no work: %+v", rec)
		}
	}
}
