package store

import (
	"fmt"
	"testing"

	"bdi/internal/rdf"
)

// benchStore builds a store with n quads spread over a mix of the default
// graph and 8 named graphs, with realistic term reuse: ~n distinct subjects,
// 16 predicates and n/8 distinct objects, so that 1-constant lookups return
// multi-quad result sets and 2-constant lookups stay selective. The load
// goes through AddAll — one snapshot publication and one sorted merge per
// touched bucket — the shape every bulk loader should use now that single
// Adds pay the copy-on-write snapshot publication per call.
func benchStore(n int) *Store {
	quads := make([]rdf.Quad, n)
	for i := 0; i < n; i++ {
		g := rdf.IRI("")
		if i%2 == 1 {
			g = rdf.IRI(fmt.Sprintf("http://bench/g%d", i%8))
		}
		quads[i] = rdf.Quad{
			Triple: rdf.T(
				rdf.IRI(fmt.Sprintf("http://bench/s%d", i)),
				rdf.IRI(fmt.Sprintf("http://bench/p%d", i%16)),
				rdf.IRI(fmt.Sprintf("http://bench/o%d", i%(n/8+1))),
			),
			Graph: g,
		}
	}
	s := New()
	if added, err := s.AddAll(quads); err != nil || added != n {
		panic(fmt.Sprintf("benchStore: AddAll = %d, %v", added, err))
	}
	return s
}

func benchSizes() []int { return []int{10000, 100000} }

// BenchmarkStoreMatch1Const measures single-constant subject lookups, the
// dominant shape issued by BGP evaluation and LAV resolution.
func BenchmarkStoreMatch1Const(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			pats := make([]Pattern, 64)
			for i := range pats {
				pats[i] = WildcardGraph(rdf.IRI(fmt.Sprintf("http://bench/s%d", i*37%n)), nil, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Snapshot().Match(pats[i%len(pats)]); len(got) == 0 {
					b.Fatal("expected a match")
				}
			}
		})
	}
}

// BenchmarkStoreMatch1ConstPredicate measures unscoped predicate-only
// lookups, which return large result sets (n/16 quads). No index is keyed on
// the predicate, so this is the filtered full scan, the fallback of every
// probe that binds no subject, object or graph.
func BenchmarkStoreMatch1ConstPredicate(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			p := WildcardGraph(nil, rdf.IRI("http://bench/p3"), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Snapshot().Match(p); len(got) == 0 {
					b.Fatal("expected a match")
				}
			}
		})
	}
}

// BenchmarkStoreMatch2Const measures subject+predicate lookups, the shape of
// fully-bound attribute probes.
func BenchmarkStoreMatch2Const(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			pats := make([]Pattern, 64)
			for i := range pats {
				j := i * 53 % n
				pats[i] = WildcardGraph(
					rdf.IRI(fmt.Sprintf("http://bench/s%d", j)),
					rdf.IRI(fmt.Sprintf("http://bench/p%d", j%16)),
					nil,
				)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Snapshot().Match(pats[i%len(pats)]); len(got) == 0 {
					b.Fatal("expected a match")
				}
			}
		})
	}
}

// BenchmarkStoreMatchFullScan measures the wildcard-everything scan used by
// Quads()/Clone().
func BenchmarkStoreMatchFullScan(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Snapshot().Match(Pattern{}); len(got) != n {
					b.Fatalf("scan returned %d quads", len(got))
				}
			}
		})
	}
}

// BenchmarkStoreMatchMixedGraph measures graph-restricted lookups plus
// GraphsContaining, the mixed-graph shape of Algorithm 4/5 LAV resolution.
func BenchmarkStoreMatchMixedGraph(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			triples := make([]rdf.Triple, 64)
			for i := range triples {
				j := (i*2+1)*41%n | 1
				triples[i] = rdf.T(
					rdf.IRI(fmt.Sprintf("http://bench/s%d", j)),
					rdf.IRI(fmt.Sprintf("http://bench/p%d", j%16)),
					rdf.IRI(fmt.Sprintf("http://bench/o%d", j%(n/8+1))),
				)
			}
			g := rdf.IRI("http://bench/g3")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Snapshot().Match(InGraph(g, nil, rdf.IRI("http://bench/p3"), nil))
				s.Snapshot().GraphsContaining(triples[i%len(triples)])
			}
		})
	}
}

// BenchmarkStoreMatchParallel1Const measures single-constant subject
// lookups issued from all GOMAXPROCS goroutines at once. Readers pin a
// snapshot per probe with one atomic load and never take a lock, so
// throughput should scale near-linearly with cores (the per-op time
// reported here is wall time per probe across all goroutines).
func BenchmarkStoreMatchParallel1Const(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			pats := make([]Pattern, 64)
			for i := range pats {
				pats[i] = WildcardGraph(rdf.IRI(fmt.Sprintf("http://bench/s%d", i*37%n)), nil, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if got := s.Snapshot().Match(pats[i%len(pats)]); len(got) == 0 {
						b.Fatal("expected a match")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreMatchParallel1ConstPredicate measures large-result
// predicate probes under full parallelism: each probe filters the full scan
// into an n/16-quad result, so this stresses concurrent allocation as well as
// the lock-free read path.
func BenchmarkStoreMatchParallel1ConstPredicate(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			p := WildcardGraph(nil, rdf.IRI("http://bench/p3"), nil)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if got := s.Snapshot().Match(p); len(got) == 0 {
						b.Fatal("expected a match")
					}
				}
			})
		})
	}
}

// BenchmarkStoreMatchParallelWithWriter measures reader throughput while a
// background writer continuously publishes new snapshots (one fresh quad of
// a churn graph each, so the store grows by little more than the quads),
// quantifying how much write traffic perturbs the lock-free read path.
func BenchmarkStoreMatchParallelWithWriter(b *testing.B) {
	n := 100000
	s := benchStore(n)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Add(rdf.Q(
				rdf.IRI(fmt.Sprintf("http://bench/churn-s%d", i)),
				rdf.IRI(fmt.Sprintf("http://bench/p%d", i%16)),
				rdf.IRI("http://bench/churn-o"),
				rdf.IRI("http://bench/churn"),
			)); err != nil {
				panic(err)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	pats := make([]Pattern, 64)
	for i := range pats {
		pats[i] = WildcardGraph(rdf.IRI(fmt.Sprintf("http://bench/s%d", i*37%n)), nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if got := s.Snapshot().Match(pats[i%len(pats)]); len(got) == 0 {
				b.Fatal("expected a match")
			}
			i++
		}
	})
}

// BenchmarkStoreAddAll measures bulk loading, exercising interning and the
// batched snapshot-publication path.
func BenchmarkStoreAddAll(b *testing.B) {
	n := 10000
	quads := make([]rdf.Quad, n)
	for i := 0; i < n; i++ {
		quads[i] = rdf.Q(
			rdf.IRI(fmt.Sprintf("http://bench/s%d", i)),
			rdf.IRI(fmt.Sprintf("http://bench/p%d", i%16)),
			rdf.IRI(fmt.Sprintf("http://bench/o%d", i%1251)),
			rdf.IRI(fmt.Sprintf("http://bench/g%d", i%8)),
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if added, err := s.AddAll(quads); err != nil || added != n {
			b.Fatalf("AddAll = %d, %v", added, err)
		}
	}
}

// BenchmarkStoreAddAllWarm measures bulk loading into a non-empty store —
// the wrapper (re-)registration path, which takes the copy-on-write merge
// route instead of the empty-store fast path. Per-graph index construction
// is deferred to first probe, so the measured cost is interning, arena
// appends and the union-index merges only.
func BenchmarkStoreAddAllWarm(b *testing.B) {
	n := 10000
	base := make([]rdf.Quad, n)
	batch := make([]rdf.Quad, n)
	for i := 0; i < n; i++ {
		base[i] = rdf.Q(
			rdf.IRI(fmt.Sprintf("http://bench/base-s%d", i)),
			rdf.IRI(fmt.Sprintf("http://bench/p%d", i%16)),
			rdf.IRI(fmt.Sprintf("http://bench/base-o%d", i%1251)),
			rdf.IRI(fmt.Sprintf("http://bench/base-g%d", i%8)),
		)
		batch[i] = rdf.Q(
			rdf.IRI(fmt.Sprintf("http://bench/s%d", i)),
			rdf.IRI(fmt.Sprintf("http://bench/p%d", i%16)),
			rdf.IRI(fmt.Sprintf("http://bench/o%d", i%1251)),
			rdf.IRI(fmt.Sprintf("http://bench/g%d", i%8)),
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		if added, err := s.AddAll(base); err != nil || added != n {
			b.Fatalf("warm load = %d, %v", added, err)
		}
		b.StartTimer()
		if added, err := s.AddAll(batch); err != nil || added != n {
			b.Fatalf("AddAll = %d, %v", added, err)
		}
	}
}
