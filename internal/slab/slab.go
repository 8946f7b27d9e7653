// Package slab provides chunked, append-only arenas that pack many small
// values into a handful of large allocations addressed by integer offsets.
//
// The point is garbage-collector pressure: a quad store holding millions of
// index entries as individual heap objects ([]*entry buckets, one string per
// sort key) forces the collector to traverse millions of pointers on every
// mark phase, and the paper's query-answering bar becomes GC-bound. Packing
// the same data into fixed-capacity chunks of pointer-free structs turns
// those millions of scannable objects into a few dozen noscan arrays: the
// collector's work no longer grows with the number of quads.
//
// # Concurrency contract
//
// A slab has exactly one writer at a time (in the store, the holder of the
// writer mutex). Readers never touch the slab directly: they hold a View,
// a cheap copy of the chunk table taken at publication time. Two properties
// make views safe without locks or atomics:
//
//   - Chunks never move. A chunk is allocated at fixed capacity and grows
//     only by writes to never-before-published slots; append never
//     reallocates a chunk, so a reference captured in a view stays valid
//     forever.
//   - Views copy the chunk table. The writer may grow (and reallocate) its
//     own table, but a view's copy is private, so the writer's mutation is
//     invisible to it.
//
// A reader may only dereference offsets that were published to it (e.g.
// through an atomically-published snapshot whose buckets were filled before
// publication); the happens-before edge of that publication orders the
// writer's slot writes before the reader's loads.
package slab

// chunkBits sizes Slots chunks: 1<<chunkBits slots per chunk. 32768 slots of
// a 28-byte entry is under a megabyte per chunk — large enough that a 100k
// quad store is a handful of arrays, small enough that tiny stores do not
// balloon.
const (
	chunkBits = 15
	chunkCap  = 1 << chunkBits
	chunkMask = chunkCap - 1
)

// byteChunkSize is the default capacity of a Bytes chunk.
const byteChunkSize = 1 << 20

// Ref addresses one byte range inside a Bytes slab.
type Ref struct {
	Chunk uint32
	Off   uint32
	Len   uint32
}

// Bytes is an append-only byte arena. Ranges never span chunks; a range
// larger than the chunk size gets a dedicated chunk of exactly its length.
type Bytes struct {
	chunks [][]byte
}

// NewBytes returns an empty byte slab.
func NewBytes() *Bytes { return &Bytes{} }

// Append copies b into the slab and returns its address.
func (s *Bytes) Append(b []byte) Ref {
	n := len(b)
	ci := len(s.chunks) - 1
	if ci < 0 || cap(s.chunks[ci])-len(s.chunks[ci]) < n {
		size := byteChunkSize
		if n > size {
			size = n
		}
		s.chunks = append(s.chunks, make([]byte, 0, size))
		ci = len(s.chunks) - 1
	}
	c := s.chunks[ci]
	off := len(c)
	s.chunks[ci] = append(c, b...)
	return Ref{Chunk: uint32(ci), Off: uint32(off), Len: uint32(n)}
}

// Bytes returns the writer-side view of a range.
func (s *Bytes) Bytes(r Ref) []byte {
	return s.chunks[r.Chunk][r.Off : r.Off+r.Len : r.Off+r.Len]
}

// Truncate discards the range r and every range appended after it, so the
// next Append reuses their bytes. Only ranges never published to a view may
// be discarded (see the package comment).
func (s *Bytes) Truncate(r Ref) {
	clear(s.chunks[r.Chunk+1:])
	s.chunks = s.chunks[:r.Chunk+1]
	s.chunks[r.Chunk] = s.chunks[r.Chunk][:r.Off]
}

// Size returns the total number of bytes appended.
func (s *Bytes) Size() int64 {
	var n int64
	for _, c := range s.chunks {
		n += int64(len(c))
	}
	return n
}

// View captures the current chunk table for lock-free readers.
func (s *Bytes) View() BytesView {
	v := BytesView{chunks: make([][]byte, len(s.chunks))}
	copy(v.chunks, s.chunks)
	return v
}

// BytesView is an immutable reader view of a Bytes slab. The zero value
// resolves nothing and must not be dereferenced.
type BytesView struct {
	chunks [][]byte
}

// Bytes resolves a range. The ref must have been published to this view's
// reader (see the package comment).
func (v BytesView) Bytes(r Ref) []byte {
	c := v.chunks[r.Chunk]
	return c[r.Off : r.Off+r.Len : r.Off+r.Len]
}

// Slots is an append-only arena of fixed-size values addressed by dense
// uint32 indexes. T should be pointer-free so chunks are invisible to the
// garbage collector's mark phase.
type Slots[T any] struct {
	chunks [][]T
	n      uint32
}

// NewSlots returns an empty slot arena.
func NewSlots[T any]() *Slots[T] { return &Slots[T]{} }

// Append stores v and returns its index.
func (s *Slots[T]) Append(v T) uint32 {
	ci := int(s.n >> chunkBits)
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, 0, chunkCap))
	}
	s.chunks[ci] = append(s.chunks[ci], v)
	i := s.n
	s.n++
	return i
}

// At returns the writer-side slot i.
func (s *Slots[T]) At(i uint32) *T {
	return &s.chunks[i>>chunkBits][i&chunkMask]
}

// Truncate discards slot n and every later one, so the next Append returns
// n. Only slots never published to a view may be discarded (see the package
// comment).
func (s *Slots[T]) Truncate(n uint32) {
	if n >= s.n {
		return
	}
	keep := int((n + chunkMask) >> chunkBits)
	clear(s.chunks[keep:])
	s.chunks = s.chunks[:keep]
	if n&chunkMask != 0 {
		s.chunks[keep-1] = s.chunks[keep-1][:n&chunkMask]
	}
	s.n = n
}

// Len returns the number of slots appended.
func (s *Slots[T]) Len() uint32 { return s.n }

// View captures the current chunk table for lock-free readers.
func (s *Slots[T]) View() SlotsView[T] {
	v := SlotsView[T]{chunks: make([][]T, len(s.chunks))}
	copy(v.chunks, s.chunks)
	return v
}

// SlotsView is an immutable reader view of a Slots arena. The zero value
// resolves nothing and must not be dereferenced.
type SlotsView[T any] struct {
	chunks [][]T
}

// At resolves slot i. The index must have been published to this view's
// reader (see the package comment).
func (v SlotsView[T]) At(i uint32) *T {
	return &v.chunks[i>>chunkBits][i&chunkMask]
}
