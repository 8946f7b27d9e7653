package slab

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBytesAppendAndViews(t *testing.T) {
	s := NewBytes()
	var refs []Ref
	var want [][]byte
	for i := 0; i < 1000; i++ {
		b := []byte(fmt.Sprintf("payload-%d", i))
		refs = append(refs, s.Append(b))
		want = append(want, b)
	}
	// An oversize range gets its own chunk and round-trips intact.
	big := bytes.Repeat([]byte{0xAB}, byteChunkSize+17)
	bigRef := s.Append(big)
	if bigRef.Len != uint32(len(big)) {
		t.Fatalf("oversize ref len = %d, want %d", bigRef.Len, len(big))
	}
	v := s.View()
	for i, r := range refs {
		if got := v.Bytes(r); !bytes.Equal(got, want[i]) {
			t.Fatalf("view range %d = %q, want %q", i, got, want[i])
		}
		if got := s.Bytes(r); !bytes.Equal(got, want[i]) {
			t.Fatalf("writer range %d = %q, want %q", i, got, want[i])
		}
	}
	if !bytes.Equal(v.Bytes(bigRef), big) {
		t.Fatal("oversize range corrupted")
	}
	size := s.Size()
	// Appending after the view was taken must not disturb it.
	s.Append([]byte("later"))
	if got := v.Bytes(refs[0]); !bytes.Equal(got, want[0]) {
		t.Fatal("view invalidated by later append")
	}
	if s.Size() <= size {
		t.Fatal("Size did not grow")
	}
}

func TestSlotsAppendAndViews(t *testing.T) {
	type slot struct{ a, b uint64 }
	s := NewSlots[slot]()
	n := uint32(3*chunkCap + 17) // span several chunks
	for i := uint32(0); i < n; i++ {
		if got := s.Append(slot{a: uint64(i), b: uint64(i) * 3}); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	v := s.View()
	for _, i := range []uint32{0, 1, chunkCap - 1, chunkCap, 2*chunkCap + 5, n - 1} {
		if got := v.At(i); got.a != uint64(i) || got.b != uint64(i)*3 {
			t.Fatalf("view slot %d = %+v", i, got)
		}
		if got := s.At(i); got.a != uint64(i) {
			t.Fatalf("writer slot %d = %+v", i, got)
		}
	}
	s.Append(slot{a: 999})
	if got := v.At(n - 1); got.a != uint64(n-1) {
		t.Fatal("view invalidated by later append")
	}
}

// TestTruncateReusesUnpublishedTail discards an unpublished tail of both
// arenas, within a chunk and across chunk boundaries, and checks that the
// next appends reuse its offsets while a view taken before the tail keeps
// resolving.
func TestTruncateReusesUnpublishedTail(t *testing.T) {
	type slot struct{ a uint64 }
	for _, keep := range []uint32{0, 5, chunkCap, chunkCap + 3} {
		s, b := NewSlots[slot](), NewBytes()
		var refs []Ref
		for i := uint32(0); i < keep; i++ {
			s.Append(slot{a: uint64(i)})
			refs = append(refs, b.Append([]byte(fmt.Sprint(i))))
		}
		sv, bv := s.View(), b.View()
		first := b.Append(bytes.Repeat([]byte{'x'}, byteChunkSize-1))
		for i := uint32(0); i < 2*chunkCap; i++ {
			s.Append(slot{a: 1 << 40})
			b.Append([]byte("vetoed"))
		}
		s.Truncate(keep)
		b.Truncate(first)
		if s.Len() != keep {
			t.Fatalf("keep %d: Len = %d after Truncate", keep, s.Len())
		}
		if got := s.Append(slot{a: 7}); got != keep || s.At(keep).a != 7 {
			t.Fatalf("keep %d: Append after Truncate = %d (%+v)", keep, got, *s.At(got))
		}
		if r := b.Append([]byte("next")); r.Chunk != first.Chunk || r.Off != first.Off {
			t.Fatalf("keep %d: Append after Truncate = %+v, want the truncated %+v", keep, r, first)
		} else if string(b.Bytes(r)) != "next" {
			t.Fatalf("keep %d: reused range = %q", keep, b.Bytes(r))
		}
		for i := uint32(0); i < keep; i++ {
			if sv.At(i).a != uint64(i) || s.At(i).a != uint64(i) || string(bv.Bytes(refs[i])) != fmt.Sprint(i) {
				t.Fatalf("keep %d: slot %d lost by Truncate", keep, i)
			}
		}
	}
}
