package relational

import (
	"context"
	"testing"
)

// FuzzWalkExecution feeds fuzzer-mutated byte slices through the case
// generator and asserts engine/reference parity on every decoded case: no
// panics anywhere in compilation or execution, identical canonical results,
// identical structural error messages. The seed corpus below (plus the files
// under testdata/fuzz/FuzzWalkExecution) covers single-wrapper walks, chains,
// shared attribute names, filters and each error path; `go test -fuzz
// FuzzWalkExecution ./internal/relational/` explores from there.
func FuzzWalkExecution(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte("parity"))
	f.Add([]byte{37, 2, 1, 0, 3, 1, 2, 0, 1, 4, 5, 0, 0, 1, 2, 0, 99, 50, 1, 0, 0, 2, 3, 4})
	f.Add([]byte{
		0x22, 0x03, 0x01, 0x00, 0x02, 0x01, 0x01, 0x00, 0x05, 0x06,
		0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09,
		0x63, 0x02, 0x02, 0x01, 0x00, 0x00, 0x31, 0x31, 0x00, 0x00,
		0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02,
	})
	f.Add([]byte{
		0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6,
		0xf5, 0xf4, 0xf3, 0xf2, 0xf1, 0xf0, 0xef, 0xee, 0xed, 0xec,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every input decodes twice: as a handful of independent walks, and
		// as many walks over few wrappers (the shape whose per-wrapper work
		// the engine shares across walks).
		for _, gc := range []*genCase{generateCase(data), generateSharedCase(data)} {
			resolver := staticResolver(gc.rels)
			u := gc.ucq()
			ctx := context.Background()

			ref, refErr := u.ExecuteReference(ctx, resolver, gc.requested)
			got, gotErr := u.Execute(ctx, resolver, gc.requested)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("error parity broken\nreference: %v\nengine:    %v\nucq:\n%s", refErr, gotErr, u)
			}
			if refErr != nil {
				if refErr.Error() != gotErr.Error() {
					t.Fatalf("error text parity broken\nreference: %v\nengine:    %v\nucq:\n%s", refErr, gotErr, u)
				}
				continue
			}
			if canonical(ref) != canonical(got) {
				t.Fatalf("result parity broken\nreference:\n%s\nengine:\n%s\nucq:\n%s",
					canonical(ref), canonical(got), u)
			}
		}
	})
}
