package relational

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bdi/internal/lifecycle"
)

// The prepared-execution suite: a Union keeps the program its first
// execution compiles, and every later execution binds it to freshly fetched
// wrappers instead of compiling again. Nothing observable may tell the two
// apart: results, errors, the fetches made before an error, and the budget
// charged must all be what a fresh compile of the same union gives.

// preparedRender renders everything an answer exposes: its name, schema,
// JSON encoding and decoded tuples.
func preparedRender(a *IDRelation) string {
	body, err := a.AppendJSON(nil)
	if err != nil {
		body = []byte("encode error: " + err.Error())
	}
	return fmt.Sprintf("%s %v\n%s\n%s", a.Name, a.Schema, body, a.Relation().String())
}

// recordingResolver serves rels and logs every fetch. It fails the fetch
// numbered failAt and cancels the execution during the fetch numbered
// cancelAt (both counted from 1; 0 disables them).
type recordingResolver struct {
	rels     staticResolver
	failAt   int
	cancelAt int
	cancel   context.CancelFunc
	log      []string
}

func (r *recordingResolver) Fetch(ctx context.Context, w string, p Pushdown, d *ValueDict) (*ColRelation, error) {
	r.log = append(r.log, w)
	switch len(r.log) {
	case r.failAt:
		return nil, errors.New("source unavailable")
	case r.cancelAt:
		r.cancel()
	}
	return r.rels.Fetch(ctx, w, p, d)
}

// swapWrapper returns rels with the named wrapper replaced by a variant of
// it: a different schema (an attribute dropped, added or with its ID flag
// flipped), a different row count, a different relation name, or the same
// schema and row count with the rows reordered.
func swapWrapper(rels staticResolver, name string, variant int) staticResolver {
	old := rels[name]
	rel := &Relation{Name: old.Name, Schema: Schema{Attributes: slices.Clone(old.Schema.Attributes)}, Tuples: slices.Clone(old.Tuples)}
	attrs := rel.Schema.Attributes
	if len(attrs) == 0 {
		variant = 3
	}
	switch variant {
	case 0:
		rel.Schema.Attributes = attrs[:len(attrs)-1]
	case 1:
		rel.Schema.Attributes = append(attrs, Attribute{Name: "extra"})
		for i, t := range rel.Tuples {
			rel.Tuples[i] = t.Clone()
			rel.Tuples[i]["extra"] = i % 2
		}
	case 2:
		attrs[0].ID = !attrs[0].ID
	case 3:
		rel.Tuples = append(rel.Tuples, Tuple{})
	case 4:
		rel.Name += "'"
	case 5:
		slices.Reverse(rel.Tuples)
	}
	out := maps.Clone(rels)
	out[name] = rel
	return out
}

const swapVariants = 6

// TestPreparedExecutionParity runs the differential generators' unions and
// holds a union's kept program and dictionary to a fresh union: a repeat
// gives the cold execution's bytes; after a wrapper is swapped for a variant
// under the same name the answer is a fresh compile's; a failing fetch and a
// cancellation give a fresh compile's error after the same fetches, and a
// tripped budget the same error at the same charge on every run; values the
// kept dictionary lacks, all of them or some, and a LIMIT give a fresh
// union's answer; and concurrent executions of one union, some of them over
// swapped wrappers or fresh values, each give their fresh union's answer
// (run under -race in CI).
func TestPreparedExecutionParity(t *testing.T) {
	seeds := []int64{5, 77, 4242}
	cases := 40
	if testing.Short() {
		cases = 10
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			for c := 0; c < cases; c++ {
				data := make([]byte, 48+rng.Intn(160))
				gen := generateCase
				if c%2 == 1 {
					data, gen = make([]byte, 512+rng.Intn(512)), generateSharedCase
				}
				rng.Read(data)
				gc := gen(data)
				// An unnamed union is named after its first walk's relations.
				name := []string{"answer", ""}[c/2%2]
				checkPreparedParity(t, gc, name)
				if t.Failed() {
					t.Fatalf("case %d (bytes %x) failed", c, data)
				}
			}
		})
	}
}

func checkPreparedParity(t *testing.T, gc *genCase, name string) {
	t.Helper()
	u := gc.ucq()
	output := u.execOptions(gc.requested).Output
	newUnion := func() *Union { return NewUnion(u.Walks, name, output) }
	run := func(ctx context.Context, un *Union, resolver WrapperResolver) string {
		a, err := un.Execute(ctx, resolver, 0)
		if err != nil {
			return "error: " + err.Error()
		}
		return preparedRender(a)
	}
	// charged is run under a tracker, with what it charged when it succeeds.
	charged := func(un *Union, resolver WrapperResolver) string {
		tr := lifecycle.NewTracker(lifecycle.Budget{})
		out := run(lifecycle.WithTracker(context.Background(), tr), un, resolver)
		if p := tr.Progress(); !strings.HasPrefix(out, "error: ") {
			out += fmt.Sprintf("\ncharged %d rows, %d bytes", p.Rows, p.Bytes)
		}
		return out
	}
	ctx := context.Background()
	rels := staticResolver(gc.rels)
	diag := func() string { return fmt.Sprintf("ucq:\n%s\nrequested: %v", u, gc.requested) }
	same := func(what, fresh, kept string) {
		t.Helper()
		if fresh != kept {
			t.Errorf("%s diverges from a fresh compile\nfresh:\n%s\nkept:\n%s\n%s", what, fresh, kept, diag())
		}
	}

	// A repeat from the kept program.
	kept := newUnion()
	cold := run(ctx, kept, rels)
	same("a repeat", cold, run(ctx, kept, rels))

	// Fetch failures and cancellation, at every fetch of the union: the same
	// error after the same fetches, in the same order.
	names := slices.Sorted(maps.Keys(gc.rels))
	for k := 1; k <= len(names); k++ {
		for _, cancelling := range []bool{false, true} {
			try := func(un *Union) string {
				ctx, cancel := context.WithCancel(ctx)
				defer cancel()
				r := &recordingResolver{rels: rels, cancel: cancel}
				if cancelling {
					r.cancelAt = k
				} else {
					r.failAt = k
				}
				return fmt.Sprintf("%s\nfetches: %v", run(ctx, un, r), r.log)
			}
			same(fmt.Sprintf("failing fetch %d (cancelling: %v)", k, cancelling), try(newUnion()), try(kept))
		}
	}

	// Budgets tripping during the bind and during the walks. The walks charge
	// in one order, so the text — the amount used included — and the charge
	// at the trip match exactly, on every run.
	tracker := lifecycle.NewTracker(lifecycle.Budget{})
	run(lifecycle.WithTracker(ctx, tracker), newUnion(), rels)
	total := tracker.Progress()
	for _, budget := range []lifecycle.Budget{
		{MaxRows: 1}, {MaxRows: total.Rows / 2}, {MaxRows: total.Rows - 1},
		{MaxBytes: 1}, {MaxBytes: total.Bytes / 2}, {MaxBytes: total.Bytes - 1},
	} {
		if budget.MaxRows <= 0 && budget.MaxBytes <= 0 {
			continue
		}
		try := func(un *Union) (string, string) {
			tr := lifecycle.NewTracker(budget)
			a, err := un.Execute(lifecycle.WithTracker(ctx, tr), rels, 0)
			p := tr.Progress()
			charge := fmt.Sprintf("%d rows, %d bytes", p.Rows, p.Bytes)
			if err != nil {
				return "error: " + err.Error(), charge
			}
			return preparedRender(a), charge
		}
		freshOut, freshCharge := try(newUnion())
		keptOut, keptCharge := try(kept)
		same(fmt.Sprintf("budget %+v", budget), freshOut, keptOut)
		same(fmt.Sprintf("the charge under budget %+v", budget), freshCharge, keptCharge)
		againOut, againCharge := try(kept)
		same(fmt.Sprintf("a repeat under budget %+v", budget), freshOut, againOut)
		same(fmt.Sprintf("the charge of a repeat under budget %+v", budget), freshCharge, againCharge)
	}

	// Wrappers swapped under the same name between executions: the kept
	// program must notice and give a fresh compile's answer, and go back.
	swaps := make([]staticResolver, swapVariants)
	want := make([]string, swapVariants)
	for v := range swaps {
		swaps[v] = swapWrapper(rels, names[v%len(names)], v)
		same(fmt.Sprintf("swap variant %d", v), charged(newUnion(), swaps[v]), charged(kept, swaps[v]))
		same(fmt.Sprintf("the original after swap variant %d", v), charged(newUnion(), rels), charged(kept, rels))
		want[v] = run(ctx, newUnion(), swaps[v])
	}

	// Values the kept dictionary lacks: every number and string new in a
	// round, or only the numbers, rows in either order — so that a value the
	// dictionary holds comes back first as another member of its equality
	// class — and the original data after them.
	rounds := []staticResolver{
		freshValues(rels, 1, false, false), freshValues(rels, 1, false, true),
		freshValues(rels, 2, true, false), freshValues(rels, 2, true, true),
		freshValues(rels, 3, false, true),
	}
	for k, round := range rounds {
		same(fmt.Sprintf("fresh values, round %d", k), charged(newUnion(), round), charged(kept, round))
	}
	same("the original after fresh values", charged(newUnion(), rels), charged(kept, rels))

	// LIMIT over the kept dictionary.
	for _, limit := range []int{1, 2, 5} {
		limited := func(un *Union) string {
			a, err := un.Execute(ctx, rels, limit)
			if err != nil {
				return "error: " + err.Error()
			}
			return preparedRender(a)
		}
		same(fmt.Sprintf("limit %d", limit), limited(newUnion()), limited(kept))
	}

	// Concurrent executions of one union over alternating wrapper versions
	// and values.
	alts := append(slices.Clone(swaps), rounds...)
	for _, round := range rounds {
		want = append(want, run(ctx, newUnion(), round))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				resolver, expect := rels, cold
				if v := (g*3 + k) % (len(alts) + 2); v < len(alts) {
					resolver, expect = alts[v], want[v]
				}
				if got := run(ctx, kept, resolver); got != expect {
					t.Errorf("concurrent execution %d.%d diverges from a fresh compile\nfresh:\n%s\nkept:\n%s\n%s", g, k, expect, got, diag())
				}
			}
		}()
	}
	wg.Wait()
}

// freshValues returns rels with every number moved by k million and, unless
// numbersOnly, every string suffixed with k, so that a value of one k is no
// value of another; reversed reverses every relation's rows.
func freshValues(rels staticResolver, k int, numbersOnly, reversed bool) staticResolver {
	out := staticResolver{}
	for name, old := range rels {
		rel := &Relation{Name: old.Name, Schema: old.Schema, Tuples: make([]Tuple, len(old.Tuples))}
		for i, t := range old.Tuples {
			nt := Tuple{}
			for a, v := range t {
				switch x := v.(type) {
				case int:
					v = x + k*1e6
				case int64:
					v = x + int64(k)*1e6
				case float64:
					v = x + float64(k)*1e6
				case string:
					if !numbersOnly {
						v = fmt.Sprintf("%s#%d", x, k)
					}
				}
				nt[a] = v
			}
			rel.Tuples[i] = nt
		}
		if reversed {
			slices.Reverse(rel.Tuples)
		}
		out[name] = rel
	}
	return out
}
