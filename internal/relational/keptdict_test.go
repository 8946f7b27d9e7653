package relational

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The kept-dictionary suite: a Union keeps the dictionary of its last
// execution frozen and the next execution extends it. The renderings must be
// a fresh dictionary's and the kept dictionary must stay bounded per union.
// The bound over all unions a rewriting cache holds is the cache's
// (rewriting's TestCacheBoundsKeptValues).

// TestEqualityClassRenderings pins what the members of one equality class
// share: their valueKey always, their JSON but for the sign of a zero, and not
// their %v rendering. That is why a dictionary decodes the first value it
// interned, and why an execution whose first value of a class is not the
// kept dictionary's representative decodes its own.
func TestEqualityClassRenderings(t *testing.T) {
	negZero := math.Copysign(0, -1)
	classes := [][]Value{
		{float64(1e6), 1000000, int64(1000000)},
		{float64(12), 12, int64(12)},
		{0, float64(0), int64(0), negZero},
	}
	for _, class := range classes {
		j0, _ := json.Marshal(class[0])
		for _, v := range class[1:] {
			if keyOf(v) != keyOf(class[0]) || valueKey(v) != valueKey(class[0]) {
				t.Errorf("%T(%v) and %T(%v) are not of one class", v, v, class[0], class[0])
			}
			if j, _ := json.Marshal(v); string(j) != string(j0) && v != Value(negZero) {
				t.Errorf("%T(%v) encodes as %s, %T(%v) as %s", v, v, j, class[0], class[0], j0)
			}
		}
	}
	for _, c := range []struct {
		v         Value
		fmt, json string
	}{
		{float64(1e6), "1e+06", "1000000"},
		{1000000, "1000000", "1000000"},
		{negZero, "-0", "-0"},
		{0, "0", "0"},
	} {
		j, _ := json.Marshal(c.v)
		if got := fmt.Sprint(c.v); got != c.fmt || string(j) != c.json {
			t.Errorf("%T(%v) renders %q and encodes %s, want %q and %s", c.v, c.v, got, j, c.fmt, c.json)
		}
	}
}

// oneColumnUnion returns a one-walk union over wrapper w and the relation
// holding values as column v, with id "r<row number>".
func oneColumnUnion(values ...Value) (*Union, staticResolver) {
	schema := NewSchema([]string{"id"}, []string{"v"})
	rel := NewRelation("w", schema)
	for i, v := range values {
		rel.Add(Tuple{"id": fmt.Sprintf("r%d", i), "v": v})
	}
	return NewUnion([]*Walk{NewWalk("w", "S", "id", "v")}, "answer", nil), staticResolver{"w": rel}
}

// TestKeptDictionaryRendersAsFresh executes one union over values whose
// classes its kept dictionary holds under another member: the answer, its
// decoded text and its JSON are a fresh union's, and a value JSON cannot
// encode fails every execution that outputs it.
func TestKeptDictionaryRendersAsFresh(t *testing.T) {
	negZero := math.Copysign(0, -1)
	kept, _ := oneColumnUnion()
	render := func(un *Union, r staticResolver) string {
		a, err := un.Execute(context.Background(), r, 0)
		if err != nil {
			return "error: " + err.Error()
		}
		return preparedRender(a)
	}
	for i, values := range [][]Value{
		{float64(1e6), "a", 0.0},
		{1000000, "a", negZero},
		{float64(1e6), "a", 0.0, int64(1000000)},
		{math.NaN(), 1000000},
		{math.NaN(), 1000000, "b"},
		{"b", math.NaN()},
		{math.NaN(), "b"},
	} {
		fresh, r := oneColumnUnion(values...)
		want := render(fresh, r)
		if got := render(kept, r); got != want {
			t.Errorf("execution %d over %v diverges from a fresh union\nfresh:\n%s\nkept:\n%s", i, values, want, got)
		}
		if i == 1 && (!strings.Contains(want, "1000000") || strings.Contains(want, "1e+06") || !strings.Contains(want, "-0")) {
			t.Errorf("execution %d decodes another member of the class:\n%s", i, want)
		}
		if i >= 3 && !strings.Contains(want, "encode error") {
			t.Errorf("execution %d encodes a NaN:\n%s", i, want)
		}
	}
}

// TestKeptDictionaryCarriesRenderings executes one union three times, each
// execution bringing one value the last did not: after each AppendJSON every
// value the union keeps has its key and its JSON, including those rendered
// after the execution froze the dictionary, so the next execution renders
// only its own new value. An overriding value is marshaled once per
// execution, not once per row.
func TestKeptDictionaryCarriesRenderings(t *testing.T) {
	un, _ := oneColumnUnion()
	for k := 0; k < 3; k++ {
		_, r := oneColumnUnion("a", 1.5, fmt.Sprintf("new%d", k))
		a, err := un.Execute(context.Background(), r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
		d := un.dict.Load()
		for _, e := range d.ents {
			if e.key.Load() == nil || e.json.Load() == nil {
				t.Errorf("execution %d: the kept dictionary lacks a rendering of %v", k, e.v)
			}
		}
	}

	const rows = 200
	values := make([]Value, rows)
	for i := range values {
		values[i] = float64(1e6)
	}
	un, r := oneColumnUnion(values...)
	if _, err := un.Execute(context.Background(), r, 0); err != nil {
		t.Fatal(err)
	}
	for i := range values {
		r["w"].Tuples[i]["v"] = 1000000
	}
	a, err := un.Execute(context.Background(), r, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1<<16)
	if allocs := testing.AllocsPerRun(5, func() { dst, _ = a.AppendJSON(dst[:0]) }); allocs > rows/4 {
		t.Errorf("encoding %d rows of one overriding value allocated %.0f objects", rows, allocs)
	}
}

// TestKeptDictionaryBounded executes one union 200 times over a source whose
// values all change on every fetch, and 200 times over one where half of them
// do: its kept dictionary stays within twice one execution's distinct values
// plus 64, and every 25th answer is a fresh union's.
func TestKeptDictionaryBounded(t *testing.T) {
	const rows, distinct = 100, 200 // an id and a v per row
	for _, half := range []bool{false, true} {
		kept, _ := oneColumnUnion()
		checked := 0
		for k := 0; k < 200; k++ {
			values := make([]Value, rows)
			for i := range values {
				values[i] = fmt.Sprintf("v%d", k*rows+i)
				if half && i%2 == 0 {
					values[i] = fmt.Sprintf("v%d", i)
				}
			}
			fresh, r := oneColumnUnion(values...)
			// The ids are the same on every fetch; make them new too.
			for i, tup := range r["w"].Tuples {
				if !half || i%2 == 1 {
					tup["id"] = k*rows + i
				}
			}
			a, err := kept.Execute(context.Background(), r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if k%25 == 0 {
				b, err := fresh.Execute(context.Background(), r, 0)
				if err != nil {
					t.Fatal(err)
				}
				if preparedRender(a) != preparedRender(b) {
					t.Fatalf("half=%v, execution %d diverges from a fresh union", half, k)
				}
			}
			if d := kept.dict.Load(); d != nil {
				checked++
				if len(d.ents) > 2*distinct+64 {
					t.Fatalf("half=%v: after execution %d the union keeps %d values; one execution touches %d", half, k, len(d.ents), distinct)
				}
			}
		}
		if checked < 50 {
			t.Fatalf("half=%v: the union kept a dictionary after %d of 200 executions", half, checked)
		}
	}
}

// Intern returns the ValueID for v, assigning a fresh one on first sight.
func (d *ValueDict) Intern(v Value) ValueID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(v)
}
