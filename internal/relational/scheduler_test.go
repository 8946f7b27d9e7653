package relational

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"bdi/internal/obs"
)

// Scheduler tests: what the union promises about walk order — the error
// choice, which rows a LIMIT keeps, cancellation — must hold whether the
// walks run inline or on several workers.

var schedulerParallelism = []int{1, 2, 8}

// fanCase builds the Figure 8 shape at row level: 24 walks that are
// combinations over five wrappers (a0..a2 × b0..b1), joined on one of two ID
// column pairs and with or without the non-ID projections, so wrappers,
// projections and hash indexes are all shared between walks. rows sizes every
// wrapper; the k-join is one-to-one, the x-join fans out rows²/2.
func fanCase(rows int) (staticResolver, []*Walk) {
	rels := staticResolver{}
	add := func(name, k, x, v string) {
		rel := NewRelation(name, NewSchema([]string{k, x}, []string{v}))
		for r := 0; r < rows; r++ {
			rel.Add(Tuple{k: r, x: r % 2, v: fmt.Sprintf("%s:%d", name, r)})
		}
		rels[name] = rel
	}
	for j := 0; j < 3; j++ {
		add(fmt.Sprintf("a%d", j), "ka", "xa", "va")
	}
	for j := 0; j < 2; j++ {
		add(fmt.Sprintf("b%d", j), "kb", "xb", "vb")
	}
	var walks []*Walk
	for i := 0; i < 24; i++ {
		a, b := fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i%2)
		la, lb := "ka", "kb"
		if (i/6)%2 == 1 {
			la, lb = "xa", "xb"
		}
		var pa, pb []string
		if i/12 == 0 {
			pa, pb = []string{"va"}, []string{"vb"}
		}
		walks = append(walks, &Walk{
			Wrappers: []WrapperRef{
				{Wrapper: a, Source: "S" + a, Projection: pa},
				{Wrapper: b, Source: "S" + b, Projection: pb},
			},
			Joins: []JoinCondition{{LeftWrapper: a, LeftAttr: la, RightWrapper: b, RightAttr: lb}},
		})
	}
	return rels, walks
}

// requireNoStrandedGoroutines fails when the goroutine count does not come
// back to its level before the union ran. ExecuteUnion waits for its workers,
// so this normally holds on the first look; the retries absorb runtime
// goroutines winding down.
func requireNoStrandedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stranded: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerLowestIndexError breaks two middle walks differently; the
// union must report the first one's error, the one the serial reference
// executor reports, at any parallelism.
func TestSchedulerLowestIndexError(t *testing.T) {
	rels, walks := fanCase(4)
	walks[9].Joins[0].LeftAttr = "va" // not an ID attribute
	walks[17].Joins[0].RightWrapper = "phantom"
	u := NewUCQ()
	u.Walks = walks
	_, refErr := u.ExecuteReference(context.Background(), rels)
	if refErr == nil {
		t.Fatal("the reference executor accepted the broken union")
	}
	before := runtime.NumGoroutine()
	for _, par := range schedulerParallelism {
		e := &Engine{MaxParallel: par}
		_, err := decoded(e.ExecuteUnion(context.Background(), walks, rels, ExecOptions{Name: "answer"}))
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("MaxParallel=%d: error %v, want walk 9's %v", par, err, refErr)
		}
	}
	requireNoStrandedGoroutines(t, before)
}

// limitOracle is what a union limited to n rows must return: the walks
// executed one by one (ExecuteWalk), their tuples concatenated in walk order,
// the first occurrence of every distinct row kept, the first n of those, in
// canonical order over the union schema. A walk's own result stands in for
// the order in which the union consumes that walk's rows, so the inputs must
// produce their rows in ascending key order; fanCase and chainCase do (every
// join probes its rows in insertion order and keys ascend with it).
func limitOracle(t *testing.T, walks []*Walk, rels WrapperResolver, schema Schema, n int) []Tuple {
	t.Helper()
	all := NewRelation("oracle", schema)
	for _, w := range walks {
		rel, err := DefaultEngine.ExecuteWalk(context.Background(), w, rels)
		if err != nil {
			t.Fatal(err)
		}
		all.Add(rel.Tuples...)
	}
	first := all.Distinct()
	first.Tuples = first.Tuples[:n]
	return first.Sorted()
}

// requireTuples fails unless got is want, row by row, under the canonical key.
func requireTuples(t *testing.T, label string, names []string, got, want []Tuple) {
	t.Helper()
	if g, w := keysOf(got, names), keysOf(want, names); !slices.Equal(g, w) {
		t.Fatalf("%s: rows %q, want %q", label, g, w)
	}
}

// TestSchedulerLimitIsWalkOrderPrefix checks, over many walks, that LIMIT n
// returns the canonical ordering of exactly the first n distinct rows in walk
// order at any parallelism, and that the walks past the one reaching the
// limit are not executed.
func TestSchedulerLimitIsWalkOrderPrefix(t *testing.T) {
	rels, walks := fanCase(4)
	ctx := context.Background()
	opts := ExecOptions{Name: "answer"}
	full, err := decoded((&Engine{MaxParallel: 1}).ExecuteUnion(ctx, walks, rels, opts))
	if err != nil {
		t.Fatal(err)
	}
	names := full.Schema.Names()
	// Rows contributed per walk, to know which walk reaches a limit.
	var upTo []int
	for i := range walks {
		rel, err := decoded((&Engine{MaxParallel: 1}).ExecuteUnion(ctx, walks[:i+1], rels, opts))
		if err != nil {
			t.Fatal(err)
		}
		upTo = append(upTo, rel.Cardinality())
	}
	if full.Cardinality() < 40 {
		t.Fatalf("fan case yields only %d distinct rows", full.Cardinality())
	}
	before := runtime.NumGoroutine()
	for _, limit := range []int{1, 3, 4, 5, 17, full.Cardinality() - 1, full.Cardinality()} {
		needed := 0
		for upTo[needed] < limit {
			needed++
		}
		want := limitOracle(t, walks, rels, full.Schema, limit)
		for _, par := range schedulerParallelism {
			lopts := opts
			lopts.Limit = limit
			executed := walkExecutionsTotal.Value()
			got, err := decoded((&Engine{MaxParallel: par}).ExecuteUnion(ctx, walks, rels, lopts))
			executed = walkExecutionsTotal.Value() - executed
			if err != nil {
				t.Fatalf("limit %d MaxParallel=%d: %v", limit, par, err)
			}
			requireTuples(t, fmt.Sprintf("limit %d MaxParallel=%d", limit, par), names, got.Tuples, want)
			// Inline, exactly the walks up to the one reaching the limit
			// run; workers may have claimed a few more before the cancel.
			if par == 1 && int(executed) != needed+1 {
				t.Errorf("limit %d inline: %d walks executed, want %d", limit, executed, needed+1)
			}
			if int(executed) > len(walks) {
				t.Errorf("limit %d MaxParallel=%d: %d executions for %d walks", limit, par, executed, len(walks))
			}
		}
	}
	requireNoStrandedGoroutines(t, before)
}

// signalResolver closes fetched once every wrapper it holds has been fetched:
// the union's compile phase is then all but over and its walks start.
type signalResolver struct {
	staticResolver
	left    int
	fetched chan struct{}
}

func (s *signalResolver) Fetch(ctx context.Context, w string, p Pushdown, d *ValueDict) (*ColRelation, error) {
	rel, err := s.staticResolver.Fetch(ctx, w, p, d)
	if s.left--; s.left == 0 {
		close(s.fetched)
	}
	return rel, err
}

// TestSchedulerCancelMidUnion cancels a union of fan-out walks as soon as its
// last wrapper is fetched. The walks are heavy (80 000 joined rows each, a
// dozen of them), so the cancel lands while they execute: the union must
// return the context's error and nothing else, leave no goroutine behind, and
// the same inputs must answer in full afterwards.
func TestSchedulerCancelMidUnion(t *testing.T) {
	rels, walks := fanCase(400)
	walks = append(walks[6:12:12], walks[18:24]...) // the fan-out joins
	for _, par := range schedulerParallelism {
		before := runtime.NumGoroutine()
		resolver := &signalResolver{staticResolver: rels, left: len(rels), fetched: make(chan struct{})}
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			rel *Relation
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			rel, err := decoded((&Engine{MaxParallel: par}).ExecuteUnion(ctx, walks, resolver, ExecOptions{Name: "answer"}))
			done <- outcome{rel, err}
		}()
		<-resolver.fetched
		cancel()
		out := <-done
		if !errors.Is(out.err, context.Canceled) || out.rel != nil {
			t.Errorf("MaxParallel=%d: cancelled union returned (%v, %v), want only context.Canceled", par, out.rel, out.err)
		}
		requireNoStrandedGoroutines(t, before)
	}
	// Cancellation corrupts nothing shared: there is nothing shared.
	rel, err := decoded(DefaultEngine.ExecuteUnion(context.Background(), walks[:1], rels, ExecOptions{Name: "answer"}))
	if err != nil || rel.Cardinality() != 80000 {
		t.Fatalf("union after the cancellations: %v rows, err %v", rel.Cardinality(), err)
	}
}

// TestEngineFilterOnAbsentAttribute pins a planner hazard: a condition the
// reference executor applies as a filter may name an attribute its wrapper
// does not carry (it reads as nil). The size-ordered planner would consume
// that condition as a join on the absent column; it must fall back to the
// reference order instead.
func TestEngineFilterOnAbsentAttribute(t *testing.T) {
	rels := staticResolver{}
	for name, rows := range map[string]int{"a": 1, "b": 5, "c": 2} {
		rel := NewRelation(name, NewSchema([]string{"id" + name}, []string{"v" + name}))
		for r := 0; r < rows; r++ {
			rel.Add(Tuple{"id" + name: r % 2, "v" + name: r})
		}
		rels[name] = rel
	}
	w := &Walk{
		Wrappers: []WrapperRef{
			{Wrapper: "a", Source: "SA", Projection: []string{"va"}},
			{Wrapper: "b", Source: "SB", Projection: []string{"vb"}},
			{Wrapper: "c", Source: "SC", Projection: []string{"vc"}},
		},
		Joins: []JoinCondition{
			{LeftWrapper: "a", LeftAttr: "ida", RightWrapper: "b", RightAttr: "idb"},
			{LeftWrapper: "b", LeftAttr: "idb", RightWrapper: "c", RightAttr: "idc"},
			{LeftWrapper: "a", LeftAttr: "ida", RightWrapper: "c", RightAttr: "ghost"},
		},
	}
	ref, refErr := w.ExecuteReference(context.Background(), rels)
	got, gotErr := w.Execute(context.Background(), rels)
	if refErr != nil || gotErr != nil {
		t.Fatalf("unexpected errors: reference=%v engine=%v", refErr, gotErr)
	}
	if canonical(ref) != canonical(got) {
		t.Fatalf("filter on an absent attribute diverged\nreference:\n%s\nengine:\n%s", canonical(ref), canonical(got))
	}
}

// TestUnionSharesItsWorkAndSaysSo checks that a union builds each hash index
// once however many walks probe it and on however many workers, and that one
// trace answers "did this union share its work": the eval span carries the
// walk, wrapper, index and row counts and the time spent ordering the rows,
// and one walk span exists per walk.
func TestUnionSharesItsWorkAndSaysSo(t *testing.T) {
	rels, walks := fanCase(4)
	for _, par := range schedulerParallelism {
		trace := obs.NewTrace("test")
		ctx := obs.WithTrace(context.Background(), trace)
		builds, compiles, orders := walkIndexBuildsTotal.Value(), walkCompileSeconds.Count(), walkOrderSeconds.Count()
		rel, err := decoded((&Engine{MaxParallel: par}).ExecuteUnion(ctx, walks, rels, ExecOptions{Name: "answer"}))
		if err != nil {
			t.Fatal(err)
		}
		trace.Finish()
		// Every walk starts from its a-wrapper and probes one of the two ID
		// columns of b0 or b1: four indexes for 24 walks.
		if got := walkIndexBuildsTotal.Value() - builds; got != 4 {
			t.Errorf("MaxParallel=%d: %d index builds for 24 walks over 2 build sides x 2 columns, want 4", par, got)
		}
		if got := walkCompileSeconds.Count() - compiles; got != 1 {
			t.Errorf("MaxParallel=%d: %d compile observations for one union", par, got)
		}
		if got := walkOrderSeconds.Count() - orders; got != 1 {
			t.Errorf("MaxParallel=%d: %d order observations for one union", par, got)
		}
		spans := map[string]int{}
		for _, sp := range trace.Snapshot().Spans {
			spans[sp.Name]++
			if sp.Name != "eval" {
				continue
			}
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			if attrs["walks"] != "24" || attrs["wrappers"] != "5" || attrs["indexes"] != "4" ||
				attrs["rows"] != strconv.Itoa(rel.Cardinality()) || attrs["order_us"] == "" {
				t.Errorf("MaxParallel=%d: eval span attributes %v, want walks=24 wrappers=5 indexes=4 rows=%d and an order_us",
					par, attrs, rel.Cardinality())
			}
		}
		if spans["eval"] != 1 || spans["walk"] != 24 || spans["wrapper.fetch"] != 5 {
			t.Errorf("MaxParallel=%d: spans %v, want 1 eval, 24 walk, 5 wrapper.fetch", par, spans)
		}
	}
}
