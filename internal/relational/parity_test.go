package relational

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bdi/internal/lifecycle"
)

// The differential parity suite: randomized cases executed through both the
// compiled engine and the preserved reference executor must agree on the
// result name, schema attribute order, canonical rendering (Relation.String)
// and every structural error, byte for byte. The engine's tuple order is
// canonical (order_test.go holds it against Tuple.Key and the reference) and
// must be identical across engine configurations (serial vs parallel,
// pushdown on vs off vs declined).

// canonical renders the observables both executors promise to agree on.
func canonical(rel *Relation) string {
	return rel.Name + "\n" + strings.Join(rel.Schema.Names(), ",") + "\n" + rel.String()
}

// rawRender renders a relation including the order of its tuples, for
// comparing engine configurations against each other.
func rawRender(rel *Relation) string {
	names := rel.Schema.Names()
	var b strings.Builder
	b.WriteString(canonical(rel))
	for _, t := range rel.Tuples {
		b.WriteString("\n")
		b.WriteString(t.Key(names))
	}
	return b.String()
}

// checkErrParity fails unless both errors are nil or both render the same
// message.
func checkErrParity(t *testing.T, label string, refErr, gotErr error, diag func() string) bool {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) {
		t.Errorf("%s: error parity broken\nreference: %v\nengine:    %v\n%s", label, refErr, gotErr, diag())
		return false
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Errorf("%s: error text parity broken\nreference: %v\nengine:    %v\n%s", label, refErr, gotErr, diag())
		}
		return false
	}
	return true
}

// checkCaseParity runs one generated case through every executor pairing.
func checkCaseParity(t *testing.T, gc *genCase) {
	t.Helper()
	ctx := context.Background()
	resolver := staticResolver(gc.rels)
	u := gc.ucq()
	diag := func() string {
		return fmt.Sprintf("ucq:\n%s\nrequested: %v", u, gc.requested)
	}

	// Per-walk parity.
	for wi, w := range gc.walks {
		ref, refErr := w.ExecuteReference(ctx, resolver)
		got, gotErr := w.Execute(ctx, resolver)
		label := fmt.Sprintf("walk %d", wi)
		if !checkErrParity(t, label, refErr, gotErr, diag) {
			continue
		}
		if canonical(ref) != canonical(got) {
			t.Errorf("%s: result parity broken\nreference:\n%s\nengine:\n%s\n%s",
				label, canonical(ref), canonical(got), diag())
		}
	}

	// Union parity.
	ref, refErr := u.ExecuteReference(ctx, resolver, gc.requested)
	got, gotErr := u.Execute(ctx, resolver, gc.requested)
	if !checkErrParity(t, "union", refErr, gotErr, diag) {
		return
	}
	if canonical(ref) != canonical(got) {
		t.Errorf("union: result parity broken\nreference:\n%s\nengine:\n%s\n%s",
			canonical(ref), canonical(got), diag())
		return
	}

	// Sources must agree byte-for-byte including raw tuple order: a source
	// applying the shared pushdown helper (the resolver above), a source with
	// its own pushdown implementation, and a source returning its full output.
	base := rawRender(got)
	opts := u.execOptions(gc.requested)
	pd := &pushdownStaticResolver{rels: gc.rels}
	if rel, err := decoded(executeUnion(ctx, u.Walks, pd, opts)); err != nil {
		t.Errorf("pushdown engine: unexpected error %v\n%s", err, diag())
	} else if rawRender(rel) != base {
		t.Errorf("native pushdown diverges from the shared helper\nhelper:\n%s\nnative:\n%s\n%s", base, rawRender(rel), diag())
	}
	full := fullOutputResolver{rels: gc.rels}
	if rel, err := decoded(executeUnion(ctx, u.Walks, full, opts)); err != nil {
		t.Errorf("full-output engine: unexpected error %v\n%s", err, diag())
	} else if rawRender(rel) != base {
		t.Errorf("full output diverges from pushdown\npushdown:\n%s\nfull:\n%s\n%s", base, rawRender(rel), diag())
	}
}

// TestDifferentialParityRandomized drives randomized cases from several seeds
// through both executors. Each case mixes valid walks with deliberately
// broken ones, so structural error parity is continuously exercised.
func TestDifferentialParityRandomized(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234, 987654321}
	cases := 250
	if testing.Short() {
		cases = 40
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			for c := 0; c < cases; c++ {
				data := make([]byte, 48+rng.Intn(160))
				rng.Read(data)
				checkCaseParity(t, generateCase(data))
				if t.Failed() {
					t.Fatalf("case %d (bytes %x) failed", c, data)
				}
				if c%3 != 0 {
					continue
				}
				// The many-walks-over-few-wrappers shape decodes ten times the
				// bytes per case, so it runs on every third one.
				data = make([]byte, 512+rng.Intn(512))
				rng.Read(data)
				checkCaseParity(t, generateSharedCase(data))
				if t.Failed() {
					t.Fatalf("shared case %d (bytes %x) failed", c, data)
				}
			}
		})
	}
}

// TestBudgetParityDimensions checks that both executors abort on the same
// budget dimension. The trip *point* may differ (the engine fetches each
// wrapper once per union, the reference once per walk occurrence), so the
// budgets are single-dimension and tight enough that the very first charge
// trips them on both sides.
func TestBudgetParityDimensions(t *testing.T) {
	rels := staticResolver{}
	schemaA := NewSchema([]string{"id"}, []string{"a"})
	ra := NewRelation("wa", schemaA)
	schemaB := NewSchema([]string{"id"}, []string{"b"})
	rb := NewRelation("wb", schemaB)
	for k := 0; k < 50; k++ {
		ra.Add(Tuple{"id": k % 10, "a": k})
		rb.Add(Tuple{"id": k % 10, "b": -k})
	}
	rels["wa"] = ra
	rels["wb"] = rb
	walk := &Walk{
		Wrappers: []WrapperRef{
			{Wrapper: "wa", Source: "SA", Projection: []string{"a"}},
			{Wrapper: "wb", Source: "SB", Projection: []string{"b"}},
		},
		Joins: []JoinCondition{{LeftWrapper: "wa", LeftAttr: "id", RightWrapper: "wb", RightAttr: "id"}},
	}
	u := NewUCQ()
	u.Add(walk)

	budgets := []struct {
		name   string
		budget lifecycle.Budget
		dim    string
	}{
		{"rows", lifecycle.Budget{MaxRows: 1}, lifecycle.DimRows},
		{"bytes", lifecycle.Budget{MaxBytes: 1}, lifecycle.DimBytes},
	}
	for _, tc := range budgets {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refCtx := lifecycle.WithTracker(context.Background(), lifecycle.NewTracker(tc.budget))
			_, refErr := u.ExecuteReference(refCtx, rels, nil)
			gotCtx := lifecycle.WithTracker(context.Background(), lifecycle.NewTracker(tc.budget))
			_, gotErr := u.Execute(gotCtx, rels, nil)
			refBE, refOK := lifecycle.BudgetError(refErr)
			gotBE, gotOK := lifecycle.BudgetError(gotErr)
			if !refOK || !gotOK {
				t.Fatalf("expected budget errors from both executors, got reference=%v engine=%v", refErr, gotErr)
			}
			if refBE.Dimension != tc.dim || gotBE.Dimension != tc.dim {
				t.Fatalf("dimension parity broken: want %s, reference tripped %s, engine tripped %s",
					tc.dim, refBE.Dimension, gotBE.Dimension)
			}
		})
	}
}

// TestCancellationParity checks that a cancelled context and an expired
// deadline abort both executors with the same context error: the context
// is the only clock a query has.
func TestCancellationParity(t *testing.T) {
	rels := staticResolver{"w1": w1Relation()}
	u := NewUCQ()
	u.Add(NewWalk("w1", "S1", "lagRatio"))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := u.ExecuteReference(tc.ctx, rels, nil)
			_, gotErr := u.Execute(tc.ctx, rels, nil)
			if refErr != tc.want || gotErr != tc.want {
				t.Fatalf("union parity broken: reference=%v engine=%v, want %v", refErr, gotErr, tc.want)
			}
			_, refErr = u.Walks[0].ExecuteReference(tc.ctx, rels)
			_, gotErr = u.Walks[0].Execute(tc.ctx, rels)
			if refErr != tc.want || gotErr != tc.want {
				t.Fatalf("walk parity broken: reference=%v engine=%v, want %v", refErr, gotErr, tc.want)
			}
		})
	}
}
