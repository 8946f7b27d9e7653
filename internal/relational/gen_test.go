package relational

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file holds the deterministic byte-driven case generator shared by the
// randomized differential parity suite (parity_test.go) and the native fuzz
// target (fuzz_test.go). Every decision is drawn from a cursor over an input
// byte slice: the same bytes always produce the same case, the cursor
// zero-extends when the input runs out, and every byte slice — including the
// ones the fuzzer mutates blindly — maps to a well-defined case. The
// generator deliberately produces both valid walks and walks that trip each
// structural error path (validation, fetch, join checks), so error parity is
// exercised alongside result parity.

// byteGen is a deterministic decision stream over an input byte slice.
type byteGen struct {
	data []byte
	i    int
}

func (g *byteGen) next() byte {
	if g.i >= len(g.data) {
		g.i++
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

// intn returns a value in [0, n).
func (g *byteGen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(g.next()) % n
}

// pct flips a coin that lands true p percent of the time.
func (g *byteGen) pct(p int) bool { return g.intn(100) < p }

// idCellValues seeds ID columns: a small pool so joins actually match, with
// cross-type numeric aliases (1 vs int64(1) vs 1.0 intern to one dictionary
// entry), nil to exercise nil-join semantics, and a value holding the
// canonical key's separator.
var idCellValues = []Value{0, 1, 2, int64(1), float64(2), 12, float64(12), "x", "y", "x\x1fsy", nil}

// nonIDCellValues seeds non-ID columns, covering every valueKey kind
// including values whose renderings collide across kinds ("12" vs 12), and
// what makes ordering by the joined key differ from ordering by column:
// control bytes below the U+001F separator, values that are prefixes of one
// another, and pairs ("x\x1fsy", "z" and "x", "y\x1fsz") whose joined keys
// coincide although their cells differ.
var nonIDCellValues = []Value{
	nil, 0, 1, 2, 12, int64(12), float64(12), 12.5, -3, 0.1, math.NaN(),
	"a", "b", "ab", "a\n", "12", true, false,
	"\x00", "\t", "\x1f", "x", "x\x1fsy", "y\x1fsz", "z",
}

// genCase is one generated differential test case: a universe of wrapper
// relations, a set of walks over them (some deliberately invalid), and an
// optional requested-attribute projection for the UCQ level.
type genCase struct {
	rels      map[string]*Relation
	walks     []*Walk
	requested []string
}

// ucq assembles the case's walks into a union.
func (gc *genCase) ucq() *UnionOfConjunctiveQueries {
	u := NewUCQ()
	u.Walks = append(u.Walks, gc.walks...)
	u.RequestedAttributes = gc.requested
	return u
}

// generateCase decodes a byte slice into a test case.
func generateCase(data []byte) *genCase {
	g := &byteGen{data: data}
	gc := &genCase{rels: map[string]*Relation{}}

	// Shared attribute names across wrappers force the planner onto the
	// reference-replay path (left-wins merge makes cell values join-order
	// dependent); unique names unlock the greedy size-ordered planner.
	sharedNames := g.pct(35)
	numWrappers := 1 + g.intn(4)
	type wrapperMeta struct {
		name   string
		schema Schema
	}
	metas := make([]wrapperMeta, 0, numWrappers)
	for i := 0; i < numWrappers; i++ {
		name := fmt.Sprintf("w%d", i)
		prefix := name + "_"
		if sharedNames {
			prefix = ""
		}
		ids := dedupStrings(genNames(g, prefix+"id", 1+g.intn(2), 3))
		nonIDs := dedupStrings(genNames(g, prefix+"v", g.intn(3), 4))
		schema := NewSchema(ids, nonIDs)
		rel := NewRelation(name, schema)
		numRows := g.intn(7)
		for r := 0; r < numRows; r++ {
			t := Tuple{}
			for _, a := range schema.Attributes {
				if g.pct(12) {
					continue // missing cell: distinct from explicit nil
				}
				if a.ID {
					t[a.Name] = idCellValues[g.intn(len(idCellValues))]
				} else {
					t[a.Name] = nonIDCellValues[g.intn(len(nonIDCellValues))]
				}
			}
			rel.Add(t)
		}
		gc.rels[name] = rel
		metas = append(metas, wrapperMeta{name, schema})
	}

	numWalks := 1 + g.intn(3)
	for wi := 0; wi < numWalks; wi++ {
		walk := &Walk{}
		var chosen []wrapperMeta
		numRefs := 1 + g.intn(3)
		for k := 0; k < numRefs; k++ {
			m := metas[g.intn(len(metas))]
			if g.pct(4) {
				// Unregistered wrapper: the fetch error path.
				m = wrapperMeta{name: "ghost", schema: Schema{}}
			}
			if walkHasWrapper(walk, m.name) && !g.pct(8) {
				continue // rare duplicate entries stay in: Validate error path
			}
			var proj []string
			for _, a := range m.schema.Attributes {
				if a.ID && !g.pct(20) {
					continue // IDs are implicitly retained; list some anyway
				}
				if !a.ID && g.pct(35) {
					continue
				}
				proj = append(proj, a.Name)
			}
			walk.Wrappers = append(walk.Wrappers, WrapperRef{
				Wrapper:    m.name,
				Source:     "S_" + m.name,
				Projection: proj,
			})
			chosen = append(chosen, m)
		}
		for k := 1; k < len(walk.Wrappers); k++ {
			if g.pct(6) {
				continue // dropped join: the not-connected error path
			}
			earlier := g.intn(k)
			j := JoinCondition{
				LeftWrapper:  walk.Wrappers[earlier].Wrapper,
				LeftAttr:     pickJoinAttr(g, chosen[earlier].schema),
				RightWrapper: walk.Wrappers[k].Wrapper,
				RightAttr:    pickJoinAttr(g, chosen[k].schema),
			}
			if g.pct(3) {
				j.LeftWrapper = "phantom" // join naming an absent wrapper
			}
			if g.pct(50) {
				j.LeftWrapper, j.RightWrapper = j.RightWrapper, j.LeftWrapper
				j.LeftAttr, j.RightAttr = j.RightAttr, j.LeftAttr
			}
			walk.Joins = append(walk.Joins, j)
		}
		// Occasional redundant join between already-connected wrappers: the
		// filter step of both executors.
		if len(walk.Wrappers) >= 2 && g.pct(25) {
			a, b := g.intn(len(walk.Wrappers)), g.intn(len(walk.Wrappers))
			walk.Joins = append(walk.Joins, JoinCondition{
				LeftWrapper:  walk.Wrappers[a].Wrapper,
				LeftAttr:     pickJoinAttr(g, chosen[a].schema),
				RightWrapper: walk.Wrappers[b].Wrapper,
				RightAttr:    pickJoinAttr(g, chosen[b].schema),
			})
		}
		gc.walks = append(gc.walks, walk)
	}

	if g.pct(40) {
		var candidates []string
		seen := map[string]bool{}
		for _, m := range metas {
			for _, n := range m.schema.Names() {
				if !seen[n] {
					seen[n] = true
					candidates = append(candidates, n)
				}
			}
		}
		sort.Strings(candidates)
		for _, n := range candidates {
			if g.pct(35) {
				gc.requested = append(gc.requested, n)
			}
		}
	}
	return gc
}

// generateSharedCase decodes a byte slice into the Figure 8 shape: many
// walks that are combinations over the same few wrappers, which is where the
// engine shares per-wrapper work across walks. The same wrapper appears in
// different walks under different projections and joined on different ID
// columns, some walks carry a filter condition (a redundant join between
// wrappers already connected), and unqualified attribute names sometimes
// collide across wrappers, forcing the reference-order replay. A rare walk is
// structurally broken, in the middle of the union.
func generateSharedCase(data []byte) *genCase {
	g := &byteGen{data: data}
	gc := &genCase{rels: map[string]*Relation{}}

	sharedNames := g.pct(30)
	numWrappers := 2 + g.intn(3)
	schemas := make([]Schema, numWrappers)
	for i := range schemas {
		prefix := fmt.Sprintf("w%d_", i)
		if sharedNames {
			prefix = ""
		}
		// Two or three ID columns each, so walks can pick different ones.
		ids := dedupStrings(genNames(g, prefix+"id", 2+g.intn(2), 4))
		nonIDs := dedupStrings(genNames(g, prefix+"v", 1+g.intn(3), 4))
		schemas[i] = NewSchema(ids, nonIDs)
		rel := NewRelation(fmt.Sprintf("w%d", i), schemas[i])
		for r, n := 0, g.intn(6); r < n; r++ {
			t := Tuple{}
			for _, a := range schemas[i].Attributes {
				switch {
				case g.pct(10): // missing cell
				case a.ID:
					t[a.Name] = idCellValues[g.intn(len(idCellValues))]
				default:
					t[a.Name] = nonIDCellValues[g.intn(len(nonIDCellValues))]
				}
			}
			rel.Add(t)
		}
		gc.rels[rel.Name] = rel
	}

	numWalks := 6 + g.intn(19)
	broken := -1
	if g.pct(8) {
		broken = 1 + g.intn(numWalks-2)
	}
	for wi := 0; wi < numWalks; wi++ {
		// A combination of two or three distinct wrappers, joined in a chain.
		first := g.intn(numWrappers)
		members := []int{first}
		for k, n := 1, 2+g.intn(2); k < n && k < numWrappers; k++ {
			members = append(members, (first+k*(1+g.intn(2)))%numWrappers)
		}
		members = dedupInts(members)
		walk := &Walk{}
		for _, m := range members {
			var proj []string
			for _, a := range schemas[m].Attributes {
				if (a.ID && g.pct(15)) || (!a.ID && g.pct(60)) {
					proj = append(proj, a.Name)
				}
			}
			walk.Wrappers = append(walk.Wrappers, WrapperRef{
				Wrapper:    fmt.Sprintf("w%d", m),
				Source:     fmt.Sprintf("S_w%d", m),
				Projection: proj,
			})
		}
		pickID := func(m int) string {
			ids := schemas[m].IDNames()
			return ids[g.intn(len(ids))]
		}
		for k := 1; k < len(members); k++ {
			j := JoinCondition{
				LeftWrapper:  walk.Wrappers[k-1].Wrapper,
				LeftAttr:     pickID(members[k-1]),
				RightWrapper: walk.Wrappers[k].Wrapper,
				RightAttr:    pickID(members[k]),
			}
			if g.pct(50) {
				j.LeftWrapper, j.RightWrapper = j.RightWrapper, j.LeftWrapper
				j.LeftAttr, j.RightAttr = j.RightAttr, j.LeftAttr
			}
			walk.Joins = append(walk.Joins, j)
		}
		if len(members) >= 2 && g.pct(30) {
			a, b := g.intn(len(members)), g.intn(len(members))
			walk.Joins = append(walk.Joins, JoinCondition{
				LeftWrapper:  walk.Wrappers[a].Wrapper,
				LeftAttr:     pickJoinAttr(g, schemas[members[a]]),
				RightWrapper: walk.Wrappers[b].Wrapper,
				RightAttr:    pickJoinAttr(g, schemas[members[b]]),
			})
		}
		if wi == broken && len(walk.Joins) > 0 {
			// A non-ID join attribute: the restricted-join error path.
			walk.Joins[0].LeftAttr = nonIDNames(schemas[members[0]])[0]
			walk.Joins[0].LeftWrapper = walk.Wrappers[0].Wrapper
			walk.Joins[0].RightWrapper = walk.Wrappers[1].Wrapper
			walk.Joins[0].RightAttr = pickID(members[1])
		}
		gc.walks = append(gc.walks, walk)
	}

	if g.pct(50) {
		seen := map[string]bool{}
		for _, s := range schemas {
			for _, n := range s.Names() {
				if !seen[n] && g.pct(40) {
					gc.requested = append(gc.requested, n)
				}
				seen[n] = true
			}
		}
		sort.Strings(gc.requested)
	}
	return gc
}

func dedupInts(in []int) []int {
	out := in[:0]
	for _, v := range in {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// genNames draws n attribute names "<prefix><k>" with k < pool.
func genNames(g *byteGen, prefix string, n, pool int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, g.intn(pool)))
	}
	return out
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func walkHasWrapper(w *Walk, name string) bool {
	for _, ref := range w.Wrappers {
		if ref.Wrapper == name {
			return true
		}
	}
	return false
}

// pickJoinAttr mostly picks an ID attribute (the legal restricted-join case)
// and sometimes a non-ID attribute to exercise the ID-check error path.
func pickJoinAttr(g *byteGen, s Schema) string {
	ids := s.IDNames()
	if g.pct(12) || len(ids) == 0 {
		names := s.Names()
		if len(names) == 0 {
			return "id0"
		}
		return names[g.intn(len(names))]
	}
	return ids[g.intn(len(ids))]
}

// pushdownStaticResolver answers fetches with an implementation of the
// pushdown contract independent of the shared Pushdown.Apply helper
// (restricted projection in schema order, rename last; the zero Pushdown's
// Apply only encodes the result into columns) and counts its invocations.
type pushdownStaticResolver struct {
	rels  staticResolver
	calls int
	// lastAttrs records the attrs of the most recent pushdown, for
	// contract assertions.
	lastAttrs []string
}

func (p *pushdownStaticResolver) Fetch(_ context.Context, w string, pd Pushdown, d *ValueDict) (*ColRelation, error) {
	rel, ok := p.rels[w]
	if !ok {
		return nil, errNotFound(w)
	}
	p.calls++
	p.lastAttrs = append([]string(nil), pd.Attrs...)
	if len(pd.Attrs) > 0 {
		// Relation.Project is exactly the contract: requested attrs plus all
		// IDs, in schema order.
		rel = rel.Project(pd.Attrs)
	}
	rel = rel.Rename(pd.Rename)
	return Pushdown{}.Apply(rel.Name, rel.Schema, slices.Values(rel.Tuples), d), nil
}

// fullOutputResolver answers every fetch with the wrapper's full output, as
// a source did before projection pushdown existed. The engine re-projects
// per walk, so narrowing at the source must never change its raw output;
// executing against this resolver pins that.
type fullOutputResolver struct {
	rels staticResolver
}

func (f fullOutputResolver) Fetch(ctx context.Context, w string, _ Pushdown, d *ValueDict) (*ColRelation, error) {
	return f.rels.Fetch(ctx, w, Pushdown{}, d)
}

// decoded decodes an ExecuteUnion result, passing its error through.
func decoded(answer *IDRelation, err error) (*Relation, error) {
	if err != nil {
		return nil, err
	}
	return answer.Relation(), nil
}

// nonIDNames returns the names of a schema's non-ID attributes.
func nonIDNames(s Schema) []string {
	var out []string
	for _, a := range s.Attributes {
		if !a.ID {
			out = append(out, a.Name)
		}
	}
	return out
}
