package relational

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"bdi/internal/lifecycle"
	"bdi/internal/obs"
)

// Walk-engine metrics. Instrumentation sits at walk and fetch granularity —
// the join loops in runWalk stay untouched, so the per-row hot path costs
// nothing.
var (
	walkExecutionsTotal = obs.NewCounter("bdi_walk_executions_total",
		"Compiled walk executions (one per walk per union).")
	walkRowsTotal = obs.NewCounter("bdi_walk_rows_total",
		"Rows produced by compiled walk executions, before the union dedup.")
	walkSeconds = obs.NewHistogram("bdi_walk_exec_seconds",
		"Latency of single compiled walk executions.")
	unionSeconds = obs.NewHistogram("bdi_walk_union_seconds",
		"End-to-end latency of union executions (compile + walks + dedup).")
	wrapperFetchesTotal = obs.NewCounter("bdi_wrapper_fetches_total",
		"Wrapper source fetches (each distinct wrapper once per execution).")
	wrapperFetchSeconds = obs.NewHistogram("bdi_wrapper_fetch_seconds",
		"Latency of wrapper source fetches including ingestion.")
	wrapperRowsTotal = obs.NewCounter("bdi_wrapper_rows_total",
		"Rows fetched from wrapper sources.")
	walkIndexBuildsTotal = obs.NewCounter("bdi_walk_index_builds_total",
		"Hash indexes built by union executions (at most one per wrapper join column per execution).")
	walkCompileSeconds = obs.NewHistogram("bdi_walk_compile_seconds",
		"Latency of the union compile phase (on a kept program: binding it to the fetched wrappers), wrapper fetch and ingest excluded.")
	walkOrderSeconds = obs.NewHistogram("bdi_walk_order_seconds",
		"Latency of ordering a union's deduplicated rows canonically, in the ID domain.")
	dictReusedTotal = obs.NewCounter("bdi_walk_dict_reused_values_total",
		"Distinct values union executions found in their union's kept dictionary.")
	dictNewTotal = obs.NewCounter("bdi_walk_dict_new_values_total",
		"Distinct values union executions interned that their union's kept dictionary lacked.")
)

// OutputColumn declares one column of a union's result. In every walk the
// column takes the attribute Feeds names for the first wrapper of the walk
// (in wrapper-name order) whose named attribute is in the walk's schema,
// renamed to Name with its ID flag and type kept; a walk without such a
// wrapper leaves the column absent.
type OutputColumn struct {
	Name string
	// Feeds pairs each wrapper feeding the column (Feeds[i][0], a wrapper
	// name, at most once) with the attribute of that wrapper that feeds it
	// (Feeds[i][1]); a wrapper it does not name feeds nothing. It is read,
	// never written, once the union holds it.
	Feeds [][2]string
}

// AttrOf returns the attribute of the wrapper that feeds the column, if
// any.
func (c OutputColumn) AttrOf(wrapper string) (string, bool) {
	for _, f := range c.Feeds {
		if f[0] == wrapper {
			return f[1], true
		}
	}
	return "", false
}

// Execute executes a single walk on the compiled engine: it fetches each
// wrapper once, applies the restricted projection, then the restricted
// joins; a walk without join conditions returns its wrapper projected. The
// result is observably equal to the reference Walk.ExecuteReference, with its
// tuples in canonical order. Source fetches honor ctx, materialized relations
// are charged against the context's lifecycle.Tracker, and the join loops
// check cancellation at chunk granularity.
func (w *Walk) Execute(ctx context.Context, resolver WrapperResolver) (*Relation, error) {
	ctx, span := obs.StartSpan(ctx, "walk")
	defer span.End()
	track := lifecycle.TrackerFrom(ctx)
	c := newCompiler([]*Walk{w}, nil, "")
	ex := newExecution(resolver, len(c.sources), nil)
	if err := c.compileWalk(ctx, track, ex, w); err != nil {
		return nil, err
	}
	c.finish()
	u := c.unionPlan
	var s scratch
	n, width, err := u.run(ctx, track, ex, 0, &s, span)
	if err != nil {
		return nil, err
	}
	src := u.srcCols(0)
	fw := len(src)
	cells, rows := make([]ValueID, n*fw), make([][]ValueID, n)
	for r := range rows {
		rows[r] = cells[r*fw : (r+1)*fw : (r+1)*fw]
		toUnion(rows[r], s.a[r*width:(r+1)*width], src)
	}
	return (&IDRelation{Name: u.name, Schema: u.final, Rows: ex.dict.order(rows), dict: ex.dict}).Relation(), nil
}

// Union is a union of walks kept for repeated execution: its first execution
// compiles the program (plan.go) and later ones reuse it, paying only for
// fetches, the budget and the rows. An execution whose fetched relations
// differ from the program's in name, schema or row count compiles afresh and
// keeps the new program. Each execution extends the value dictionary the
// union kept, frozen, from an earlier one (ValueDict.freeze), so it interns,
// orders and encodes only values it has not seen. The union bounds that
// dictionary by what its latest execution touched; whoever holds the union
// long bounds it further with TrimKept. A Union is safe for concurrent use.
type Union struct {
	walks  []*Walk
	name   string
	output []OutputColumn
	plan   atomic.Pointer[unionPlan]
	dict   atomic.Pointer[ValueDict]
}

// TrimKept drops the union's kept dictionary when it holds more than max
// values, and returns the number of values the union keeps.
func (un *Union) TrimKept(max int) int {
	for {
		d := un.dict.Load()
		if d == nil {
			return 0
		}
		if len(d.ents) <= max {
			return len(d.ents)
		}
		if un.dict.CompareAndSwap(d, nil) {
			return 0
		}
	}
}

// NewUnion returns the union of walks with its result named name (empty:
// after its first walk). A non-nil output projects every walk's result onto
// the declared columns before the union; an empty one projects to zero
// columns, and nil keeps every walk's schema unchanged.
func NewUnion(walks []*Walk, name string, output []OutputColumn) *Union {
	return &Union{walks: walks, name: name, output: output}
}

// Execute executes the union's walks one after another, in walk order, on
// the calling goroutine, post-projects each walk's rows onto the union
// columns, and returns their deduplicated union in canonical order, still in
// the ID domain; the first walk that fails stops the execution with its
// error. It is the engine behind rewriting.Result.Execute. limit > 0
// stops execution at the walk that brings the distinct rows to limit — no
// later walk runs or charges the budget — and keeps exactly the first limit
// distinct rows in walk order, a deterministic subset of the unlimited
// result, in canonical order.
//
// The engine reproduces the reference executor (Walk.ExecuteReference and
// friends) observably: result name, schema attribute order, the sorted
// canonical rendering of the tuples (Relation.String), and every structural
// error byte-for-byte, in the reference order. Budget trip points may differ
// from the reference's because each wrapper is fetched once per execution
// instead of once per walk; they do not differ between executions.
func (un *Union) Execute(ctx context.Context, resolver WrapperResolver, limit int) (*IDRelation, error) {
	ctx, span := obs.StartSpan(ctx, "eval")
	span.SetAttrInt("walks", int64(len(un.walks)))
	unionStart := time.Now()
	u := un.plan.Load()
	var c *compiler
	if u == nil {
		c = newCompiler(un.walks, un.output, un.name)
		u = c.unionPlan
	}
	base := un.dict.Load()
	ex := newExecution(resolver, len(u.sources), base)
	defer func() {
		unionSeconds.Observe(time.Since(unionStart))
		wrappers, indexes := ex.sharing()
		span.SetAttrInt("wrappers", int64(wrappers))
		span.SetAttrInt("indexes", int64(indexes))
		span.End()
	}()
	track := lifecycle.TrackerFrom(ctx)
	if c == nil {
		bound, err := u.bind(ctx, track, ex)
		if err != nil {
			return nil, err
		}
		if !bound {
			c = newCompiler(un.walks, un.output, un.name)
		}
	}
	if c != nil {
		for _, w := range un.walks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := c.compileWalk(ctx, track, ex, w); err != nil {
				return nil, err
			}
		}
		c.finish()
		u = c.unionPlan
		un.plan.Store(u)
	}
	walkCompileSeconds.Observe(time.Since(unionStart) - ex.fetchTime)

	// Each walk's rows are consumed from the scratch before the next walk
	// overwrites it: the dedup (first occurrence wins) reads them through the
	// walk's union columns, and keeps a copy of each new distinct row only.
	var set rowSet
	var s scratch
	for i := range un.walks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, wspan := obs.StartSpan(ctx, "walk")
		wspan.SetAttrInt("walk", int64(i))
		n, width, err := u.run(ctx, track, ex, i, &s, wspan)
		wspan.End()
		if err != nil {
			return nil, err
		}
		if set.add(s.a, n, width, u.srcCols(i), limit) {
			break
		}
	}

	orderStart := time.Now()
	outRows := ex.dict.order(set.rows)
	orderTime := time.Since(orderStart)
	walkOrderSeconds.Observe(orderTime)
	span.SetAttrInt("rows", int64(len(outRows)))
	span.SetAttrInt("order_us", orderTime.Microseconds())
	d := ex.dict
	un.dict.CompareAndSwap(base, d.freeze())
	dictReusedTotal.Add(int64(d.reused))
	dictNewTotal.Add(int64(len(d.ents)))
	span.SetAttrInt("dict_reused", int64(d.reused))
	span.SetAttrInt("dict_new", int64(len(d.ents)))
	// The schema is the program's; the answer gets its own copy.
	schema := Schema{Attributes: slices.Clone(u.final.Attributes)}
	return &IDRelation{Name: u.name, Schema: schema, Rows: outRows, dict: d}, nil
}

// toUnion copies a walk row into union layout: per union column, the cell at
// the walk's position src holds for it, or MissingValueID where the walk
// lacks the column.
func toUnion(dst, row []ValueID, src []int32) {
	for fc, sc := range src {
		dst[fc] = MissingValueID
		if sc >= 0 {
			dst[fc] = row[sc]
		}
	}
}

// rowSet is a union's distinct rows in union layout, first occurrence
// first, with the open-addressing table that finds them: a slot holds 1 +
// the index of a kept row (0: empty), and a row probes linearly from the top
// bits of a multiplicative hash. Rows hash and compare on joinID, so a
// missing cell equals nil, as in Tuple.Key.
type rowSet struct {
	rows  [][]ValueID
	arena []ValueID // where the next kept rows go
	slots []uint32  // a power of two, at most half full
}

// minRowSetSlots is the size of a rowSet's first table.
const minRowSetSlots = 64

// add reads a walk's n rows of width cells (runWalk's layout) into union
// layout through src, keeps each that equals no kept row, and stops once
// the set holds limit > 0 rows, reporting whether it did.
func (s *rowSet) add(walk []ValueID, n, width int, src []int32, limit int) bool {
	w := len(src)
	for r := 0; r < n; r++ {
		if len(s.arena) < w {
			s.arena = make([]ValueID, lifecycle.CheckEvery*w)
		}
		row := s.arena[:w:w]
		toUnion(row, walk[r*width:(r+1)*width], src)
		if 2*(len(s.rows)+1) > len(s.slots) {
			s.slots = make([]uint32, max(minRowSetSlots, 2*len(s.slots)))
			for k, kept := range s.rows {
				s.slots[s.find(kept)] = uint32(k) + 1
			}
		}
		i := s.find(row)
		if s.slots[i] != 0 {
			continue
		}
		s.slots[i] = uint32(len(s.rows)) + 1
		s.rows, s.arena = append(s.rows, row), s.arena[w:]
		if limit > 0 && len(s.rows) >= limit {
			return true
		}
	}
	return false
}

// find returns the slot of the kept row equal to row, or else the empty
// slot where row goes.
func (s *rowSet) find(row []ValueID) int {
	var h uint64
	for _, id := range row {
		h = (h ^ uint64(joinID(id))) * 0x9e3779b97f4a7c15
	}
	mask := len(s.slots) - 1
	i := int(h >> bits.LeadingZeros64(uint64(mask)))
	for k := s.slots[i]; k != 0; k = s.slots[i] {
		if slices.EqualFunc(s.rows[k-1], row, func(a, b ValueID) bool { return joinID(a) == joinID(b) }) {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// scratch is an execution's two flat row arenas, which a walk's join steps
// ping-pong between and every walk of the execution reuses.
type scratch struct{ a, b []ValueID }

// run executes walk i under its span and the per-walk metrics.
func (u *unionPlan) run(ctx context.Context, track *lifecycle.Tracker, ex *execution, i int, s *scratch, span *obs.ActiveSpan) (n, width int, err error) {
	wstart := time.Now()
	n, width, err = u.runWalk(ctx, track, ex, i, s)
	walkSeconds.Observe(time.Since(wstart))
	walkExecutionsTotal.Inc()
	walkRowsTotal.Add(int64(n))
	span.SetAttrInt("rows", int64(n))
	if p := track.Progress(); p.Rows > 0 || p.Bytes > 0 {
		// Cumulative tracker charge at walk completion: with a budget
		// attached this localizes which walk crossed the line.
		span.SetAttrInt("tracker_rows", p.Rows)
		span.SetAttrInt("tracker_bytes", p.Bytes)
	}
	return n, width, err
}

// runWalk executes walk i's physical plan in s and leaves its n rows of width
// cells, in the walk's physical layout, in s.a, valid until s runs the next
// walk. Besides s it only reads program and execution state, and builds the
// hash indexes it probes on first use. Its time and memory follow the rows
// it reads and produces: s's arenas grow to the widest intermediate result
// of the walks it ran.
func (u *unionPlan) runWalk(ctx context.Context, track *lifecycle.Tracker, ex *execution, i int, s *scratch) (n, width int, err error) {
	wp := &u.walks[i]
	start, cols := ex.rels[wp.src], u.cols[wp.start.lo:wp.start.hi]
	n, width = start.NumRows(), len(cols)
	rows := slices.Grow(s.a[:0], n*width)[:n*width]
	for k, c := range cols {
		for r, id := range start.Cols[c] {
			rows[r*width+k] = id
		}
	}

	for si := wp.stepLo; si < wp.stepHi; si++ {
		st := &u.steps[si]
		if st.filter {
			kept := 0
			for r := 0; r < n; r++ {
				row := rows[r*width : (r+1)*width]
				if cellJoinID(row, st.left) == cellJoinID(row, st.right) {
					copy(rows[kept*width:], row)
					kept++
				}
			}
			n, rows = kept, rows[:kept*width]
			continue
		}

		rel := ex.rels[st.src]
		idx := &ex.indexes[st.src][st.key]
		if idx.head == nil {
			idx.build()
		}
		appended, shared := u.cols[st.appended.lo:st.appended.hi], u.shared[st.shared.lo:st.shared.hi]
		mergedW := width + len(appended)
		tupleCost := int64(lifecycle.TupleCost + lifecycle.CellCost*mergedW)
		out := s.b[:0]
		joined, produced := 0, 0
		for r := 0; r < n; r++ {
			row := rows[r*width : (r+1)*width]
			for ir := idx.head[cellJoinID(row, st.left)]; ir != 0; ir = idx.next[ir-1] {
				out = append(out, row...)
				for _, c := range appended {
					out = append(out, rel.Cols[c][ir-1])
				}
				if len(shared) > 0 {
					nr := out[len(out)-mergedW:]
					for _, sc := range shared {
						if nr[sc.pos] == MissingValueID {
							nr[sc.pos] = rel.Cols[sc.col][ir-1]
						}
					}
				}
				joined++
				if produced++; produced >= lifecycle.CheckEvery {
					if err := chargeJoin(track, produced, tupleCost); err != nil {
						return 0, 0, err
					}
					produced = 0
					if err := ctx.Err(); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		if produced > 0 {
			if err := chargeJoin(track, produced, tupleCost); err != nil {
				return 0, 0, err
			}
		}
		s.a, s.b = out, rows
		rows, n, width = out, joined, mergedW
	}
	s.a = rows
	return n, width, nil
}

// chargeJoin charges rows produced by a join step, tupleCost each.
func chargeJoin(t *lifecycle.Tracker, rows int, tupleCost int64) error {
	if err := t.AddRows(int64(rows)); err != nil {
		return err
	}
	return t.AddBytes(int64(rows) * tupleCost)
}

// cellJoinID reads a row cell under join semantics: a column absent from the
// schema (i < 0) and a missing cell both compare as nil.
func cellJoinID(row []ValueID, i int32) ValueID {
	if i < 0 {
		return NilValueID
	}
	return joinID(row[i])
}
