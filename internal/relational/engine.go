package relational

import (
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
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

// Engine is the compiled walk executor: it compiles the union once — every
// wrapper relation ingested once into dictionary-encoded column vectors, every
// per-wrapper fact and hash index shared by the walks that use it, every walk
// lowered to integer slots with a size-ordered hash-join sequence (plan.go) —
// executes the walks on a bounded set of workers, and streams their results
// through a deduplicating union with an early-out for LIMIT-style consumers.
//
// The engine reproduces the reference executor (Walk.ExecuteReference and
// friends) observably: result name, schema attribute order, the sorted
// canonical rendering of the tuples (Relation.String), and every structural
// error byte-for-byte, in the reference order. Budget trip points may differ
// because each wrapper is fetched once per execution instead of once per
// walk.
//
// A result's rows are in canonical order — ascending Tuple.Key over the
// result schema, the order Relation.Sorted gives — at any MaxParallel and
// with or without a Limit: the deduplicated rows are ordered once, on their
// ValueIDs (ValueDict.order), so callers decode or encode them as they are
// and never sort.
type Engine struct {
	// MaxParallel caps concurrently executing walks; 0 means GOMAXPROCS.
	// 1 yields serial execution on the calling goroutine. Results are
	// byte-identical at any setting: walk results are consumed in walk order
	// regardless of completion order.
	MaxParallel int
}

// DefaultEngine executes Walk.Execute and the rewriter's results.
var DefaultEngine = &Engine{}

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

// ExecuteWalk executes a single walk, observably equal to the reference
// Walk.ExecuteReference with its tuples in canonical order.
func (e *Engine) ExecuteWalk(ctx context.Context, w *Walk, resolver WrapperResolver) (*Relation, error) {
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
	res, err := u.run(ctx, track, ex, 0, &scratch{}, span)
	if err != nil {
		return nil, err
	}
	fw, rows := len(u.finalNames), make([][]ValueID, res.n)
	for r := range rows {
		rows[r] = res.cells[r*fw : (r+1)*fw : (r+1)*fw]
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

// Execute executes every walk of the union, post-projects each result, and
// returns their deduplicated union in canonical order, still in the ID
// domain. It is the engine behind the rewriter's ExecuteResultIDs. limit > 0
// stops execution once that many distinct result rows exist, cancelling the
// walks that can no longer contribute: the retained rows are exactly the
// first limit distinct rows in walk order — a deterministic subset of the
// unlimited result — in canonical order.
func (e *Engine) Execute(ctx context.Context, un *Union, resolver WrapperResolver, limit int) (*IDRelation, error) {
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
	// Every return path below has waited for its workers, so the deferred
	// index count reads quiescent state.
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
			if err := lifecycle.Check(ctx, track); err != nil {
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

	// Execute the walks on at most maxPar workers that claim walk indices in
	// order, or inline when that is one. Results are consumed in walk order
	// whatever order they complete in, so the deduplicated union (first
	// occurrence wins), the rows a LIMIT keeps and the error choice
	// (lowest-index failing walk) are deterministic at any parallelism.
	maxPar := e.MaxParallel
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	n := len(un.walks)
	workers := min(maxPar, n)
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]walkRows, n)
	errs := make([]error, n)
	execute := func(i int, s *scratch) {
		// A walk claimed after cancellation is neither executed nor counted.
		if errs[i] = execCtx.Err(); errs[i] != nil {
			return
		}
		_, wspan := obs.StartSpan(execCtx, "walk")
		wspan.SetAttrInt("walk", int64(i))
		results[i], errs[i] = u.run(execCtx, track, ex, i, s, wspan)
		wspan.End()
	}
	var wg sync.WaitGroup
	var completed chan int
	var done []bool
	var inline scratch
	if workers > 1 {
		completed = make(chan int, n) // one send per walk: a worker never blocks on the consumer
		done = make([]bool, n)
		var next atomic.Int64
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				var s scratch
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					execute(i, &s)
					completed <- i
				}
			}()
		}
	}

	finalW := len(u.finalNames)
	seen := map[string]bool{}
	var outRows [][]ValueID
	var arena []ValueID
	key := make([]byte, 4*finalW)
	var firstErr error
consume:
	for i := 0; i < n; i++ {
		if workers > 1 {
			for !done[i] {
				done[<-completed] = true
			}
		} else {
			execute(i, &inline)
		}
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		res := results[i]
		for r := 0; r < res.n; r++ {
			row := res.cells[r*finalW : (r+1)*finalW]
			for fc, id := range row {
				// An absent attribute is a missing cell, ≡ nil as in Tuple.Key.
				binary.BigEndian.PutUint32(key[fc*4:], uint32(joinID(id)))
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			if len(arena) < finalW {
				arena = make([]ValueID, lifecycle.CheckEvery*finalW)
			}
			outRows = append(outRows, arena[:finalW:finalW])
			arena = arena[copy(arena, row):]
			if limit > 0 && len(outRows) >= limit {
				break consume
			}
		}
		results[i] = walkRows{}
	}
	// Stop the walks that can no longer contribute and wait for the workers:
	// after cancellation they drain the remaining indices without executing.
	cancel()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	orderStart := time.Now()
	outRows = ex.dict.order(outRows)
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

// walkRows is a walk's result copied out of its worker's scratch: n rows in
// union layout (MissingValueID for a column the walk lacks), back to back.
type walkRows struct {
	cells []ValueID
	n     int
}

// scratch is one worker's two flat row arenas, which a walk's join steps
// ping-pong between and every walk the worker runs reuses.
type scratch struct{ a, b []ValueID }

// run executes walk i under its span and the per-walk metrics.
func (u *unionPlan) run(ctx context.Context, track *lifecycle.Tracker, ex *execution, i int, s *scratch, span *obs.ActiveSpan) (walkRows, error) {
	wstart := time.Now()
	rows, err := u.runWalk(ctx, track, ex, i, s)
	walkSeconds.Observe(time.Since(wstart))
	walkExecutionsTotal.Inc()
	walkRowsTotal.Add(int64(rows.n))
	span.SetAttrInt("rows", int64(rows.n))
	if p := track.Progress(); p.Rows > 0 || p.Bytes > 0 {
		// Cumulative tracker charge at walk completion: with a budget
		// attached this localizes which walk crossed the line.
		span.SetAttrInt("tracker_rows", p.Rows)
		span.SetAttrInt("tracker_bytes", p.Bytes)
	}
	return rows, err
}

// runWalk executes walk i's physical plan in s and returns its rows copied
// out. Besides s it only reads program and execution state. Its time and
// memory follow the rows it reads and produces: s's arenas grow to the
// widest intermediate result of the walks it ran.
func (u *unionPlan) runWalk(ctx context.Context, track *lifecycle.Tracker, ex *execution, i int, s *scratch) (walkRows, error) {
	wp := &u.walks[i]
	start, cols := ex.rels[wp.src], u.cols[wp.start.lo:wp.start.hi]
	n, width := start.NumRows(), len(cols)
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
		idx.once.Do(idx.build)
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
						return walkRows{}, err
					}
					produced = 0
					if err := lifecycle.Check(ctx, track); err != nil {
						return walkRows{}, err
					}
				}
			}
		}
		if produced > 0 {
			if err := chargeJoin(track, produced, tupleCost); err != nil {
				return walkRows{}, err
			}
		}
		s.a, s.b = out, rows
		rows, n, width = out, joined, mergedW
	}
	s.a = rows

	src := u.srcCols(i)
	fw := len(src)
	res := walkRows{cells: make([]ValueID, n*fw), n: n}
	for r := 0; r < n; r++ {
		row, to := rows[r*width:(r+1)*width], res.cells[r*fw:(r+1)*fw]
		for fc, sc := range src {
			if sc >= 0 {
				to[fc] = row[sc]
			}
		}
	}
	return res, nil
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
