package relational

import (
	"context"
	"encoding/binary"
	"runtime"
	"strconv"
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
		"Hash indexes built by union executions (at most one per wrapper join column per union).")
	walkCompileSeconds = obs.NewHistogram("bdi_walk_compile_seconds",
		"Latency of the union compile phase, wrapper fetch and ingest excluded.")
	walkOrderSeconds = obs.NewHistogram("bdi_walk_order_seconds",
		"Latency of ordering a union's deduplicated rows canonically, in the ID domain.")
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

// DefaultEngine executes Walk.Execute and UnionOfConjunctiveQueries.Execute.
var DefaultEngine = &Engine{}

// OutputColumn declares one column of a union's result. In every walk the
// column takes the attribute Attr names for the first wrapper of the walk (in
// wrapper-name order) whose named attribute is in the walk's schema, renamed
// to Name with its ID flag and type kept; a walk without such a wrapper
// leaves the column absent.
type OutputColumn struct {
	Name string
	// Attr returns the attribute of the wrapper that feeds the column, if
	// any. It must be pure: the engine calls it once per fetched wrapper.
	Attr func(wrapper string) (attr string, ok bool)
}

// ExecOptions configures Engine.ExecuteUnion.
type ExecOptions struct {
	// Name names the result relation; empty keeps the first walk's name.
	Name string
	// Limit > 0 stops execution once that many distinct result rows exist;
	// walks that can no longer contribute are cancelled. The retained rows
	// are exactly the first Limit distinct rows in walk order — a
	// deterministic subset of the unlimited result — in canonical order.
	Limit int
	// Output projects every walk's result onto the declared columns before
	// the union. Nil keeps every walk's schema unchanged; an empty non-nil
	// list projects to zero columns.
	Output []OutputColumn
}

// ExecuteWalk executes a single walk, observably equal to the reference
// Walk.ExecuteReference with its tuples in canonical order.
func (e *Engine) ExecuteWalk(ctx context.Context, w *Walk, resolver WrapperResolver) (*Relation, error) {
	ctx, span := obs.StartSpan(ctx, "walk")
	defer span.End()
	track := lifecycle.TrackerFrom(ctx)
	u := newUnionPlan([]*Walk{w}, resolver, nil, "")
	if err := u.compileWalk(ctx, track, w); err != nil {
		return nil, err
	}
	u.finish()
	rows, err := u.run(ctx, track, 0, span)
	if err != nil {
		return nil, err
	}
	var arena []ValueID
	for r, row := range rows {
		rows[r], arena = project(arena, row, u.srcCols(0))
	}
	return (&IDRelation{Name: u.name, Schema: u.final, Rows: u.dict.order(rows), dict: u.dict}).Relation(), nil
}

// ExecuteUnion compiles and executes every walk, post-projects each result,
// and returns their deduplicated union in canonical order, still in the ID
// domain. It is the engine behind UnionOfConjunctiveQueries.Execute and the
// rewriter's ExecuteResultIDs.
func (e *Engine) ExecuteUnion(ctx context.Context, walks []*Walk, resolver WrapperResolver, opts ExecOptions) (*IDRelation, error) {
	ctx, span := obs.StartSpan(ctx, "eval")
	span.SetAttrInt("walks", int64(len(walks)))
	unionStart := time.Now()
	u := newUnionPlan(walks, resolver, opts.Output, opts.Name)
	// Every return path below has waited for its workers, so the deferred
	// index count reads quiescent state.
	defer func() {
		unionSeconds.Observe(time.Since(unionStart))
		wrappers, indexes := u.sharing()
		span.SetAttrInt("wrappers", int64(wrappers))
		span.SetAttrInt("indexes", int64(indexes))
		span.End()
	}()
	track := lifecycle.TrackerFrom(ctx)
	for _, w := range walks {
		if err := lifecycle.Check(ctx, track); err != nil {
			return nil, err
		}
		if err := u.compileWalk(ctx, track, w); err != nil {
			return nil, err
		}
	}
	u.finish()
	walkCompileSeconds.Observe(time.Since(unionStart) - u.fetchTime)

	// Execute the walks on at most maxPar workers that claim walk indices in
	// order, or inline when that is one. Results are consumed in walk order
	// whatever order they complete in, so the deduplicated union (first
	// occurrence wins), the rows a LIMIT keeps and the error choice
	// (lowest-index failing walk) are deterministic at any parallelism.
	maxPar := e.MaxParallel
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	n := len(walks)
	workers := min(maxPar, n)
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([][][]ValueID, n)
	errs := make([]error, n)
	execute := func(i int) {
		// A walk claimed after cancellation is neither executed nor counted.
		if errs[i] = execCtx.Err(); errs[i] != nil {
			return
		}
		_, wspan := obs.StartSpan(execCtx, "walk")
		wspan.SetAttr("walk", strconv.Itoa(i))
		results[i], errs[i] = u.run(execCtx, track, i, wspan)
		wspan.End()
	}
	var wg sync.WaitGroup
	var completed chan int
	var done []bool
	if workers > 1 {
		completed = make(chan int, n) // one send per walk: a worker never blocks on the consumer
		done = make([]bool, n)
		var next atomic.Int64
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					execute(i)
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
			execute(i)
		}
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		src := u.srcCols(i)
		for _, row := range results[i] {
			for fc, sc := range src {
				id := NilValueID // absent attribute ≡ nil, as in Tuple.Key
				if sc >= 0 {
					id = joinID(row[sc])
				}
				binary.BigEndian.PutUint32(key[fc*4:], uint32(id))
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			var fr []ValueID
			fr, arena = project(arena, row, src)
			outRows = append(outRows, fr)
			if opts.Limit > 0 && len(outRows) >= opts.Limit {
				break consume
			}
		}
		results[i] = nil
	}
	// Stop the walks that can no longer contribute and wait for the workers:
	// after cancellation they drain the remaining indices without executing.
	cancel()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	orderStart := time.Now()
	outRows = u.dict.order(outRows)
	orderTime := time.Since(orderStart)
	walkOrderSeconds.Observe(orderTime)
	span.SetAttrInt("rows", int64(len(outRows)))
	span.SetAttrInt("order_us", orderTime.Microseconds())
	return &IDRelation{Name: u.name, Schema: u.final, Rows: outRows, dict: u.dict}, nil
}

// project copies a walk's row into union layout through src (negative: the
// column is absent), cutting it from arena, which it refills a check chunk at
// a time; it returns the row and what is left of the arena.
func project(arena, row []ValueID, src []int32) ([]ValueID, []ValueID) {
	w := len(src)
	if len(arena) < w {
		arena = make([]ValueID, lifecycle.CheckEvery*w)
	}
	out := arena[:w:w]
	for fc, sc := range src {
		if sc >= 0 {
			out[fc] = row[sc]
		}
	}
	return out, arena[w:]
}

// run executes walk i under its span and the per-walk metrics.
func (u *unionPlan) run(ctx context.Context, track *lifecycle.Tracker, i int, span *obs.ActiveSpan) ([][]ValueID, error) {
	wstart := time.Now()
	rows, err := runWalk(ctx, track, u.steps, &u.walks[i])
	walkSeconds.Observe(time.Since(wstart))
	walkExecutionsTotal.Inc()
	walkRowsTotal.Add(int64(len(rows)))
	span.SetAttrInt("rows", int64(len(rows)))
	if p := track.Progress(); p.Rows > 0 || p.Bytes > 0 {
		// Cumulative tracker charge at walk completion: with a budget
		// attached this localizes which walk crossed the line.
		span.SetAttrInt("tracker_rows", p.Rows)
		span.SetAttrInt("tracker_bytes", p.Bytes)
	}
	return rows, err
}

// runWalk executes a compiled walk's physical plan and returns its rows in
// the walk's physical column order. Everything it touches besides its own
// rows is shared, read-only union state. Its time and memory follow the rows
// it reads and produces: a join step's first output arena holds as many rows
// as the probe side, capped at one check chunk, and each refill doubles it up
// to that cap.
func runWalk(ctx context.Context, track *lifecycle.Tracker, steps []planStep, wp *walkPlan) ([][]ValueID, error) {
	start := wp.start
	width := len(start.vecs)
	rows := make([][]ValueID, start.src.rel.NumRows())
	cells := make([]ValueID, len(rows)*width)
	for r := range rows {
		row := cells[r*width : (r+1)*width : (r+1)*width]
		for k, col := range start.vecs {
			row[k] = col[r]
		}
		rows[r] = row
	}

	for si := wp.stepLo; si < wp.stepHi; si++ {
		st := &steps[si]
		if st.filter {
			kept := rows[:0]
			for _, row := range rows {
				if cellJoinID(row, st.left) == cellJoinID(row, st.right) {
					kept = append(kept, row)
				}
			}
			rows = kept
			continue
		}

		idx := st.index
		idx.once.Do(idx.build)
		accW, mergedW := width, st.width
		tupleCost := int64(lifecycle.TupleCost + lifecycle.CellCost*mergedW)
		out := make([][]ValueID, 0, len(rows))
		var arena []ValueID
		chunk := min(max(len(rows), 1), lifecycle.CheckEvery)
		produced := 0
		for _, row := range rows {
			for r := idx.head[cellJoinID(row, st.left)]; r != 0; r = idx.next[r-1] {
				ir := r - 1
				if len(arena) < mergedW {
					arena = make([]ValueID, chunk*mergedW)
					chunk = min(2*chunk, lifecycle.CheckEvery)
				}
				nr := arena[:mergedW:mergedW]
				arena = arena[mergedW:]
				copy(nr, row)
				for j, col := range st.appended {
					nr[accW+j] = col[ir]
				}
				for _, sc := range st.shared {
					if nr[sc.pos] == MissingValueID {
						nr[sc.pos] = sc.col[ir]
					}
				}
				out = append(out, nr)
				if produced++; produced >= lifecycle.CheckEvery {
					if err := track.AddRows(int64(produced)); err != nil {
						return nil, err
					}
					if err := track.AddBytes(int64(produced) * tupleCost); err != nil {
						return nil, err
					}
					produced = 0
					if err := lifecycle.Check(ctx, track); err != nil {
						return nil, err
					}
				}
			}
		}
		if produced > 0 {
			if err := track.AddRows(int64(produced)); err != nil {
				return nil, err
			}
			if err := track.AddBytes(int64(produced) * tupleCost); err != nil {
				return nil, err
			}
		}
		rows, width = out, mergedW
	}
	return rows, nil
}

// cellJoinID reads a row cell under join semantics: a column absent from the
// schema (i < 0) and a missing cell both compare as nil.
func cellJoinID(row []ValueID, i int32) ValueID {
	if i < 0 {
		return NilValueID
	}
	return joinID(row[i])
}
