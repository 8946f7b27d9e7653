package relational

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
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
)

// Engine is the compiled walk executor: it ingests every wrapper relation
// once into dictionary-encoded column vectors, compiles each walk to a
// slot-based plan with a size-ordered hash-join sequence, executes the walks
// of a union in parallel, and streams their results through a shared
// deduplicating union with an early-out for LIMIT-style consumers.
//
// The engine reproduces the reference executor (Walk.ExecuteReference and
// friends) observably: result name, schema attribute order, the sorted
// canonical rendering of the tuples (Relation.String), and every structural
// error byte-for-byte, in the reference order. The raw tuple order inside a
// result is unspecified — the physical join order is a planner choice — and
// budget trip points may differ because each wrapper is fetched once per
// execution instead of once per walk.
type Engine struct {
	// MaxParallel caps concurrently executing walks; 0 means GOMAXPROCS.
	// 1 yields serial execution. Results are byte-identical at any setting:
	// walk results are consumed in walk order regardless of completion order.
	MaxParallel int
}

// DefaultEngine executes Walk.Execute and UnionOfConjunctiveQueries.Execute.
var DefaultEngine = &Engine{}

// PostProjection restricts and renames one walk's result before the union.
type PostProjection struct {
	// Strict applies Keep as a strict projection (Schema.Project semantics:
	// Keep order, unknown names skipped, empty Keep yields zero columns).
	// When false the walk's schema passes through unchanged.
	Strict bool
	Keep   []string
	// Rename maps old attribute names to new ones, applied after Keep.
	Rename map[string]string
}

// ExecOptions configures Engine.ExecuteUnion.
type ExecOptions struct {
	// Name names the result relation; empty keeps the first walk's name.
	Name string
	// Limit > 0 stops execution once that many distinct result rows exist;
	// walks that can no longer contribute are cancelled. The retained rows
	// are exactly the first Limit distinct rows in walk order, so limited
	// results are deterministic prefixes of the unlimited result.
	Limit int
	// PostProject derives the per-walk projection from the walk's compiled
	// output schema. Nil keeps every schema unchanged. It must be pure: the
	// engine may invoke it for any walk in any order.
	PostProject func(i int, w *Walk, schema Schema) PostProjection
}

// ExecuteWalk executes a single walk, observably equal to the reference
// Walk.ExecuteReference (up to raw tuple order).
func (e *Engine) ExecuteWalk(ctx context.Context, w *Walk, resolver WrapperResolver) (*Relation, error) {
	ctx, span := obs.StartSpan(ctx, "walk")
	defer span.End()
	track := lifecycle.TrackerFrom(ctx)
	dict := NewValueDict()
	fetched := map[string]*ColRelation{}
	cw, err := compileOne(ctx, track, w, []*Walk{w}, resolver, dict, fetched)
	if err != nil {
		return nil, err
	}
	wstart := time.Now()
	rows, err := runWalk(ctx, track, cw)
	walkSeconds.Observe(time.Since(wstart))
	walkExecutionsTotal.Inc()
	if err != nil {
		return nil, err
	}
	walkRowsTotal.Add(int64(len(rows)))
	span.SetAttrInt("rows", int64(len(rows)))
	rel := NewRelation(cw.name, cw.schema)
	names := cw.schema.Names()
	src := make([]int, len(names))
	for c, nm := range names {
		src[c] = colIndex(cw.phys, nm)
	}
	vals := dict.Values()
	rel.Tuples = make([]Tuple, len(rows))
	for r, row := range rows {
		t := make(Tuple, len(names))
		for c := range names {
			if id := row[src[c]]; id != MissingValueID {
				t[names[c]] = vals[id-1]
			}
		}
		rel.Tuples[r] = t
	}
	return rel, nil
}

// ExecuteUnion compiles and executes every walk, post-projects each result,
// and returns their deduplicated union. It is the engine behind
// UnionOfConjunctiveQueries.Execute and the rewriter's ExecuteResultLimit.
func (e *Engine) ExecuteUnion(ctx context.Context, walks []*Walk, resolver WrapperResolver, opts ExecOptions) (*Relation, error) {
	ctx, span := obs.StartSpan(ctx, "eval")
	span.SetAttrInt("walks", int64(len(walks)))
	unionStart := time.Now()
	defer func() {
		unionSeconds.Observe(time.Since(unionStart))
		span.End()
	}()
	track := lifecycle.TrackerFrom(ctx)
	dict := NewValueDict()
	fetched := map[string]*ColRelation{}

	// Compile phase: sequential and in walk order, so validation, fetch and
	// budget errors surface for the same walk (with the same message) as in
	// the reference executor. Each distinct wrapper is fetched and ingested
	// once; budget charges still accrue per walk occurrence, mirroring the
	// reference cost accounting.
	compiled := make([]*compiledWalk, len(walks))
	for i, w := range walks {
		if err := lifecycle.Check(ctx, track); err != nil {
			return nil, err
		}
		cw, err := compileOne(ctx, track, w, walks, resolver, dict, fetched)
		if err != nil {
			return nil, err
		}
		compiled[i] = cw
	}

	// Resolve each walk's post-projection against its compiled schema. The
	// output columns address the walk's physical schema directly.
	type walkOut struct {
		schema Schema
		cols   []int // physical column per output attribute
	}
	outs := make([]walkOut, len(walks))
	for i, cw := range compiled {
		var pp PostProjection
		if opts.PostProject != nil {
			pp = opts.PostProject(i, walks[i], cw.schema)
		}
		var o walkOut
		if pp.Strict {
			for _, n := range pp.Keep {
				if p := colIndex(cw.schema, n); p >= 0 {
					o.schema.Attributes = append(o.schema.Attributes, renameAttr(cw.schema.Attributes[p], pp.Rename))
					o.cols = append(o.cols, colIndex(cw.phys, n))
				}
			}
		} else {
			for p, a := range cw.schema.Attributes {
				o.schema.Attributes = append(o.schema.Attributes, renameAttr(a, pp.Rename))
				o.cols = append(o.cols, colIndex(cw.phys, cw.schema.Attributes[p].Name))
			}
		}
		outs[i] = o
	}

	// The union schema folds the per-walk schemas left to right, exactly as
	// the reference's pairwise Relation.Union does.
	var final Schema
	for i, o := range outs {
		if i == 0 {
			final = o.schema
		} else {
			final = final.Merge(o.schema)
		}
	}
	finalNames := final.Names()
	finalW := len(finalNames)
	srcCols := make([][]int, len(outs))
	for i, o := range outs {
		m := make([]int, finalW)
		for fc, nm := range finalNames {
			m[fc] = -1
			if j := colIndex(o.schema, nm); j >= 0 {
				m[fc] = o.cols[j]
			}
		}
		srcCols[i] = m
	}

	// Execute walks in parallel; consume results in walk order so the
	// deduplicated union (first occurrence wins) and the error choice
	// (lowest-index failing walk) are deterministic at any parallelism.
	maxPar := e.MaxParallel
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(compiled)
	results := make([][][]ValueID, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	sem := make(chan struct{}, maxPar)
	for i := range compiled {
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := execCtx.Err(); err != nil {
				errs[i] = err
				return
			}
			_, wspan := obs.StartSpan(execCtx, "walk")
			wspan.SetAttr("walk", strconv.Itoa(i))
			wstart := time.Now()
			results[i], errs[i] = runWalk(execCtx, track, compiled[i])
			walkSeconds.Observe(time.Since(wstart))
			walkExecutionsTotal.Inc()
			walkRowsTotal.Add(int64(len(results[i])))
			wspan.SetAttrInt("rows", int64(len(results[i])))
			if p := track.Progress(); p.Rows > 0 || p.Bytes > 0 {
				// Cumulative tracker charge at walk completion: with a budget
				// attached this localizes which walk crossed the line.
				wspan.SetAttrInt("tracker_rows", p.Rows)
				wspan.SetAttrInt("tracker_bytes", p.Bytes)
			}
			wspan.End()
		}(i)
	}

	seen := map[string]bool{}
	var outRows [][]ValueID
	key := make([]byte, 4*finalW)
	var firstErr error
	limited := false
	for i := 0; i < n; i++ {
		<-done[i]
		if firstErr != nil || limited {
			results[i] = nil
			continue
		}
		if errs[i] != nil {
			firstErr = errs[i]
			cancel()
			continue
		}
		src := srcCols[i]
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
			fr := make([]ValueID, finalW)
			for fc, sc := range src {
				if sc >= 0 {
					fr[fc] = row[sc]
				}
			}
			outRows = append(outRows, fr)
			if opts.Limit > 0 && len(outRows) >= opts.Limit {
				limited = true
				cancel()
				break
			}
		}
		results[i] = nil
	}
	if firstErr != nil {
		return nil, firstErr
	}

	rel := NewRelation(opts.Name, final)
	if rel.Name == "" && n > 0 {
		rel.Name = compiled[0].name
	}
	vals := dict.Values()
	rel.Tuples = make([]Tuple, len(outRows))
	for r, row := range outRows {
		t := make(Tuple, finalW)
		for fc, id := range row {
			if id != MissingValueID {
				t[finalNames[fc]] = vals[id-1]
			}
		}
		rel.Tuples[r] = t
	}
	return rel, nil
}

// compileOne validates one walk, fetches and ingests its wrappers (reusing
// relations already fetched for earlier walks), charges the budget per
// wrapper occurrence with the reference cost model, and compiles the plan.
func compileOne(ctx context.Context, track *lifecycle.Tracker, w *Walk, walks []*Walk, resolver WrapperResolver, dict *ValueDict, fetched map[string]*ColRelation) (*compiledWalk, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	for _, ref := range w.Wrappers {
		if err := lifecycle.Check(ctx, track); err != nil {
			return nil, err
		}
		rel, ok := fetched[ref.Wrapper]
		if !ok {
			_, fspan := obs.StartSpan(ctx, "wrapper.fetch")
			fspan.SetAttr("wrapper", ref.Wrapper)
			fstart := time.Now()
			raw, err := resolver.Fetch(ctx, ref.Wrapper, projectionPushdown(walks, ref.Wrapper))
			if err != nil {
				wrapperFetchSeconds.Observe(time.Since(fstart))
				fspan.End()
				return nil, fmt.Errorf("relational: fetching wrapper %s: %w", ref.Wrapper, err)
			}
			rel = IngestRelation(raw, dict)
			fetched[ref.Wrapper] = rel
			wrapperFetchSeconds.Observe(time.Since(fstart))
			wrapperFetchesTotal.Inc()
			wrapperRowsTotal.Add(int64(rel.NumRows()))
			fspan.SetAttrInt("rows", int64(rel.NumRows()))
			fspan.End()
		}
		proj, _ := projectColumns(rel.Schema, ref.Projection)
		if err := chargeIngest(track, rel.NumRows(), len(proj.Attributes)); err != nil {
			return nil, err
		}
	}
	return compileWalk(w, fetched)
}

// chargeIngest charges one projected wrapper relation with the cost model of
// chargeRelation.
func chargeIngest(t *lifecycle.Tracker, rows, cols int) error {
	n := int64(rows)
	if err := t.AddRows(n); err != nil {
		return err
	}
	return t.AddBytes(n * int64(lifecycle.TupleCost+lifecycle.CellCost*cols))
}

// runWalk executes a compiled walk's physical plan and returns its rows in
// the walk's physical schema order (compiledWalk.phys).
func runWalk(ctx context.Context, track *lifecycle.Tracker, cw *compiledWalk) ([][]ValueID, error) {
	start := cw.inputs[cw.start]
	width := len(start.proj.Attributes)
	rows := make([][]ValueID, start.rel.NumRows())
	cells := make([]ValueID, len(rows)*width)
	for r := range rows {
		row := cells[r*width : (r+1)*width : (r+1)*width]
		for k, c := range start.cols {
			row[k] = start.rel.Cols[c][r]
		}
		rows[r] = row
	}
	cur := start.proj

	for _, st := range cw.steps {
		if st.filter {
			a := colIndex(cur, st.leftAttr)
			b := colIndex(cur, st.rightAttr)
			kept := rows[:0]
			for _, row := range rows {
				if cellJoinID(row, a) == cellJoinID(row, b) {
					kept = append(kept, row)
				}
			}
			rows = kept
			continue
		}

		in := cw.inputs[st.input]
		joinCol := in.rel.Cols[in.cols[colIndex(in.proj, st.rightAttr)]]
		index := make(map[ValueID][]int32, len(joinCol))
		for r, id := range joinCol {
			k := joinID(id)
			index[k] = append(index[k], int32(r))
		}

		merged := cur.Merge(in.proj)
		accW := len(cur.Attributes)
		mergedW := len(merged.Attributes)
		// Columns of the incoming relation split into those appended after
		// the accumulated columns and those shared by name, where the
		// accumulated cell wins unless it is missing (Tuple.Merge semantics).
		type sharedCol struct {
			pos int
			col []ValueID
		}
		var shared []sharedCol
		var appended [][]ValueID
		for k, a := range in.proj.Attributes {
			if p := colIndex(cur, a.Name); p >= 0 {
				shared = append(shared, sharedCol{p, in.rel.Cols[in.cols[k]]})
			} else {
				appended = append(appended, in.rel.Cols[in.cols[k]])
			}
		}

		leftCol := colIndex(cur, st.leftAttr)
		tupleCost := int64(lifecycle.TupleCost + lifecycle.CellCost*mergedW)
		var out [][]ValueID
		var arena []ValueID
		produced := 0
		for _, row := range rows {
			for _, ir := range index[cellJoinID(row, leftCol)] {
				if len(arena) < mergedW {
					arena = make([]ValueID, lifecycle.CheckEvery*mergedW)
				}
				nr := arena[:mergedW:mergedW]
				arena = arena[mergedW:]
				copy(nr, row)
				for j, col := range appended {
					nr[accW+j] = col[ir]
				}
				for _, sc := range shared {
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
		rows, cur = out, merged
	}
	return rows, nil
}

// colIndex returns the position of the first attribute with the given name,
// or -1.
func colIndex(s Schema, name string) int {
	for i, a := range s.Attributes {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// cellJoinID reads a row cell under join semantics: a column absent from the
// schema (i < 0) and a missing cell both compare as nil.
func cellJoinID(row []ValueID, i int) ValueID {
	if i < 0 {
		return NilValueID
	}
	return joinID(row[i])
}

// renameAttr applies a rename mapping to one attribute, keeping its ID flag
// and type as Relation.Rename does.
func renameAttr(a Attribute, rename map[string]string) Attribute {
	if nn, ok := rename[a.Name]; ok {
		return Attribute{Name: nn, ID: a.ID, Type: a.Type}
	}
	return a
}
