package relational

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"bdi/internal/lifecycle"
	"bdi/internal/obs"
)

// This file is the union-level compile. The walks of one union are, by
// construction of Algorithm 5, combinations over the same few wrappers, so
// everything that depends on the wrapper and not on the walk is resolved
// once per union and shared: the restricted projection per distinct
// (wrapper, projection), the pushed-down attribute set, the attribute
// feeding each declared output column, and one hash index per (wrapper,
// join column). A compiled walk is then nothing but integers — slots into
// those shared inputs and column positions — and executing it does no
// per-walk name, schema or map work.
//
// The compile has two halves. The program (unionPlan) is what follows from
// the walks, the output columns and the fetched schemas and row counts; it is
// immutable once built, so a Union keeps it across executions. An execution
// is what follows from the rows: the fetched relations and their hash
// indexes die with the call, its dictionary the Union may keep (freeze).

// source is what a union knows about one wrapper.
type source struct {
	name string
	id   int32 // index of the wrapper's fetched relation in an execution
	// attrs is the projection pushed to the wrapper: the sorted union of
	// every walk projection naming it. IDs are not listed — the Pushdown
	// contract obliges the source to retain them.
	attrs []string
	// The fetched relation's name, schema and row count the program was
	// compiled against; known is false until the compile first sees it. An
	// execution whose fetch differs in any of them compiles afresh.
	known   bool
	relName string
	schema  Schema
	rows    int
	// inputs holds one entry per distinct projection the walks apply.
	inputs []*planInput
	// outAttr is, per declared output column, the interned name of the
	// wrapper attribute feeding it, or -1.
	outAttr []int32
}

// joinIndex is the build side of a hash join on one wrapper column: head
// maps a join value to its first row (+1) and next chains the further rows
// (+1) in ascending order, so one index costs a map and a slice rather than
// a slice per distinct value. The first walk of an execution that probes it
// builds it (head is nil until then); the later walks share it read-only.
type joinIndex struct {
	col  []ValueID
	head map[ValueID]int32
	next []int32
}

func (x *joinIndex) build() {
	x.head = make(map[ValueID]int32, len(x.col))
	x.next = make([]int32, len(x.col))
	for r := len(x.col) - 1; r >= 0; r-- {
		k := joinID(x.col[r])
		x.next[r] = x.head[k]
		x.head[k] = int32(r + 1)
	}
	walkIndexBuildsTotal.Inc()
}

// planInput is one wrapper under one restricted projection Π̃ (the projected
// attributes and every ID attribute of the fetched schema, in fetched-schema
// order), shared by every walk of the union that applies it.
type planInput struct {
	src        *source
	projection []string
	proj       Schema  // restricted projection of src.schema
	cols       []int32 // fetched column per proj attribute
	names      []int32 // interned name per proj attribute
}

// col returns the position in proj of the first attribute with the given
// interned name, or -1.
func (in *planInput) col(name int32) int {
	return slices.Index(in.names, name)
}

// attrRef addresses one attribute of a shared input.
type attrRef struct {
	in *planInput
	k  int32
}

func (r attrRef) attr() Attribute { return r.in.proj.Attributes[r.k] }
func (r attrRef) name() int32     { return r.in.names[r.k] }

// walkPlan is a compiled walk: a start input (a source and its fetched
// columns), and ranges of the union's physical steps and output columns.
type walkPlan struct {
	src, stepLo, stepHi, outLo, outHi int32
	start                             span
}

// span addresses a range of one of the program's pools.
type span struct{ lo, hi int32 }

// occurrence is one wrapper occurrence of a walk: the source and how many
// columns its projection keeps, which is what the budget is charged for.
type occurrence struct{ src, cols int32 }

// sharedCol is a fetched column of a joined input whose name is already
// accumulated: the cell at pos wins unless it is missing (Tuple.Merge).
type sharedCol struct{ pos, col int32 }

// planStep is one physical step of a compiled walk, with every column
// resolved to a position: either a hash join bringing one input into the
// accumulated row on row[left] = the index key of fetched column key of
// source src, or a filter row[left] = row[right]. A position of -1 is an
// attribute absent from the accumulated row, which compares as nil.
type planStep struct {
	filter      bool
	left, right int32
	src, key    int32
	appended    span // in cols: fetched columns appended after the accumulated ones
	shared      span // in shared
}

// outCol is one column of a walk's post-projected result: its interned
// (renamed) name and the physical position it reads.
type outCol struct {
	name int32
	phys int32
}

// stepRef is a step before its columns are resolved to positions: the
// currency of the reference-order simulation and of the planner.
type stepRef struct {
	filter      bool
	input       int32 // join only: index into unionPlan.local
	left, right int32 // interned attribute names
}

// walkJoin is a join condition with its wrappers resolved to the walk's
// local inputs and its attributes to interned names (-1: a name no fetched
// schema carries).
type walkJoin struct {
	l, r   int32
	la, ra int32
}

// unionPlan is the program of a union: its walks compiled against the shared
// per-wrapper facts.
type unionPlan struct {
	sources []*source // by id
	walks   []walkPlan
	occ     []occurrence // walk-major
	steps   []planStep
	cols    []int32 // pool of fetched columns
	shared  []sharedCol
	name    string // the result's: given, or the first walk's (a⋈b)

	// The union schema: the left-to-right fold of the per-walk output
	// schemas, exactly as the reference's pairwise Relation.Union does. Only
	// names decide the fold (the first attribute of a name wins), so it is
	// kept incrementally over interned names.
	final      Schema
	finalNames []int32
	src        []int32 // walk-major: physical position per final column, -1
}

// compiler builds a program, holding what only the compile needs. Walks are
// compiled sequentially and in order, so validation, fetch and budget errors
// surface for the same walk, with the same message, as in the reference
// executor.
type compiler struct {
	*unionPlan
	byName   map[string]*source
	names    map[string]int32 // attribute-name interning
	output   []OutputColumn
	outName  []int32 // interned name per declared output column
	outs     []outCol
	finalPos []int32 // name -> first final column, -1

	// Per-walk scratch, reused across walks.
	local     []*planInput // the walk's inputs, one per distinct wrapper
	joined    []bool
	joins     []walkJoin
	remaining []int32
	refSteps  []stepRef
	physSteps []stepRef
	refOrder  []int32
	order     []int32
	acc       []attrRef // accumulated schema
	refAcc    []attrRef // the same in reference order
	pos       []int32   // name -> position in acc, -1
}

// newCompiler plans the union of walks; an empty name names it after its
// first walk.
func newCompiler(walks []*Walk, output []OutputColumn, name string) *compiler {
	u := &compiler{
		unionPlan: &unionPlan{name: name, walks: make([]walkPlan, 0, len(walks))},
		byName:    map[string]*source{},
		names:     map[string]int32{},
		output:    output,
	}
	joins, occ := 0, 0
	for _, w := range walks {
		joins += len(w.Joins)
		occ += len(w.Wrappers)
		for i := range w.Wrappers {
			ref := &w.Wrappers[i]
			src := u.byName[ref.Wrapper]
			if src == nil {
				src = &source{name: ref.Wrapper, id: int32(len(u.sources))}
				u.byName[ref.Wrapper] = src
				u.sources = append(u.sources, src)
			}
			for _, a := range ref.Projection {
				if !slices.Contains(src.attrs, a) {
					src.attrs = append(src.attrs, a)
				}
			}
		}
	}
	for _, src := range u.sources {
		slices.Sort(src.attrs)
	}
	u.steps = make([]planStep, 0, joins)
	u.occ = make([]occurrence, 0, occ)
	u.outName = make([]int32, len(output))
	for i, c := range output {
		u.outName[i] = u.intern(c.Name)
	}
	return u
}

func (u *compiler) intern(name string) int32 {
	if id, ok := u.names[name]; ok {
		return id
	}
	id := int32(len(u.names))
	u.names[name] = id
	u.pos = append(u.pos, -1)
	u.finalPos = append(u.finalPos, -1)
	return id
}

// lookup returns the interned id of a name, or -1 when no schema or output
// column of this union carries it.
func (u *compiler) lookup(name string) int32 {
	if id, ok := u.names[name]; ok {
		return id
	}
	return -1
}

// at returns the accumulated position of a name, or -1.
func (u *compiler) at(name int32) int32 {
	if name < 0 {
		return -1
	}
	return u.pos[name]
}

// input returns the shared input for a wrapper under a projection, resolving
// the restricted projection on first sight.
func (u *compiler) input(src *source, projection []string) *planInput {
	for _, in := range src.inputs {
		if slices.Equal(in.projection, projection) {
			return in
		}
	}
	in := &planInput{src: src, projection: projection}
	in.proj, in.cols = projectColumns(src.schema, projection)
	in.names = make([]int32, len(in.cols))
	for k, a := range in.proj.Attributes {
		in.names[k] = u.intern(a.Name)
	}
	src.inputs = append(src.inputs, in)
	return in
}

// projectColumns applies the restricted projection Π̃ to a fetched schema:
// the named attributes plus every ID attribute, in fetched-schema order.
func projectColumns(s Schema, projection []string) (Schema, []int32) {
	var proj Schema
	var cols []int32
	for i, a := range s.Attributes {
		if a.ID || slices.Contains(projection, a.Name) {
			proj.Attributes = append(proj.Attributes, a)
			cols = append(cols, int32(i))
		}
	}
	return proj, cols
}

// find returns the walk-local input of a wrapper, or -1.
func (u *compiler) find(wrapper string) int32 {
	for i, in := range u.local {
		if in.src.name == wrapper {
			return int32(i)
		}
	}
	return -1
}

// compileWalk validates one walk, has ex fetch the wrappers it has not
// fetched yet, charges the budget per wrapper occurrence with the reference
// cost model, and appends the walk's plan. It surfaces exactly the errors
// the reference executor raises, in the reference order: Validate first,
// then fetch and budget errors per wrapper, then (for multi-wrapper walks)
// the restricted-join ID checks in consumption order, the disconnected-joins
// error, and the unconnected-wrapper error.
func (u *compiler) compileWalk(ctx context.Context, track *lifecycle.Tracker, ex *execution, w *Walk) error {
	if err := w.Validate(); err != nil {
		return err
	}
	// Later duplicate entries of a wrapper overwrite earlier ones, as the
	// reference executor's relation map did.
	u.local = u.local[:0]
	for i := range w.Wrappers {
		ref := &w.Wrappers[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		src := u.byName[ref.Wrapper]
		rel := ex.rels[src.id]
		if rel == nil {
			var err error
			if rel, err = ex.fetch(ctx, src); err != nil {
				return err
			}
		}
		if !src.known {
			// What the union needs from the wrapper per declared output
			// column, resolved once.
			src.known, src.relName, src.schema, src.rows = true, rel.Name, rel.Schema, rel.NumRows()
			src.outAttr = make([]int32, len(u.output))
			for i, c := range u.output {
				src.outAttr[i] = -1
				if a, ok := c.AttrOf(src.name); ok {
					src.outAttr[i] = u.intern(a)
				}
			}
		}
		in := u.input(src, ref.Projection)
		u.occ = append(u.occ, occurrence{src.id, int32(len(in.cols))})
		if len(u.occ) > ex.charged {
			if err := chargeIngest(track, src.rows, len(in.cols)); err != nil {
				return err
			}
		}
		if k := u.find(ref.Wrapper); k >= 0 {
			u.local[k] = in
		} else {
			u.local = append(u.local, in)
		}
	}

	// The accumulated schema first in reference order — it fixes the errors,
	// the result name and the order of a pass-through output — then again in
	// the planner's order, which fixes the physical positions.
	start := u.local[0]
	wp := walkPlan{stepLo: int32(len(u.steps)), outLo: int32(len(u.outs))}
	u.resetAcc()
	multi, shared := len(w.Wrappers) > 1, false
	if multi {
		var err error
		if shared, err = u.simulateReference(w); err != nil {
			return err
		}
	} else {
		// Single-wrapper walks return the projected relation directly; the
		// reference executor never enters its join loop for them.
		u.merge(u.local[0])
		u.refOrder = append(u.refOrder[:0], 0)
	}
	if u.output == nil {
		u.refAcc = append(u.refAcc[:0], u.acc...)
	}
	if multi {
		first, steps := u.planPhysical(shared)
		start = u.local[first]
		u.resetAcc()
		u.emit(first, steps)
	}
	wp.src, wp.start, wp.stepHi = start.src.id, u.pool(start.cols), int32(len(u.steps))
	if len(u.walks) == 0 && u.name == "" {
		u.name = u.renderName()
	}

	// The walk's post-projected columns, folded into the union schema.
	if u.output == nil {
		// The reference schema: the first input verbatim, then of every
		// further input the names not present yet (Schema.Merge).
		verbatim := u.local[u.refOrder[0]]
		for _, r := range u.refAcc {
			if r.in != verbatim && r.in.col(r.name()) != int(r.k) {
				continue
			}
			u.addOut(r.name(), r.attr(), u.pos[r.name()])
		}
	} else {
		u.sortLocal()
		for ci, c := range u.output {
			for _, li := range u.order {
				p := u.at(u.local[li].src.outAttr[ci])
				if p < 0 {
					continue
				}
				a := u.acc[p].attr()
				a.Name = c.Name
				u.addOut(u.outName[ci], a, p)
				break
			}
		}
	}
	wp.outHi = int32(len(u.outs))
	u.walks = append(u.walks, wp)
	return nil
}

// resetAcc empties the accumulated schema.
func (u *compiler) resetAcc() {
	for _, r := range u.acc {
		u.pos[r.name()] = -1
	}
	u.acc = u.acc[:0]
}

// merge accumulates the attributes of in, except those whose name another
// input already contributed (Schema.Merge: the accumulated attribute wins),
// and reports whether there were any. A name repeated within in keeps both
// columns — the accumulated schema is the physical row layout — and resolves
// to the first.
func (u *compiler) merge(in *planInput) (shared bool) {
	for k, name := range in.names {
		p := u.pos[name]
		if p >= 0 && u.acc[p].in != in {
			shared = true
			continue
		}
		if p < 0 {
			u.pos[name] = int32(len(u.acc))
		}
		u.acc = append(u.acc, attrRef{in, int32(k)})
	}
	return shared
}

// simulateReference replays the reference executor's join-consumption loop
// on schemas alone, fixing the merged schema order (u.acc), the consumption
// order (u.refSteps, u.refOrder) and the structural errors byte-for-byte. It
// reports whether an attribute name appears in two distinct inputs.
func (u *compiler) simulateReference(w *Walk) (shared bool, err error) {
	u.joins, u.remaining = u.joins[:0], u.remaining[:0]
	for i, j := range w.Joins {
		u.joins = append(u.joins, walkJoin{
			l: u.find(j.LeftWrapper), la: u.lookup(j.LeftAttr),
			r: u.find(j.RightWrapper), ra: u.lookup(j.RightAttr),
		})
		u.remaining = append(u.remaining, int32(i))
	}
	u.joined = append(u.joined[:0], make([]bool, len(u.local))...)
	first := u.find(w.Wrappers[0].Wrapper)
	u.joined[first] = true
	u.refOrder = append(u.refOrder[:0], first)
	u.refSteps = u.refSteps[:0]
	u.merge(u.local[first])
	for len(u.remaining) > 0 {
		progress := false
		for i, ji := range u.remaining {
			j, jc := u.joins[ji], w.Joins[ji]
			st := stepRef{input: -1, left: j.la, right: j.ra}
			accAttr, nextAttr := jc.LeftAttr, jc.RightAttr
			switch {
			case u.joined[j.l] && u.joined[j.r]:
				st.filter = true
			case u.joined[j.l]:
				st.input = j.r
			case u.joined[j.r]:
				st.input, st.left, st.right = j.l, j.ra, j.la
				accAttr, nextAttr = jc.RightAttr, jc.LeftAttr
			default:
				continue
			}
			if !st.filter {
				next := u.local[st.input]
				if p := u.at(st.left); p < 0 || !u.acc[p].attr().ID {
					return false, fmt.Errorf("relational: %q is not an ID attribute of %s%s", accAttr, u.renderName(), u.accSchema())
				}
				if !next.proj.IsID(nextAttr) {
					return false, fmt.Errorf("relational: %q is not an ID attribute of %s%s", nextAttr, next.src.relName, next.proj)
				}
				shared = u.merge(next) || shared
				u.joined[st.input] = true
				u.refOrder = append(u.refOrder, st.input)
			}
			u.refSteps = append(u.refSteps, st)
			u.remaining = slices.Delete(u.remaining, i, i+1)
			progress = true
			break
		}
		if !progress {
			remaining := make([]JoinCondition, len(u.remaining))
			for i, ji := range u.remaining {
				remaining[i] = w.Joins[ji]
			}
			return false, fmt.Errorf("relational: walk joins are disconnected: %v", remaining)
		}
	}
	for _, ref := range w.Wrappers {
		if !u.joined[u.find(ref.Wrapper)] {
			return false, fmt.Errorf("relational: wrapper %s is not connected by any join in the walk", ref.Wrapper)
		}
	}
	return shared, nil
}

// renderName renders the reference executor's result name for the inputs
// joined so far, e.g. ((w1⋈w2)⋈w3). It is observable only as the name of an
// unnamed union's first walk and inside error text, so it is not built per
// walk.
func (u *compiler) renderName() string {
	name := u.local[u.refOrder[0]].src.relName
	for _, li := range u.refOrder[1:] {
		name = "(" + name + "⋈" + u.local[li].src.relName + ")"
	}
	return name
}

// accSchema materializes the accumulated schema, for error text.
func (u *compiler) accSchema() Schema {
	var s Schema
	for _, r := range u.acc {
		s.Attributes = append(s.Attributes, r.attr())
	}
	return s
}

// planPhysical chooses the physical join order. When no attribute name is
// shared between two distinct inputs (always true for source-qualified
// walks), the order is free — the merged row set of an inner equi-join
// conjunction is order-independent — and the planner greedily starts from
// the smallest relation and repeatedly joins the smallest connected input,
// applying filter conditions as soon as both sides are accumulated. When
// attribute names ARE shared, the merge's left-wins semantics make cell
// values order-dependent, so the plan replays the reference order exactly.
func (u *compiler) planPhysical(shared bool) (int32, []stepRef) {
	replay := func() (int32, []stepRef) { return u.refOrder[0], u.refSteps }
	if shared {
		return replay()
	}
	rows := func(li int32) int { return u.local[li].src.rows }
	start := int32(0)
	for i := range u.local {
		if rows(int32(i)) < rows(start) {
			start = int32(i)
		}
	}
	for i := range u.joined {
		u.joined[i] = false
	}
	u.joined[start] = true
	u.remaining = u.remaining[:0]
	for i := range u.joins {
		u.remaining = append(u.remaining, int32(i))
	}
	u.physSteps = u.physSteps[:0]
	for len(u.remaining) > 0 {
		// Filters first: they only shrink the accumulated relation.
		bestIdx, bestRows := -1, 0
		var best stepRef
		for i, ji := range u.remaining {
			j := u.joins[ji]
			var cand stepRef
			switch {
			case u.joined[j.l] && u.joined[j.r]:
				bestIdx, best = i, stepRef{filter: true, left: j.la, right: j.ra}
			case u.joined[j.l]:
				cand = stepRef{input: j.r, left: j.la, right: j.ra}
			case u.joined[j.r]:
				cand = stepRef{input: j.l, left: j.ra, right: j.la}
			default:
				continue
			}
			if best.filter {
				break
			}
			if n := rows(cand.input); bestIdx < 0 || n < bestRows {
				bestIdx, bestRows, best = i, n, cand
			}
		}
		// A successful reference simulation connects every condition to the
		// single component, but it only proved the join columns it consumed
		// as joins: a condition it applied as a filter may name an attribute
		// its input does not carry. Replay the reference order then.
		if bestIdx < 0 || (!best.filter && u.local[best.input].col(best.right) < 0) {
			return replay()
		}
		if !best.filter {
			u.joined[best.input] = true
		}
		u.physSteps = append(u.physSteps, best)
		u.remaining = slices.Delete(u.remaining, bestIdx, bestIdx+1)
	}
	return start, u.physSteps
}

// emit resolves a step sequence to positions against the accumulated schema
// as it grows along the sequence, appending the physical steps.
func (u *compiler) emit(start int32, steps []stepRef) {
	u.merge(u.local[start])
	for _, st := range steps {
		if st.filter {
			u.steps = append(u.steps, planStep{filter: true, left: u.at(st.left), right: u.at(st.right)})
			continue
		}
		in := u.local[st.input]
		ps := planStep{left: u.at(st.left), src: in.src.id, key: in.cols[in.col(st.right)]}
		accW := len(u.acc)
		if !u.merge(in) {
			ps.appended = u.pool(in.cols)
		} else {
			// Some columns found their name accumulated: the rest were
			// appended, those merge into the accumulated cell.
			ps.appended.lo = int32(len(u.cols))
			for _, r := range u.acc[accW:] {
				u.cols = append(u.cols, in.cols[r.k])
			}
			ps.shared.lo = int32(len(u.shared))
			for k, name := range in.names {
				if p := u.pos[name]; int(p) < accW {
					u.shared = append(u.shared, sharedCol{p, in.cols[k]})
				}
			}
			ps.appended.hi, ps.shared.hi = int32(len(u.cols)), int32(len(u.shared))
		}
		u.steps = append(u.steps, ps)
	}
}

// pool appends fetched columns to the program's pool.
func (u *compiler) pool(cols []int32) span {
	lo := int32(len(u.cols))
	u.cols = append(u.cols, cols...)
	return span{lo, int32(len(u.cols))}
}

// sortLocal orders the walk's inputs by wrapper name into u.order.
func (u *compiler) sortLocal() {
	u.order = u.order[:0]
	for i := range u.local {
		u.order = append(u.order, int32(i))
	}
	slices.SortFunc(u.order, func(a, b int32) int {
		return strings.Compare(u.local[a].src.name, u.local[b].src.name)
	})
}

// addOut records one output column of the walk being compiled and folds it
// into the union schema: the first walk's columns are taken verbatim, later
// walks append the names not present yet (Schema.Merge).
func (u *compiler) addOut(name int32, a Attribute, phys int32) {
	u.outs = append(u.outs, outCol{name, phys})
	if len(u.walks) > 0 && u.finalPos[name] >= 0 {
		return
	}
	if u.finalPos[name] < 0 {
		u.finalPos[name] = int32(len(u.finalNames))
	}
	u.final.Attributes = append(u.final.Attributes, a)
	u.finalNames = append(u.finalNames, name)
}

// finish resolves, per walk, the physical position feeding each column of
// the union schema (the walk's first output column of that name), and lets
// go of what only the compile reads.
func (u *compiler) finish() {
	for _, src := range u.sources {
		src.inputs, src.outAttr = nil, nil
	}
	u.cols = slices.Clone(u.cols)
	w := len(u.finalNames)
	u.src = make([]int32, len(u.walks)*w)
	for i, wp := range u.walks {
		outs := u.outs[wp.outLo:wp.outHi]
		for fc, name := range u.finalNames {
			u.src[i*w+fc] = -1
			for _, o := range outs {
				if o.name == name {
					u.src[i*w+fc] = o.phys
					break
				}
			}
		}
	}
}

// srcCols returns walk i's physical position per union column.
func (u *unionPlan) srcCols(i int) []int32 {
	w := len(u.finalNames)
	return u.src[i*w : (i+1)*w]
}

// execution is one run of a program; rels and indexes are by source id.
type execution struct {
	resolver  WrapperResolver
	dict      *ValueDict
	rels      []*ColRelation
	indexes   [][]joinIndex // per fetched column
	fetchTime time.Duration
	// charged counts the wrapper occurrences a failed bind charged, which
	// the compile that follows it does not charge again.
	charged int
}

func newExecution(resolver WrapperResolver, sources int, base *ValueDict) *execution {
	return &execution{
		resolver: resolver,
		dict:     base.extend(),
		rels:     make([]*ColRelation, sources),
		indexes:  make([][]joinIndex, sources),
	}
}

// fetch fetches one wrapper into the execution's dictionary.
func (ex *execution) fetch(ctx context.Context, src *source) (*ColRelation, error) {
	_, fspan := obs.StartSpan(ctx, "wrapper.fetch")
	fspan.SetAttr("wrapper", src.name)
	fstart := time.Now()
	defer func() {
		d := time.Since(fstart)
		ex.fetchTime += d
		wrapperFetchSeconds.Observe(d)
		fspan.End()
	}()
	rel, err := ex.resolver.Fetch(ctx, src.name, Pushdown{Attrs: src.attrs}, ex.dict)
	if err != nil {
		return nil, fmt.Errorf("relational: fetching wrapper %s: %w", src.name, err)
	}
	ex.rels[src.id] = rel
	indexes := make([]joinIndex, len(rel.Cols))
	for i := range indexes {
		indexes[i].col = rel.Cols[i]
	}
	ex.indexes[src.id] = indexes
	wrapperFetchesTotal.Inc()
	wrapperRowsTotal.Add(int64(rel.NumRows()))
	fspan.SetAttrInt("rows", int64(rel.NumRows()))
	return rel, nil
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

// bind fetches and charges for a kept program exactly as compiling its walks
// would. It reports false as soon as a fetched relation is not the one the
// program was compiled against, having charged only the occurrences before.
func (u *unionPlan) bind(ctx context.Context, track *lifecycle.Tracker, ex *execution) (bool, error) {
	for i, o := range u.occ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		src := u.sources[o.src]
		if ex.rels[src.id] == nil {
			rel, err := ex.fetch(ctx, src)
			if err != nil {
				return false, err
			}
			if rel.Name != src.relName || rel.NumRows() != src.rows || !slices.Equal(rel.Schema.Attributes, src.schema.Attributes) {
				ex.charged = i
				return false, nil
			}
		}
		if err := chargeIngest(track, src.rows, int(o.cols)); err != nil {
			return false, err
		}
	}
	return true, nil
}

// sharing reports how many wrappers the execution fetched and how many hash
// indexes it built.
func (ex *execution) sharing() (wrappers, indexes int) {
	for i, rel := range ex.rels {
		if rel != nil {
			wrappers++
		}
		for k := range ex.indexes[i] {
			if ex.indexes[i][k].head != nil {
				indexes++
			}
		}
	}
	return wrappers, indexes
}
