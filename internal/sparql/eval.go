package sparql

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"bdi/internal/lifecycle"
	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/reasoner"
	"bdi/internal/store"
)

// Evaluator metrics: every ontology probe of the rewriting algorithms lands
// here, so these series expose how much SPARQL work a query or release
// really costs. Per-evaluation overhead is two clock reads and a few atomic
// adds — nothing per row.
var (
	evalSeconds = obs.NewHistogram("bdi_sparql_eval_seconds",
		"Latency of SPARQL evaluations (compile + run) against a pinned snapshot.")
	evalRowsTotal = obs.NewCounter("bdi_sparql_eval_rows_total",
		"Solution rows produced by SPARQL evaluations.")
	compilesTotal = obs.NewCounter("bdi_sparql_compiles_total",
		"Query compilations to slot-based plans.")
)

// Binding is a single solution mapping from variable names to terms.
type Binding map[rdf.Variable]rdf.Term

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Get returns the term bound to the variable.
func (b Binding) Get(v rdf.Variable) (rdf.Term, bool) {
	t, ok := b[v]
	return t, ok
}

// Key returns a canonical representation used for DISTINCT elimination.
func (b Binding) Key(vars []rdf.Variable) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		if t, ok := b[v]; ok {
			parts[i] = rdf.TermKey(t)
		}
	}
	return strings.Join(parts, "\x00")
}

// Solutions is an ordered sequence of bindings plus the projected variables.
type Solutions struct {
	Variables []rdf.Variable
	Bindings  []Binding
}

// Len returns the number of solutions.
func (s *Solutions) Len() int { return len(s.Bindings) }

// Terms returns, for each solution, the terms bound to the projected
// variables in order.
func (s *Solutions) Terms() [][]rdf.Term {
	out := make([][]rdf.Term, len(s.Bindings))
	for i, b := range s.Bindings {
		row := make([]rdf.Term, len(s.Variables))
		for j, v := range s.Variables {
			row[j] = b[v]
		}
		out[i] = row
	}
	return out
}

// Column returns all terms bound to the given variable, in solution order.
func (s *Solutions) Column(v rdf.Variable) []rdf.Term {
	out := make([]rdf.Term, 0, len(s.Bindings))
	for _, b := range s.Bindings {
		if t, ok := b[v]; ok {
			out = append(out, t)
		}
	}
	return out
}

// String renders the solutions as a simple table.
func (s *Solutions) String() string {
	var b strings.Builder
	for i, v := range s.Variables {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(v.String())
	}
	b.WriteByte('\n')
	for _, row := range s.Terms() {
		for i, t := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			if t == nil {
				b.WriteString("UNDEF")
			} else {
				b.WriteString(t.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Evaluator evaluates restricted SPARQL queries against a store, optionally
// applying the RDFS entailment regime (subclass-aware rdf:type and
// subproperty-aware predicate matching), as assumed in §2 of the paper.
//
// Queries are compiled into a slot-based plan (see plan.go) and evaluated
// entirely in dictionary-TermID space: intermediate bindings are flat
// []rdf.TermID rows, joins extend rows through store.MatchIDs and integer
// equality, and terms are rehydrated only at projection time. Entailment
// expansion sets are cached per store generation.
//
// Every evaluation pins one store.Snapshot up front — compilation,
// matching, entailment and the reasoner closures all read from that pinned
// generation — so a query returns an answer consistent with a single store
// state even while writers publish new snapshots concurrently. The
// Evaluator is safe for concurrent use.
type Evaluator struct {
	store      *store.Store
	engine     *reasoner.Engine
	Entailment bool

	mu  sync.Mutex
	ent *entailCache
}

// NewEvaluator returns an evaluator with RDFS entailment enabled.
func NewEvaluator(s *store.Store) *Evaluator {
	return &Evaluator{store: s, engine: reasoner.New(s), Entailment: true}
}

// NewPlainEvaluator returns an evaluator without entailment.
func NewPlainEvaluator(s *store.Store) *Evaluator {
	return &Evaluator{store: s, engine: reasoner.New(s), Entailment: false}
}

// Store returns the underlying store.
func (e *Evaluator) Store() *store.Store { return e.store }

// Select parses and evaluates a query text.
func (e *Evaluator) Select(queryText string) (*Solutions, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(context.Background(), q)
}

// Evaluate evaluates a parsed query against the store's current snapshot
// under the context's cancellation/deadline and any lifecycle.Tracker budget
// it carries.
func (e *Evaluator) Evaluate(ctx context.Context, q *Query) (*Solutions, error) {
	return e.EvaluateAt(ctx, e.store.Snapshot(), q)
}

// EvaluateAt evaluates a parsed query against a pinned snapshot: every
// probe — base matching, entailment expansion, reasoner closures and
// join-order estimates — reads from sn, so the answer reflects exactly one
// store generation. Callers coordinating several queries (or a query plus
// other reads) pin one snapshot and pass it to each. The join, entailment
// and DISTINCT loops check ctx (cancellation, deadline) and the context's
// lifecycle.Tracker (row/byte/wall-time budget) cooperatively at chunk
// granularity (lifecycle.CheckEvery rows), so a cancelled client or
// exhausted budget aborts mid-join with context/budget error while partial
// progress remains readable from the tracker.
func (e *Evaluator) EvaluateAt(ctx context.Context, sn store.Snapshot, q *Query) (*Solutions, error) {
	ctx, span := obs.StartSpan(ctx, "sparql.eval")
	start := time.Now()
	defer func() {
		evalSeconds.Observe(time.Since(start))
		span.End()
	}()
	compilesTotal.Inc()
	pl, err := e.compile(q, sn)
	if err != nil {
		return nil, err
	}
	if pl.empty {
		return &Solutions{Variables: pl.vars}, nil
	}
	sols, err := e.run(ctx, pl, sn)
	if err != nil {
		return nil, err
	}
	evalRowsTotal.Add(int64(sols.Len()))
	span.SetAttrInt("rows", int64(sols.Len()))
	return sols, nil
}

// Ask reports whether the query has at least one solution.
func (e *Evaluator) Ask(q *Query) (bool, error) {
	sols, err := e.Evaluate(context.Background(), q)
	if err != nil {
		return false, err
	}
	return sols.Len() > 0, nil
}

// entailCache holds the per-snapshot state of entailment expansion: the
// vocabulary TermIDs and, per queried predicate, its direct subproperties.
// Subclass closure sets are memoized by the reasoner engine (also per
// snapshot), so the evaluator only caches what the engine does not. The
// cache is keyed on snapshot identity, not the bare generation number, so
// an EvaluateAt against a foreign store can never be served another
// store's expansions.
type entailCache struct {
	snap         store.Snapshot
	typeID       rdf.TermID
	subClassOfID rdf.TermID
	subPropOfID  rdf.TermID
	subProps     map[rdf.TermID][]rdf.TermID
}

// entailment returns the entailment cache for the pinned snapshot,
// rebuilding it when the snapshot moved (a mutation may add hierarchy
// edges or intern the RDFS vocabulary for the first time). Concurrent
// evaluations pinning the same snapshot share one instance; an evaluation
// pinning an older snapshot than the cached one rebuilds — each instance
// is consistent with exactly the snapshot it was built from.
func (e *Evaluator) entailment(sn store.Snapshot) *entailCache {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ent == nil || e.ent.snap != sn {
		d := sn.Dict()
		c := &entailCache{snap: sn, subProps: map[rdf.TermID][]rdf.TermID{}}
		c.typeID, _ = d.Lookup(rdf.RDFType)
		c.subClassOfID, _ = d.Lookup(rdf.RDFSSubClassOf)
		c.subPropOfID, _ = d.Lookup(rdf.RDFSSubPropertyOf)
		e.ent = c
	}
	return e.ent
}

// subPropsOf returns the direct subproperties of the predicate with the
// given id, in the deterministic first-occurrence order of the
// rdfs:subPropertyOf matches, computed once per predicate per generation.
// The probe runs against the evaluation's pinned snapshot (whose generation
// matches the cache instance).
func (e *Evaluator) subPropsOf(c *entailCache, sn store.Snapshot, pid rdf.TermID) []rdf.TermID {
	e.mu.Lock()
	if subs, ok := c.subProps[pid]; ok {
		e.mu.Unlock()
		return subs
	}
	e.mu.Unlock()
	var subs []rdf.TermID
	if c.subPropOfID != 0 {
		if t, ok := sn.Dict().Term(pid); ok && t.Kind() == rdf.KindIRI {
			var seen map[rdf.TermID]bool
			for _, m := range sn.MatchWithIDs(store.WildcardGraph(nil, rdf.RDFSSubPropertyOf, t)) {
				if _, isIRI := m.Subject.(rdf.IRI); !isIRI {
					continue
				}
				if seen[m.ID.Subject] {
					continue
				}
				if seen == nil {
					seen = map[rdf.TermID]bool{}
				}
				seen[m.ID.Subject] = true
				subs = append(subs, m.ID.Subject)
			}
		}
	}
	e.mu.Lock()
	c.subProps[pid] = subs
	e.mu.Unlock()
	return subs
}

// rowArena hands out fixed-width rows from chunked backing buffers, so row
// extension costs an amortized bump allocation instead of one allocation per
// row. Previously handed-out rows keep referencing their original chunk.
type rowArena struct {
	width int
	buf   []rdf.TermID
}

const arenaChunkRows = 512

// alloc returns a fresh zero row of the arena's width.
func (a *rowArena) alloc() []rdf.TermID {
	if a.width == 0 {
		return nil
	}
	if len(a.buf)+a.width > cap(a.buf) {
		a.buf = make([]rdf.TermID, 0, a.width*arenaChunkRows)
	}
	n := len(a.buf)
	a.buf = a.buf[:n+a.width]
	return a.buf[n : n+a.width : n+a.width]
}

// release returns the most recently allocated row to the arena; it must only
// be called for a row that was never retained.
func (a *rowArena) release() {
	a.buf = a.buf[:len(a.buf)-a.width]
}

// exec is the per-evaluation state of the ID-native pipeline. sn is the
// evaluation's pinned snapshot: every probe of the run reads from it, so
// the whole query observes one store generation.
type exec struct {
	e     *Evaluator
	pl    *plan
	sn    store.Snapshot
	ent   *entailCache      // nil when entailment is off
	cl    *reasoner.Closure // hierarchy closure at sn, built on first use
	arena rowArena
	// matchBuf is recycled across the per-row probes of dynamic patterns
	// (it is fully consumed before the next probe); entailBuf likewise
	// across entailment sub-queries. Static matches use their own storage.
	matchBuf  []store.QuadID
	entailBuf []store.QuadID
	// Lifecycle control: ctx carries cancellation/deadline, track the
	// query budget. Produced rows are counted locally and flushed to the
	// tracker — together with a cancellation check — only at
	// lifecycle.CheckEvery boundaries, keeping the per-row cost at one
	// increment.
	ctx        context.Context
	track      *lifecycle.Tracker
	sinceCheck int
}

// produced charges one arena row against the lifecycle budget, flushing the
// local counter and checking cancellation every lifecycle.CheckEvery rows.
func (ec *exec) produced() error {
	ec.sinceCheck++
	if ec.sinceCheck < lifecycle.CheckEvery {
		return nil
	}
	return ec.flushCheck()
}

// flushCheck flushes locally counted rows to the tracker (rows plus their
// arena byte cost) and performs the cooperative cancellation/deadline check.
func (ec *exec) flushCheck() error {
	if n := ec.sinceCheck; n > 0 {
		ec.sinceCheck = 0
		if err := ec.track.AddRows(int64(n)); err != nil {
			return err
		}
		if err := ec.track.AddBytes(int64(n * ec.arena.width * lifecycle.TermIDCost)); err != nil {
			return err
		}
	}
	return lifecycle.Check(ec.ctx, ec.track)
}

// run executes a compiled plan: join the patterns over flat TermID rows,
// filter, project, deduplicate, order deterministically and materialize the
// solutions.
func (e *Evaluator) run(ctx context.Context, pl *plan, sn store.Snapshot) (*Solutions, error) {
	ec := &exec{
		e: e, pl: pl, sn: sn,
		arena: rowArena{width: pl.slotCount},
		ctx:   ctx, track: lifecycle.TrackerFrom(ctx),
	}
	if e.Entailment {
		ec.ent = e.entailment(sn)
	}

	rows := pl.seeds
	if rows == nil {
		rows = [][]rdf.TermID{ec.arena.alloc()}
	}
	for i := range pl.patterns {
		var err error
		rows, err = ec.extend(rows, &pl.patterns[i])
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			break
		}
	}
	if err := ec.flushCheck(); err != nil {
		return nil, err
	}

	// Filters.
	if len(pl.filters) > 0 {
		kept := rows[:0]
		for i, row := range rows {
			if i%lifecycle.CheckEvery == 0 {
				if err := lifecycle.Check(ctx, ec.track); err != nil {
					return nil, err
				}
			}
			if ec.filtersHold(row) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	// Projection + DISTINCT, keyed on the concatenated per-term sort keys
	// (identical bytes to the map-based evaluator's canonical binding key,
	// so DISTINCT semantics and the deterministic order are preserved).
	var projected [][]rdf.TermID
	var projectedKeys []string
	var seen map[string]bool
	if pl.distinct {
		seen = map[string]bool{}
	}
	var scratch []byte
	for i, row := range rows {
		if i%lifecycle.CheckEvery == 0 {
			if err := lifecycle.Check(ec.ctx, ec.track); err != nil {
				return nil, err
			}
		}
		scratch = scratch[:0]
		for i, s := range pl.projSlots {
			if i > 0 {
				scratch = append(scratch, 0)
			}
			scratch = pl.lt.appendKey(scratch, row[s])
		}
		// The map lookup on string(scratch) does not allocate; the key
		// string is materialized only for rows that survive DISTINCT.
		if pl.distinct && seen[string(scratch)] {
			continue
		}
		k := string(scratch)
		if pl.distinct {
			seen[k] = true
		}
		projected = append(projected, row)
		projectedKeys = append(projectedKeys, k)
	}

	// Deterministic ordering.
	if len(projected) > 1 {
		order := make([]int, len(projected))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return projectedKeys[order[i]] < projectedKeys[order[j]]
		})
		ordered := make([][]rdf.TermID, len(projected))
		for i, j := range order {
			ordered[i] = projected[j]
		}
		projected = ordered
	}

	// OFFSET / LIMIT.
	if pl.offset > 0 {
		if pl.offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[pl.offset:]
		}
	}
	if pl.limit >= 0 && pl.limit < len(projected) {
		projected = projected[:pl.limit]
	}

	// Materialize terms, only now and only for the surviving rows.
	bindings := make([]Binding, len(projected))
	for i, row := range projected {
		b := Binding{}
		for j, v := range pl.vars {
			if id := row[pl.projSlots[j]]; id != 0 {
				b[v] = pl.lt.term(id)
			}
		}
		bindings[i] = b
	}
	return &Solutions{Variables: pl.vars, Bindings: bindings}, nil
}

// extend joins the current rows with the matches of a single pattern,
// charging each produced row against the lifecycle budget and checking
// cancellation at chunk boundaries.
func (ec *exec) extend(rows [][]rdf.TermID, pp *planPattern) ([][]rdf.TermID, error) {
	var out [][]rdf.TermID
	var staticMatches []store.QuadID
	if pp.static {
		// The match list cannot depend on the row: compute it once.
		staticMatches = ec.patternMatches(pp, nil, nil)
		if len(staticMatches) == 0 {
			return nil, nil
		}
	}
	for _, row := range rows {
		matches := staticMatches
		if !pp.static {
			matches = ec.patternMatches(pp, row, ec.matchBuf[:0])
		}
		for _, m := range matches {
			if nr, ok := ec.bindMatch(row, pp, m); ok {
				out = append(out, nr)
				if err := ec.produced(); err != nil {
					return nil, err
				}
			}
		}
		if !pp.static {
			// The probe result is fully consumed; recycle its storage
			// (grown by entailment if needed) for the next row.
			ec.matchBuf = matches[:0]
		}
	}
	return out, nil
}

// patternMatches returns the quads matching the pattern under the row's
// bindings, base matches first (store order) and entailed quads appended in
// deterministic expansion order. row may be nil for static patterns; buf, if
// non-nil, provides recycled storage for the result.
func (ec *exec) patternMatches(pp *planPattern, row []rdf.TermID, buf []store.QuadID) []store.QuadID {
	ip := store.IDPattern{
		Subject:   pp.s.valueIn(row),
		Predicate: pp.p.valueIn(row),
		Object:    pp.o.valueIn(row),
	}
	union := false
	synthGraph := ec.pl.emptyGraphID
	switch pp.graphMode {
	case graphUnion:
		union = true
	case graphFixed:
		ip.Graph, ip.GraphSet = pp.graphID, true
		synthGraph = pp.graphID
	case graphVar:
		if g := slotValue(row, pp.graphSlot); g != 0 {
			// A graph variable bound to anything but an IRI matches nothing
			// (and triggers no entailment), mirroring SPARQL's graph-name
			// typing.
			if t := ec.pl.lt.term(g); t == nil || t.Kind() != rdf.KindIRI {
				return nil
			}
			ip.Graph, ip.GraphSet = g, true
			synthGraph = g
		}
	}
	// Index buckets are pre-sorted, so every probe is deterministic-order at
	// streaming cost; the historical ordered/unordered split is gone.
	base := ec.sn.AppendMatchIDs(buf, ip)
	if union {
		base = collapseTriples(base)
	}
	if ec.ent == nil {
		return base
	}
	return ec.entail(ip, base, synthGraph)
}

// closure returns the reasoner's hierarchy closure at the evaluation's
// pinned snapshot, building it on first use: queries whose patterns never
// touch rdf:type or rdfs:subClassOf entailment skip the closure walk
// entirely.
func (ec *exec) closure() *reasoner.Closure {
	if ec.cl == nil {
		ec.cl = ec.e.engine.ClosureAt(ec.sn)
	}
	return ec.cl
}

// slotValue reads a slot of a row; nil rows (static patterns) have no
// bindings.
func slotValue(row []rdf.TermID, slot int) rdf.TermID {
	if row == nil {
		return 0
	}
	return row[slot]
}

// collapseTriples deduplicates union-of-graphs matches on the triple alone,
// keeping the first occurrence (ascending graph order). The input slice is
// returned as-is when no duplicates exist.
func collapseTriples(ms []store.QuadID) []store.QuadID {
	if len(ms) < 2 {
		return ms
	}
	seen := make(map[[3]rdf.TermID]bool, len(ms))
	for i, m := range ms {
		k := [3]rdf.TermID{m.Subject, m.Predicate, m.Object}
		if seen[k] {
			// First duplicate: copy the prefix and filter the rest.
			out := append(make([]store.QuadID, 0, len(ms)-1), ms[:i]...)
			for _, m2 := range ms[i+1:] {
				k2 := [3]rdf.TermID{m2.Subject, m2.Predicate, m2.Object}
				if seen[k2] {
					continue
				}
				seen[k2] = true
				out = append(out, m2)
			}
			return out
		}
		seen[k] = true
	}
	return ms
}

// entail extends base matches with RDFS-entailed quads for the pattern:
// subclass-aware rdf:type, subproperty-aware concrete predicates, and the
// transitive rdfs:subClassOf closure. Entailed quads deduplicate against
// everything already present on the triple alone (entailed quads carry a
// synthetic graph and must not duplicate asserted matches).
func (ec *exec) entail(ip store.IDPattern, base []store.QuadID, synthGraph rdf.TermID) []store.QuadID {
	c := ec.ent
	pid := ip.Predicate
	if pid == 0 {
		return base
	}
	// sub2 probes an expansion pattern into the recycled entailment buffer;
	// each result is fully consumed before the next probe.
	sub2 := func(p2 store.IDPattern) []store.QuadID {
		ec.entailBuf = ec.sn.AppendMatchIDs(ec.entailBuf[:0], p2)
		return ec.entailBuf
	}
	out := base
	var seen map[[3]rdf.TermID]bool
	add := func(m store.QuadID) {
		if seen == nil {
			seen = make(map[[3]rdf.TermID]bool, len(out)+8)
			for _, q := range out {
				seen[[3]rdf.TermID{q.Subject, q.Predicate, q.Object}] = true
			}
		}
		k := [3]rdf.TermID{m.Subject, m.Predicate, m.Object}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, m)
	}

	// rdf:type with a concrete class: include instances of subclasses.
	if pid == c.typeID {
		if oid := ip.Object; oid != 0 {
			for _, sub := range ec.closure().SubClassIDsOf(oid) {
				p2 := ip
				p2.Object = sub
				for _, m := range sub2(p2) {
					m.Object = oid // entailed type
					add(m)
				}
			}
		}
		return out
	}

	// Concrete predicate: include statements made with its subproperties.
	for _, sub := range ec.e.subPropsOf(c, ec.sn, pid) {
		p2 := ip
		p2.Predicate = sub
		for _, m := range sub2(p2) {
			m.Predicate = pid
			add(m)
		}
	}

	// rdfs:subClassOf: include the transitive closure (the rewriting
	// algorithms ask e.g. whether a feature is a subclass of sc:identifier,
	// possibly through intermediate domains). Closure quads are synthesized
	// from the reasoner without consulting the graph restriction; they carry
	// the pattern's graph.
	if pid == c.subClassOfID {
		sid, oid := ip.Subject, ip.Object
		switch {
		case sid != 0 && oid != 0:
			if sid != oid && ec.closure().IsSubClassOfIDs(sid, oid) {
				add(store.QuadID{Graph: synthGraph, Subject: sid, Predicate: pid, Object: oid})
			}
		case sid != 0:
			for _, sup := range ec.closure().SuperClassIDsOf(sid) {
				add(store.QuadID{Graph: synthGraph, Subject: sid, Predicate: pid, Object: sup})
			}
		case oid != 0:
			for _, sub := range ec.closure().SubClassIDsOf(oid) {
				add(store.QuadID{Graph: synthGraph, Subject: sub, Predicate: pid, Object: oid})
			}
		}
	}
	return out
}

// bindMatch extends a row with one matched quad, binding the pattern's
// variable positions in subject, predicate, object, graph order and
// rejecting the match on any conflict with an existing binding.
func (ec *exec) bindMatch(row []rdf.TermID, pp *planPattern, m store.QuadID) ([]rdf.TermID, bool) {
	nr := ec.arena.alloc()
	copy(nr, row)
	bind := func(pt planTerm, val rdf.TermID) bool {
		if pt.slot < 0 {
			return true // constants were matched by the store / entailment
		}
		if cur := nr[pt.slot]; cur != 0 {
			return cur == val
		}
		nr[pt.slot] = val
		return true
	}
	ok := bind(pp.s, m.Subject) && bind(pp.p, m.Predicate) && bind(pp.o, m.Object)
	if ok && pp.graphSlot >= 0 {
		ok = bind(planTerm{slot: pp.graphSlot}, m.Graph)
	}
	if !ok {
		ec.arena.release()
		return nil, false
	}
	return nr, true
}

// filtersHold evaluates every FILTER against the row.
func (ec *exec) filtersHold(row []rdf.TermID) bool {
	for _, f := range ec.pl.filters {
		left, right := f.leftTerm, f.rightTerm
		if f.leftSlot >= 0 {
			left = ec.pl.lt.term(row[f.leftSlot])
		}
		if f.rightSlot >= 0 {
			right = ec.pl.lt.term(row[f.rightSlot])
		}
		if !filterSatisfied(f.op, left, right) {
			return false
		}
	}
	return true
}

// filterSatisfied applies a FILTER comparison to two resolved terms; an
// unresolved (nil) operand fails the filter.
func filterSatisfied(op FilterOp, left, right rdf.Term) bool {
	if left == nil || right == nil {
		return false
	}
	// Numeric comparison when both sides are numeric literals.
	ll, lok := left.(rdf.Literal)
	rl, rok := right.(rdf.Literal)
	if lok && rok {
		if lf, ok1 := ll.Float(); ok1 {
			if rf, ok2 := rl.Float(); ok2 {
				return compareFloats(lf, rf, op)
			}
		}
	}
	switch op {
	case OpEq:
		return left.Equal(right)
	case OpNeq:
		return !left.Equal(right)
	default:
		return compareStrings(left.Value(), right.Value(), op)
	}
}

func compareFloats(a, b float64, op FilterOp) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func compareStrings(a, b string, op FilterOp) bool {
	switch op {
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}
