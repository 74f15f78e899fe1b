package cypher

// The clause pipeline: executeGoverned compiles a query's clauses into one
// chain of push-based operators, one per clause, ending in a row sink.
// Each operator takes one binding row, pushes zero or more rows to its
// successor, and on finish flushes whatever it retained. Rows are
// transient: the matcher binds pattern variables in place and undoes them
// on backtrack, so an operator that keeps a row must copy it.
//
// Most operators stream. MATCH runs its WHERE and pushes each binding on;
// UNWIND, non-aggregate projection, WITH's WHERE, DISTINCT (a seen-set)
// and SKIP/LIMIT (counters) handle one row at a time, and a satisfied
// LIMIT returns errStopMatching, which unwinds the scans above it. Three
// operators are breakers that retain rows: grouping (every aggregate; its
// zero-key case is a plain count), ORDER BY (buffer, stable sort, replay)
// and the eager barrier in front of CREATE/SET/DELETE, which drains its
// whole input before it writes, so a mutating clause never sees its own
// writes.
//
// A MATCH whose input is known to be exactly one row (the query's start
// row, or a breaker's one-row output) and whose anchor is unbound cuts its
// anchor scan into morsels (shard.go). Workers run the scan and WHERE per
// morsel; when the next operator groups, they also group per morsel and
// the partial states merge in tag order, otherwise each morsel's rows are
// buffered and pushed on in tag order. Either way the downstream sees the
// serial row order.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// rowOp is one operator of the clause pipeline. push hands it one
// transient binding row; one marks a row known to be the only row of its
// stream. finish signals the end of input: the operator flushes what it
// retained and finishes its successor. finish never returns
// errStopMatching.
type rowOp interface {
	push(r Row, one bool) error
	finish() error
}

// discardOp ends a pipeline that has no RETURN.
type discardOp struct{}

func (discardOp) push(Row, bool) error { return nil }
func (discardOp) finish() error        { return nil }

// stage wraps one clause's operator with its timing and cancellation
// checks. A stage's time runs from its first input to the end of its
// finish, so it includes the downstream work the clause drove.
type stage struct {
	op         rowOp
	name       string
	m          *matcher
	start, end time.Time
}

func (s *stage) push(r Row, one bool) error {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	if err := s.m.pollCtx(); err != nil {
		return err
	}
	return s.op.push(r, one)
}

func (s *stage) finish() error {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	if err := s.m.checkCtx(); err != nil {
		return err
	}
	err := s.op.finish()
	s.end = time.Now()
	return err
}

// pipeline is one compiled query.
type pipeline struct {
	head   rowOp
	stages []*stage
}

// compile builds the operator chain for q. Projections resolve their
// columns here (RETURN publishes them to the sink at once, unless it
// projects * and must see a row first), and every MATCH is planned
// against the variables bound before it.
func (ex *Executor) compile(ctx *evalCtx, m *matcher, q *Query, res *Result, sink rowSink) (*pipeline, error) {
	plans := make([]*matchPlan, len(q.Clauses))
	ranges := make([]whereRanges, len(q.Clauses))
	bound := map[string]bool{}
	for i, cl := range q.Clauses {
		if i > 0 {
			if _, ok := q.Clauses[i-1].(*ReturnClause); ok {
				return nil, execErrf("RETURN must be the final clause")
			}
		}
		switch c := cl.(type) {
		case *MatchClause:
			ranges[i] = ex.clauseRanges(c.Where)
			plans[i] = ex.planMatch(c.Patterns, bound, ranges[i])
			recordPlan(m, plans[i])
		case *WithClause, *ReturnClause, *UnwindClause, *CreateClause, *SetClause, *DeleteClause:
		default:
			return nil, execErrf("unsupported clause at position %d", i)
		}
		bindScope(bound, cl)
	}

	p := &pipeline{stages: make([]*stage, len(q.Clauses))}
	var next rowOp = discardOp{}
	var grouping *groupTable // the grouping table of the clause after i
	for i := len(q.Clauses) - 1; i >= 0; i-- {
		var op rowOp
		var proj *projectOp
		var err error
		switch c := q.Clauses[i].(type) {
		case *MatchClause:
			op = &matchOp{ex: ex, ctx: ctx, m: m, cl: c, plan: plans[i], ranges: ranges[i],
				newVars: patternVars(c.Patterns), st: &res.Stats, next: next, groups: grouping}
		case *WithClause:
			proj, err = ex.newProjectOp(ctx, &c.Projection, c.Where, next, nil, nil)
			op = proj
		case *ReturnClause:
			proj, err = ex.newProjectOp(ctx, &c.Projection, nil, nil, res, sink)
			op = proj
		case *UnwindClause:
			op = &unwindOp{ctx: ctx, cl: c, next: next}
		case *CreateClause:
			op = &eagerOp{ctx: ctx, next: next, apply: func(in []Row) ([]Row, error) {
				return ex.execCreate(ctx, c, in, &res.Stats)
			}}
		case *SetClause:
			op = &eagerOp{ctx: ctx, next: next, apply: func(in []Row) ([]Row, error) {
				return ex.execSet(ctx, c, in, &res.Stats)
			}}
		case *DeleteClause:
			op = &eagerOp{ctx: ctx, next: next, apply: func(in []Row) ([]Row, error) {
				return ex.execDelete(ctx, c, in, &res.Stats)
			}}
		}
		if err != nil {
			return nil, err
		}
		grouping = nil
		if proj != nil {
			grouping = proj.groups
		}
		p.stages[i] = &stage{op: op, name: clauseName(q.Clauses[i]), m: m}
		next = p.stages[i]
	}
	p.head = next
	return p, nil
}

// bindScope updates the set of bound variables past one clause.
func bindScope(bound map[string]bool, cl Clause) {
	switch c := cl.(type) {
	case *MatchClause:
		for _, part := range c.Patterns {
			markPatternVars(part, bound)
		}
	case *CreateClause:
		for _, part := range c.Patterns {
			markPatternVars(part, bound)
		}
	case *WithClause:
		if !c.Star {
			clear(bound)
		}
		for _, col := range projectionCols(c.Items) {
			bound[col] = true
		}
	case *UnwindClause:
		bound[c.Alias] = true
	}
}

// run pushes the start row through the chain and finishes it. A LIMIT
// that stopped the scans is a normal end: the chain still finishes, so
// breakers after the LIMIT flush.
func (p *pipeline) run(m *matcher) error {
	if err := m.checkCtx(); err != nil {
		return err
	}
	err := p.head.push(Row{}, true)
	if err != nil && !errors.Is(err, errStopMatching) {
		return err
	}
	return p.head.finish()
}

// timings reports one entry per clause that started, in clause order; a
// clause cut short by an error is timed up to now.
func (p *pipeline) timings() []ClauseTiming {
	var out []ClauseTiming
	now := time.Now()
	for _, s := range p.stages {
		if s.start.IsZero() {
			continue
		}
		end := s.end
		if end.IsZero() {
			end = now
		}
		out = append(out, ClauseTiming{Clause: s.name, Duration: end.Sub(s.start)})
	}
	return out
}

// ---------- MATCH ----------

// matchOp runs one MATCH or OPTIONAL MATCH clause per input row. When the
// next clause groups (and names its items, so its grouping table exists
// before any row arrives), matchOp feeds that table directly: serially, or
// one partial table per morsel.
type matchOp struct {
	ex      *Executor
	ctx     *evalCtx
	m       *matcher
	cl      *MatchClause
	plan    *matchPlan
	ranges  whereRanges
	newVars []string
	st      *Stats
	next    rowOp
	groups  *groupTable // the next clause's grouping table, or nil
}

// keep applies the clause's WHERE to one binding.
func (o *matchOp) keep(ctx *evalCtx, r Row) (bool, error) {
	if o.cl.Where == nil {
		return true, nil
	}
	t, err := ctx.evalBool(o.cl.Where, r)
	return t == triTrue, err
}

func (o *matchOp) push(r Row, one bool) error {
	o.st.RowsExamined++
	o.m.ranges = o.ranges
	// A bound anchor has one candidate: there is nothing to cut.
	_, anchorBound := r[o.plan.parts[0].Nodes[0].Var]
	if one && o.ex.shardWorkers >= 1 && !anchorBound {
		return o.pushMorsels(r)
	}
	matched := false
	err := o.m.matchAll(o.plan.parts, nil, r, func(b Row) error {
		ok, err := o.keep(o.ctx, b)
		if err != nil || !ok {
			return err
		}
		matched = true
		if o.groups != nil {
			return o.groups.add(o.ctx, b)
		}
		err = o.next.push(b, false)
		o.m.ranges = o.ranges // a later MATCH downstream set its own
		return err
	})
	if err != nil || matched || !o.cl.Optional {
		return err
	}
	return o.pad(r, one)
}

func (o *matchOp) finish() error { return o.next.finish() }

// pad pushes the OPTIONAL MATCH row for an input that matched nothing:
// the clause's new variables bound to null.
func (o *matchOp) pad(r Row, one bool) error {
	var added []string
	for _, v := range o.newVars {
		if _, ok := r[v]; !ok {
			r[v] = NullDatum
			added = append(added, v)
		}
	}
	err := o.next.push(r, one)
	for _, v := range added {
		delete(r, v)
	}
	return err
}

// pushMorsels runs the clause for its only input row with the anchor scan
// cut into morsels. Per-morsel outputs (rows, or partial grouping tables)
// are reassembled in tag order, which is the serial candidate order.
func (o *matchOp) pushMorsels(r Row) error {
	ex, m := o.ex, o.m
	cands := m.anchorCandidates(o.plan.parts[0])
	size := ex.morselCap()
	morsels := morselCut(cands, size)

	counts := make([]int, len(morsels))
	tables := make([]*groupTable, len(morsels))
	outs := make([][]Row, len(morsels))
	err := ex.scanMorsels(o.ctx, m, r, len(morsels), func(w *shardWorker, mi int) error {
		if o.groups != nil {
			tables[mi] = o.groups.fork()
		}
		return w.m.matchAll(o.plan.parts, morsels[mi], w.row, func(b Row) error {
			ok, err := o.keep(w.ctx, b)
			if err != nil || !ok {
				return err
			}
			counts[mi]++
			if t := tables[mi]; t != nil {
				return t.add(w.ctx, b)
			}
			if err := w.m.bud.chargeRow(len(b)); err != nil {
				return err
			}
			outs[mi] = append(outs[mi], b.clone())
			return nil
		})
	})
	// The stats describe the cut on error paths too; morsels the failure
	// cancelled report zero rows.
	st := m.exec
	st.Sharded, st.ShardWorkers, st.Morsels, st.MorselSize, st.ShardRows = true, ex.shardWorkers, len(morsels), size, counts
	if err != nil {
		return err
	}
	matched := false
	for mi := range morsels {
		matched = matched || counts[mi] > 0
		if o.groups != nil {
			if err := o.groups.merge(tables[mi]); err != nil {
				return err
			}
			continue
		}
		for _, b := range outs[mi] {
			if err := o.next.push(b, false); err != nil {
				return err
			}
		}
		outs[mi] = nil
	}
	if matched || !o.cl.Optional {
		return nil
	}
	return o.pad(r, true)
}

// ---------- UNWIND ----------

// unwindOp binds the alias to each list element in turn on the input row
// itself, restoring the row before it returns.
type unwindOp struct {
	ctx  *evalCtx
	cl   *UnwindClause
	next rowOp
}

func (o *unwindOp) push(r Row, one bool) error {
	d, err := o.ctx.eval(o.cl.Expr, r)
	if err != nil {
		return err
	}
	var elems []graph.Value
	switch v := d.Scalar(); v.Kind() {
	case graph.KindNull:
		return nil
	case graph.KindList:
		elems = v.List()
	default:
		elems = []graph.Value{v}
	}
	prev, had := r[o.cl.Alias]
	for _, e := range elems {
		r[o.cl.Alias] = ValDatum(e)
		if err = o.next.push(r, one && len(elems) == 1); err != nil {
			break
		}
	}
	if had {
		r[o.cl.Alias] = prev
	} else {
		delete(r, o.cl.Alias)
	}
	return err
}

func (o *unwindOp) finish() error { return o.next.finish() }

// ---------- CREATE / SET / DELETE ----------

// eagerOp is the barrier in front of a mutating clause: it retains every
// input row and applies the clause to all of them at finish, so the
// clauses before it never observe its writes.
type eagerOp struct {
	ctx   *evalCtx
	rows  []Row
	apply func([]Row) ([]Row, error)
	next  rowOp
}

func (o *eagerOp) push(r Row, _ bool) error {
	if err := o.ctx.bud().chargeRow(len(r)); err != nil {
		return err
	}
	o.rows = append(o.rows, r.clone())
	return nil
}

func (o *eagerOp) finish() error {
	out, err := o.apply(o.rows)
	o.rows = nil
	if err != nil {
		return err
	}
	for _, r := range out {
		if err := o.next.push(r, len(out) == 1); err != nil {
			if !errors.Is(err, errStopMatching) {
				return err
			}
			break
		}
	}
	return o.next.finish()
}

// ---------- WITH / RETURN ----------

// projectOp evaluates one WITH or RETURN projection. Non-aggregate items
// stream; aggregate items feed a grouping table that emits at finish.
// Projected records then pass DISTINCT, ORDER BY (buffered until finish),
// SKIP and LIMIT. WITH binds each record as a row, applies its WHERE and
// pushes on; RETURN charges the budget and emits to the sink.
type projectOp struct {
	ctx   *evalCtx
	p     *Projection
	where Expr  // WITH's WHERE
	next  rowOp // WITH: the next clause; nil for RETURN
	res   *Result
	sink  rowSink

	items  []*ReturnItem // resolved items; nil until a * projection sees a row
	cols   []string
	groups *groupTable     // non-nil when an item aggregates
	seen   map[string]bool // DISTINCT
	sorted [][]Datum       // ORDER BY buffer
	skip   int             // rows still to skip
	limit  int             // -1 when unlimited
	out    int             // rows passed on so far
	row    Row             // WITH's output row, reused per record
	hash   []byte          // DISTINCT key scratch
}

func (ex *Executor) newProjectOp(ctx *evalCtx, p *Projection, where Expr, next rowOp, res *Result, sink rowSink) (*projectOp, error) {
	o := &projectOp{ctx: ctx, p: p, where: where, next: next, res: res, sink: sink, limit: -1}
	if p.Skip != nil {
		n, err := ex.evalPosInt(ctx, p.Skip, "SKIP")
		if err != nil {
			return nil, err
		}
		o.skip = n
	}
	if p.Limit != nil {
		n, err := ex.evalPosInt(ctx, p.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		o.limit = n
	}
	if p.Distinct {
		o.seen = map[string]bool{}
	}
	if !p.Star {
		if err := o.resolve(nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// resolve fixes the projection's items and columns. A * projection
// expands to the variables bound in the first row it sees (none when it
// sees no row).
func (o *projectOp) resolve(r Row) error {
	items := o.p.Items
	if o.p.Star {
		var star []*ReturnItem
		for _, v := range sortedVarNames(r) {
			star = append(star, &ReturnItem{Expr: &Variable{Name: v}, Alias: v})
		}
		items = append(star, items...)
	}
	if len(items) == 0 {
		return execErrf("projection requires at least one item")
	}
	o.items, o.cols = items, projectionCols(items)
	for _, it := range items {
		if ContainsAggregate(it.Expr) {
			o.groups = newGroupTable(items)
			break
		}
	}
	if o.res != nil {
		o.res.Columns = o.cols
		o.sink.columns(o.cols)
	}
	return nil
}

func (o *projectOp) push(r Row, one bool) error {
	if o.items == nil {
		if err := o.resolve(r); err != nil {
			return err
		}
	}
	if o.groups != nil {
		return o.groups.add(o.ctx, r)
	}
	vals := make([]Datum, len(o.items))
	for i, it := range o.items {
		d, err := o.ctx.eval(it.Expr, r)
		if err != nil {
			return err
		}
		vals[i] = d
	}
	return o.record(vals, one)
}

// record applies DISTINCT, then buffers for ORDER BY or pages.
func (o *projectOp) record(vals []Datum, one bool) error {
	if o.seen != nil {
		o.hash = o.hash[:0]
		for _, d := range vals {
			o.hash = append(o.hash, d.Hashable()...)
			o.hash = append(o.hash, '|')
		}
		if o.seen[string(o.hash)] {
			return nil
		}
		if err := o.ctx.bud().chargeMem(aggStateBytes + int64(len(o.hash))); err != nil {
			return err
		}
		o.seen[string(o.hash)] = true
	}
	if len(o.p.OrderBy) > 0 {
		if err := o.ctx.bud().chargeRow(len(vals)); err != nil {
			return err
		}
		o.sorted = append(o.sorted, vals)
		return nil
	}
	return o.page(vals, one)
}

// page applies SKIP and LIMIT and passes the record on; it returns
// errStopMatching once LIMIT is satisfied.
func (o *projectOp) page(vals []Datum, one bool) error {
	if o.skip > 0 {
		o.skip--
		return nil
	}
	if o.limit >= 0 && o.out >= o.limit {
		return errStopMatching
	}
	o.out++
	if err := o.emit(vals, one); err != nil {
		return err
	}
	if o.limit >= 0 && o.out >= o.limit {
		return errStopMatching
	}
	return nil
}

// emit hands a record to the sink (RETURN) or, bound as a row and passed
// through WHERE, to the next clause (WITH).
func (o *projectOp) emit(vals []Datum, one bool) error {
	if o.next == nil {
		if err := o.ctx.bud().chargeRow(len(vals)); err != nil {
			return err
		}
		return o.sink.emit(vals)
	}
	o.row = o.bind(o.row, vals)
	if o.where != nil {
		t, err := o.ctx.evalBool(o.where, o.row)
		if err != nil || t != triTrue {
			return err
		}
	}
	return o.next.push(o.row, one)
}

// bind refills row (allocated on first use) with the record's columns.
func (o *projectOp) bind(row Row, vals []Datum) Row {
	if row == nil {
		row = make(Row, len(o.cols))
	} else {
		clear(row)
	}
	for i, c := range o.cols {
		row[c] = vals[i]
	}
	return row
}

func (o *projectOp) finish() error {
	if o.items == nil {
		if err := o.resolve(nil); err != nil {
			return err
		}
	}
	var err error
	if o.groups != nil {
		err = o.groups.emit(o)
	}
	if err == nil && len(o.p.OrderBy) > 0 {
		err = o.flushSorted()
	}
	if err != nil && !errors.Is(err, errStopMatching) {
		return err
	}
	if o.next != nil {
		return o.next.finish()
	}
	return nil
}

// flushSorted stable-sorts the buffered records by the ORDER BY keys, each
// evaluated on the record's output bindings, and pages them.
func (o *projectOp) flushSorted() error {
	recs := o.sorted
	o.sorted = nil
	nk := len(o.p.OrderBy)
	keys := make([]string, len(recs)*nk)
	var row Row
	for i, vals := range recs {
		row = o.bind(row, vals)
		for j, si := range o.p.OrderBy {
			d, err := o.ctx.eval(si.Expr, row)
			if err != nil {
				return err
			}
			keys[i*nk+j] = d.Scalar().SortKey()
		}
	}
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]*nk:idx[a]*nk+nk], keys[idx[b]*nk:idx[b]*nk+nk]
		for j, si := range o.p.OrderBy {
			if ka[j] == kb[j] {
				continue
			}
			if si.Desc {
				return ka[j] > kb[j]
			}
			return ka[j] < kb[j]
		}
		return false
	})
	for _, i := range idx {
		if err := o.page(recs[i], len(recs) == 1); err != nil {
			return err
		}
	}
	return nil
}

// ---------- grouping ----------

// groupTable accumulates an aggregating projection's groups in
// first-seen order. Items without an aggregate are the grouping keys.
// With no keys there is one group and add allocates nothing per row.
type groupTable struct {
	items   []*ReturnItem
	keyIdx  []int       // indices of the key items
	aggs    []*FuncCall // every aggregate call, in item order
	needRow bool        // an aggregate item reads bindings outside its aggregates
	index   map[string]int
	groups  []*group
	hash    []byte  // key scratch
	keyVals []Datum // key scratch
}

// group is one grouping key's state: the key values, one aggregate state
// per call, and (when needRow) a copy of the group's first row.
type group struct {
	key   string
	vals  []Datum
	aggs  []*aggState
	first Row
}

func newGroupTable(items []*ReturnItem) *groupTable {
	t := &groupTable{items: items, index: map[string]int{}}
	for i, it := range items {
		if !ContainsAggregate(it.Expr) {
			t.keyIdx = append(t.keyIdx, i)
			continue
		}
		collectAggregates(it.Expr, &t.aggs)
		t.needRow = t.needRow || readsRowOutsideAggregates(it.Expr)
	}
	return t
}

// fork returns an empty table for the same projection: a morsel's
// partial grouping state.
func (t *groupTable) fork() *groupTable {
	return &groupTable{items: t.items, keyIdx: t.keyIdx, aggs: t.aggs, needRow: t.needRow, index: map[string]int{}}
}

func (t *groupTable) newGroup(key string, vals []Datum, r Row) *group {
	g := &group{key: key, vals: vals, aggs: make([]*aggState, len(t.aggs))}
	for i, fc := range t.aggs {
		g.aggs[i] = newAggState(fc)
	}
	if t.needRow && r != nil {
		g.first = r.clone()
	}
	t.index[key] = len(t.groups)
	t.groups = append(t.groups, g)
	return g
}

// add feeds one row into its group.
func (t *groupTable) add(ctx *evalCtx, r Row) error {
	var g *group
	if len(t.keyIdx) == 0 {
		if len(t.groups) == 0 {
			t.newGroup("", nil, r)
		}
		g = t.groups[0]
	} else {
		t.hash, t.keyVals = t.hash[:0], t.keyVals[:0]
		for _, i := range t.keyIdx {
			d, err := ctx.eval(t.items[i].Expr, r)
			if err != nil {
				return err
			}
			t.keyVals = append(t.keyVals, d)
			t.hash = append(t.hash, d.Hashable()...)
			t.hash = append(t.hash, '|')
		}
		if gi, ok := t.index[string(t.hash)]; ok {
			g = t.groups[gi]
		} else {
			if err := ctx.bud().chargeRow(len(r)); err != nil {
				return err
			}
			g = t.newGroup(string(t.hash), append([]Datum(nil), t.keyVals...), r)
		}
	}
	for _, st := range g.aggs {
		if err := st.add(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// merge folds a later morsel's partial table into t: groups new to t are
// adopted, shared ones merge their aggregate states. Merging morsels in
// tag order reproduces the serial first-seen group order and
// accumulation.
func (t *groupTable) merge(o *groupTable) error {
	for _, og := range o.groups {
		gi, ok := t.index[og.key]
		if !ok {
			t.index[og.key] = len(t.groups)
			t.groups = append(t.groups, og)
			continue
		}
		for i, st := range t.groups[gi].aggs {
			if err := st.merge(og.aggs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit evaluates each group's items, aggregates resolved from the group's
// states, and records them through o. With no keys and no input the
// aggregates still yield one row (count(*) over nothing is 0).
func (t *groupTable) emit(o *projectOp) error {
	if len(t.groups) == 0 && len(t.keyIdx) == 0 {
		t.newGroup("", nil, nil)
	}
	ctx := o.ctx
	results := make(map[*FuncCall]Datum, len(t.aggs))
	for _, g := range t.groups {
		for i, st := range g.aggs {
			results[t.aggs[i]] = st.result()
		}
		first := g.first
		if first == nil {
			first = Row{}
		}
		vals := make([]Datum, len(t.items))
		ki := 0
		ctx.aggResults = results
		for i, it := range t.items {
			if ki < len(t.keyIdx) && t.keyIdx[ki] == i {
				vals[i] = g.vals[ki]
				ki++
				continue
			}
			d, err := ctx.eval(it.Expr, first)
			if err != nil {
				ctx.aggResults = nil
				return err
			}
			vals[i] = d
		}
		ctx.aggResults = nil
		if err := o.record(vals, len(t.groups) == 1); err != nil {
			return err
		}
	}
	return nil
}

// readsRowOutsideAggregates reports whether evaluating an aggregate item
// reads row bindings beyond its aggregate calls (e.g. `n.x + count(*)`),
// in which case its group keeps a copy of its first row.
func readsRowOutsideAggregates(e Expr) bool {
	refs := func(e Expr) int {
		n := 0
		WalkExpr(e, func(x Expr) {
			switch x.(type) {
			case *Variable, *PatternPred:
				n++
			}
		})
		return n
	}
	n := refs(e)
	var aggs []*FuncCall
	collectAggregates(e, &aggs)
	for _, fc := range aggs {
		n -= refs(fc)
	}
	return n > 0
}

// projectionCols names a projection's output columns, suffixing repeats
// with "_" so every column name is unique.
func projectionCols(items []*ReturnItem) []string {
	cols := make([]string, len(items))
	seen := map[string]bool{}
	for i, it := range items {
		name := it.Name()
		for seen[name] {
			name += "_"
		}
		seen[name] = true
		cols[i] = name
	}
	return cols
}

// evalPosInt evaluates a SKIP or LIMIT expression.
func (ex *Executor) evalPosInt(ctx *evalCtx, e Expr, what string) (int, error) {
	d, err := ctx.eval(e, Row{})
	if err != nil {
		return 0, err
	}
	v := d.Scalar()
	if v.Kind() != graph.KindInt || v.Int() < 0 {
		return 0, execErrf("%s requires a non-negative integer", what)
	}
	return int(v.Int()), nil
}

// clauseName labels a clause in ExecStats.Clauses.
func clauseName(c Clause) string {
	switch cl := c.(type) {
	case *MatchClause:
		if cl.Optional {
			return "OptionalMatch"
		}
		return "Match"
	case *WithClause:
		return "With"
	case *ReturnClause:
		return "Return"
	case *UnwindClause:
		return "Unwind"
	case *CreateClause:
		return "Create"
	case *SetClause:
		return "Set"
	case *DeleteClause:
		if cl.Detach {
			return "DetachDelete"
		}
		return "Delete"
	default:
		return fmt.Sprintf("%T", c)
	}
}
