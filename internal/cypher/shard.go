package cypher

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/graphrules/graphrules/internal/graph"
)

// This file implements morsel-driven sharded MATCH execution: the
// anchor-candidate range of the first planned pattern part (a label-bucket
// snapshot or index posting list) is cut into small fixed-size morsels,
// each tagged with its sequence index. Workers pull morsels from a shared
// queue (work-stealing: a worker that finishes a cheap morsel immediately
// grabs the next one, so a skewed hub morsel never strands the rest of the
// pool behind one contiguous chunk). Because the morsels partition the
// serial candidate sequence contiguously and outputs are reassembled in
// tag order, concatenating per-morsel rows reproduces exactly the serial
// row order, and merging per-morsel grouping tables in tag order
// reproduces the serial accumulation, collect() element order and
// DISTINCT dedup included. pipeline.go decides when a MATCH is cut into
// morsels and what each morsel produces.

// defaultMorselSize is the anchor-candidate count per morsel when the
// executor has no explicit WithMorselSize configuration. Small enough to
// balance Zipf-hub skew across workers, large enough to amortize the
// per-morsel scheduling cost.
const defaultMorselSize = 256

// morselCap returns the executor's effective morsel size.
func (ex *Executor) morselCap() int {
	if ex.morselSize > 0 {
		return ex.morselSize
	}
	return defaultMorselSize
}

// recordPlan publishes the chosen part order and estimates to the execution
// stats so Explain and the REPL profile command can show them.
func recordPlan(m *matcher, plan *matchPlan) {
	if m.exec == nil || len(plan.order) == 0 {
		return
	}
	m.exec.PartOrder = append([]int(nil), plan.order...)
	m.exec.PartEst = append([]float64(nil), plan.est...)
	m.exec.Reordered = plan.reordered
}

// morselCut splits the candidate slice into contiguous morsels of at most
// size candidates each, preserving candidate order across the concatenation
// of the morsels. The morsel at index t covers candidates [t*size,
// (t+1)*size) — the index is the reassembly tag.
func morselCut(cands []*graph.Node, size int) [][]*graph.Node {
	if len(cands) == 0 {
		return nil
	}
	if size < 1 {
		size = defaultMorselSize
	}
	morsels := make([][]*graph.Node, 0, (len(cands)+size-1)/size)
	for i := 0; i < len(cands); i += size {
		end := i + size
		if end > len(cands) {
			end = len(cands)
		}
		morsels = append(morsels, cands[i:end])
	}
	return morsels
}

// seekIdent is the identity recordSeek dedups on: two SeekInfo entries with
// the same ident describe the same logical seek (later parts re-anchor once
// per outer row); Est and Rows are deterministic per ident.
type seekIdent struct {
	vr, label, key, bounds string
	edge                   bool
}

func seekIdentOf(s SeekInfo) seekIdent {
	return seekIdent{vr: s.Var, label: s.Label, key: s.Key, bounds: s.Bounds, edge: s.Edge}
}

// mergeWorkerStats folds a shard worker's scan counters into the main
// execution stats; plan/shard metadata stays with the main stats. Seeks
// merge by the same identity key recordSeek dedups on — (Var, Label, Key,
// Bounds, Edge), keeping the first occurrence in merge order — so the
// merged list matches the serial run's Seeks exactly: every worker records
// a given seek with identical Est/Rows (candidate enumeration is
// deterministic), each worker lists its seeks in plan execution order, and
// keep-first across workers preserves that order. seen carries the
// identity set across successive merges into the same dst, replacing the
// old O(S²) full-field scan (which also diverged from serial by treating
// Est/Rows as part of the identity).
func mergeWorkerStats(dst, src *ExecStats, seen map[seekIdent]bool) {
	if dst == nil {
		return
	}
	dst.RowsScanned += src.RowsScanned
	dst.IndexSeeks += src.IndexSeeks
	dst.IndexRows += src.IndexRows
	dst.RangeSeeks += src.RangeSeeks
	dst.RangeRows += src.RangeRows
	dst.EdgeSeeks += src.EdgeSeeks
	dst.EdgeRows += src.EdgeRows
	for _, info := range src.Seeks {
		id := seekIdentOf(info)
		if seen[id] {
			continue
		}
		seen[id] = true
		dst.Seeks = append(dst.Seeks, info)
	}
}

// shardWorker is the per-worker private state: its own matcher (stats
// sink), evaluation context (the expression regex cache is not thread-safe,
// so contexts are never shared across workers) and working row. One worker
// processes many morsels sequentially, reusing all three — pattern bindings
// are undone on backtrack, so the row returns to its prototype state
// between morsels.
type shardWorker struct {
	m   *matcher
	ctx *evalCtx
	row Row
}

// newShardWorker builds a worker against g — the scan's graph view, which
// under WithSnapshotPin is the pinned epoch snapshot rather than ex.g.
func (ex *Executor) newShardWorker(g *graph.Graph, params map[string]graph.Value, pushdown bool, ranges whereRanges, cctx context.Context, bud *budget) *shardWorker {
	wm := &matcher{g: g, pushdown: pushdown, ranges: ranges, exec: &ExecStats{}, cctx: cctx, bud: bud}
	wctx := newEvalCtx(g, params, wm)
	wm.ctx = wctx
	return &shardWorker{m: wm, ctx: wctx}
}

// scanMorsels drives one sharded scan of nMorsels morsels over a
// work-stealing pool of at most ex.shardWorkers workers: each worker pulls
// the next unclaimed morsel index from a shared counter and runs fn on it.
// fn must confine its side effects to the tag-indexed slot for its morsel;
// scanMorsels guarantees every fn call has returned before it does (so the
// caller may reassemble slots in tag order without synchronization).
//
// The scan runs under a context derived from the caller's: the first morsel
// error cancels it, so sibling workers stop at their next poll instead of
// finishing their morsels for nothing. Completed workers' scan stats are
// merged into m.exec unconditionally — error or not — so a failed query
// still reports the scan work it did.
//
// Error selection mirrors the serial order: if the caller's own context was
// cancelled that error wins; otherwise the lowest-tagged real (non
// cancellation-induced) morsel error is returned, which for the common
// single-error case is exactly the error serial execution would have
// surfaced first.
func (ex *Executor) scanMorsels(ctx *evalCtx, m *matcher, proto Row, nMorsels int, fn func(w *shardWorker, mi int) error) error {
	if nMorsels == 0 {
		return nil
	}
	workers := ex.shardWorkers
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers < 1 {
		workers = 1
	}

	parent := m.cctx
	if parent == nil {
		parent = context.Background()
	}
	cctx, cancel := context.WithCancel(parent)
	defer cancel()

	errs := make([]error, nMorsels)
	workerStats := make([]*ExecStats, workers)
	var next atomic.Int64
	work := func(wi int) {
		w := ex.newShardWorker(m.g, ctx.params, m.pushdown, m.ranges, cctx, m.bud)
		w.row = proto.clone()
		workerStats[wi] = w.m.exec
		for cctx.Err() == nil {
			mi := int(next.Add(1)) - 1
			if mi >= nMorsels {
				return
			}
			if err := runMorsel(fn, w, mi); err != nil {
				errs[mi] = err
				cancel()
				return
			}
		}
	}
	// The calling goroutine is worker 0: it is already running, so the
	// first morsels start without waiting for a goroutine to be scheduled.
	var wg sync.WaitGroup
	for wi := 1; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			work(wi)
		}(wi)
	}
	work(0)
	wg.Wait()

	if m.exec != nil {
		seen := make(map[seekIdent]bool, len(m.exec.Seeks))
		for _, s := range m.exec.Seeks {
			seen[seekIdentOf(s)] = true
		}
		for _, ws := range workerStats {
			if ws != nil {
				mergeWorkerStats(m.exec, ws, seen)
			}
		}
	}

	if err := parent.Err(); err != nil {
		return err
	}
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			// Induced by our own cancel after a sibling's real error;
			// keep looking for that error. Retained as a fallback so a
			// (theoretically) all-cancellation outcome still errs.
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}

// runMorsel executes fn on one morsel with panic containment: a panic in
// the evaluator or matcher on this worker becomes a *PanicError assigned
// to the morsel's error slot, flowing through the same lowest-tag
// first-error selection as any other morsel failure — the process
// survives and the query fails with serial-consistent error choice.
func runMorsel(fn func(w *shardWorker, mi int) error, w *shardWorker, mi int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = recoverToError(p)
		}
	}()
	return fn(w, mi)
}
