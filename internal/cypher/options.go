package cypher

import "time"

// Option configures an Executor at construction:
//
//	ex := cypher.NewExecutor(g,
//		cypher.WithShardWorkers(8),
//		cypher.WithPlanCacheCap(256),
//		cypher.WithRangePushdown(false),
//	)
//
// Options are the one place executor knobs are defined; the graphrules
// facade and mining.Config forward []Option verbatim, so a new knob added
// here is immediately reachable from every API layer.
type Option func(*Executor)

// WithIndexPushdown toggles the label+property equality index pushdown (on
// by default). Disabling it forces plain label-bucket scans and also
// disables range pushdown, which rides on the same matcher gate.
func WithIndexPushdown(on bool) Option {
	return func(ex *Executor) { ex.noPushdown = !on }
}

// WithRangePushdown toggles the ordered-index range pushdown (on by
// default): inequality and STARTS WITH conjuncts in WHERE, plus
// relationship-property constraints, become index range seeks.
func WithRangePushdown(on bool) Option {
	return func(ex *Executor) { ex.noRangePushdown = !on }
}

// WithReorder toggles cost-based pattern-part ordering (on by default).
// Disabling it pins the written part order and orientation, which also pins
// the serial row order — the differential oracle's reference mode.
func WithReorder(on bool) Option {
	return func(ex *Executor) { ex.noReorder = !on }
}

// WithShardWorkers configures sharded MATCH execution: eligible anchor
// scans are partitioned across n workers and merged in shard order,
// preserving the serial row order. n <= 0 keeps the plain serial path;
// n == 1 runs the shard machinery with a single shard (useful for
// differential tests).
func WithShardWorkers(n int) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.shardWorkers = n
	}
}

// WithMorselSize sets how many anchor candidates each morsel of a sharded
// scan covers (default 256). Shard workers steal morsels from a shared
// queue and per-morsel outputs are reassembled in candidate order, so the
// size only trades scheduling overhead against load balance — it never
// changes results. n <= 0 restores the default.
func WithMorselSize(n int) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.morselSize = n
	}
}

// WithPlanCacheCap bounds the plan cache to n entries, evicting
// least-recently-used plans beyond the cap. n <= 0 keeps the default cap.
func WithPlanCacheCap(n int) Option {
	return func(ex *Executor) { ex.setPlanCacheCap(n) }
}

// WithMaxRows caps the number of rows one query retains or returns
// (result rows, rows held by grouping, ORDER BY, the eager barrier before
// a write, and morsel buffers) summed across all shard workers. Rows that
// stream through without being retained are not counted. Exceeding it kills the query with a *ResourceExhaustedError
// carrying the partial ExecStats. n <= 0 disables the cap (default).
// A query that finishes under the cap is byte-identical to ungoverned.
func WithMaxRows(n int) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.maxRows = n
	}
}

// WithMemoryBudget bounds a query's approximate retained allocation:
// retained and returned rows, DISTINCT keys and aggregate-state elements
// charge an estimated byte cost against the budget as they are created. The accounting is
// deliberately coarse — it bounds order-of-magnitude blowups (runaway
// cartesian products, unbounded collect()) rather than exact footprints.
// n <= 0 disables the budget (default).
func WithMemoryBudget(n int64) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.memBudget = n
	}
}

// WithQueryDeadline bounds one query's wall-clock execution time,
// enforced cooperatively on the same amortized stride as context polls.
// Unlike a context deadline it needs no timer goroutine per query and
// reports a typed *ResourceExhaustedError with partial stats rather than
// context.DeadlineExceeded. d <= 0 disables it (default).
func WithQueryDeadline(d time.Duration) Option {
	return func(ex *Executor) {
		if d < 0 {
			d = 0
		}
		ex.queryDeadline = d
	}
}

// WithAdmission gates every ExecuteCtx through an admission controller:
// Admit runs before the query touches the graph (its error — typically a
// typed rejection — is returned verbatim) and the returned done func is
// called with the query's final error, letting the controller classify
// completions vs budget kills. internal/governor provides the standard
// implementation. nil disables gating (default).
func WithAdmission(a Admission) Option {
	return func(ex *Executor) { ex.admission = a }
}

// WithSnapshotPin pins every read-only query to the graph epoch current
// when its execution starts: the scan runs against a frozen snapshot view,
// so concurrent epoch commits never change what one query observes
// mid-scan. Mutating queries (CREATE/SET/DELETE) always run on the live
// graph regardless of this option. Off by default — without concurrent
// writers the live graph is the same view for free.
func WithSnapshotPin(on bool) Option {
	return func(ex *Executor) { ex.snapshotPin = on }
}
