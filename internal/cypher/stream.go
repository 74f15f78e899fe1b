package cypher

// Streaming delivery: the engine-side half of the Session/Cursor API.
//
// Every query runs as one operator pipeline (pipeline.go) that ends in a
// row sink. A Session cursor's sink is streamSink: each projected row goes
// to the cursor through a bounded channel the moment the pipeline
// produces it, so the first row reaches a Bolt client while the scan is
// still running, a slow consumer backpressures the scan, and a LIMIT
// stops it once satisfied. Rows retained server-side are only those a
// breaker needs (grouping, ORDER BY, the eager barrier before a write).
// RunCtx uses the same pipeline with collectSink instead.

import (
	"context"
	"slices"
)

// rowSink receives a query's result: its columns once known, then each
// projected row. streamSink feeds a Cursor; collectSink fills
// Result.Rows.
type rowSink interface {
	columns(cols []string)
	emit(vals []Datum) error
}

// collectSink is the sink behind RunCtx and ExecuteCtx: a Result is a
// drained cursor.
type collectSink struct{ res *Result }

func (s collectSink) columns([]string) {}

func (s collectSink) emit(vals []Datum) error {
	rows := s.res.Rows
	if len(rows) == cap(rows) {
		// Double the capacity: append grows large slices by ~1.25x, which
		// re-copies the row headers of a big result several times over.
		rows = slices.Grow(rows, len(rows)+1)
	}
	s.res.Rows = append(rows, vals)
	return nil
}

// streamSink carries rows from an executing query to its Cursor. Emission
// blocks when the channel buffer is full — that backpressure is what lets
// a Bolt PULL with a small n pace a huge scan — and unblocks when the
// cursor's context is cancelled (Close, RESET, disconnect).
type streamSink struct {
	cctx context.Context
	cols chan []string
	rows chan []Datum
}

// streamBuffer is the per-cursor row buffer: deep enough to decouple the
// scan from per-row channel latency, small enough that an unread stream
// retains almost nothing.
const streamBuffer = 64

func newStreamSink(cctx context.Context) *streamSink {
	return &streamSink{
		cctx: cctx,
		cols: make(chan []string, 1),
		rows: make(chan []Datum, streamBuffer),
	}
}

// columns announces the result header. It is delivered at most once; the
// cursor's Columns() blocks on it.
func (s *streamSink) columns(cols []string) {
	select {
	case s.cols <- cols:
	default:
	}
}

// emit hands one projected row to the cursor, honoring cancellation.
func (s *streamSink) emit(row []Datum) error {
	select {
	case s.rows <- row:
		return nil
	case <-s.cctx.Done():
		return s.cctx.Err()
	}
}
