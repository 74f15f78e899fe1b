package cypher

// Session is the transport-agnostic query API: the Bolt server
// (internal/bolt), the cypher REPL and library callers all consume the
// engine through it. A Session owns at most one live Cursor (starting a
// new run closes the previous one, mirroring Bolt's one-stream-per-
// connection discipline) and optionally one explicit transaction.
//
// Streaming: Run executes the query on a dedicated goroutine and returns
// immediately with a Cursor. Every query runs as one operator pipeline
// (pipeline.go) whose rows flow through a bounded channel as they are
// produced, so a slow consumer backpressures the scan instead of the
// result materializing (stream.go); only breakers (grouping, ORDER BY,
// the eager barrier before a write) retain rows.
//
// Admission: when the Executor carries an admission controller, Run
// admits synchronously — callers see AdmissionRejectedError before any
// goroutine is spawned — and the slot is released when the stream
// finishes (drained, failed, or closed), so governor counters track live
// streams, not just in-flight calls.
//
// Transactions: Begin takes the Executor's transaction lock exclusively,
// making explicit transactions single-writer across every session of the
// Executor; auto-commit mutating runs take it shared so they pair freely
// with each other but never interleave with an open transaction. Begin
// forks a private copy-on-write view of the graph (graph.Fork) and the
// transaction's statements run against the fork, so readers on other
// sessions — and OnCommit subscribers such as the WAL and
// metrics.Maintainer — never see uncommitted writes. Commit replays the
// fork's ops on the live graph as one graph.Batch: one epoch, one Delta,
// one WAL commit marker, all or nothing. Rollback drops the fork and
// publishes nothing. An auto-commit statement is not covered: one that
// mutates many rows publishes one epoch per mutation, and is not atomic
// if it is killed mid-way.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/graphrules/graphrules/internal/graph"
)

// Session errors, matched by transports to map onto protocol failures.
var (
	ErrSessionClosed    = errors.New("cypher: session is closed")
	ErrTxOpen           = errors.New("cypher: transaction already open")
	ErrNoTx             = errors.New("cypher: no open transaction")
	ErrCursorUnfinished = errors.New("cypher: cursor still streaming")
)

// Session is a stateful query channel over one Executor. Safe for
// sequential use; methods must not be called concurrently with each
// other (each network connection or REPL owns its own Session).
type Session struct {
	ex     *Executor
	mu     sync.Mutex
	cur    *Cursor
	tx     *sessionTx
	closed bool
}

// sessionTx is one open explicit transaction: the private fork its
// statements run on, the ops committed on the fork so far, and the
// exclusive transaction-lock release.
type sessionTx struct {
	fork   *graph.Graph
	ops    []graph.Op
	unlock func()
}

// OpenSession opens a session over the executor. Sessions share the
// executor's budgets, admission controller and transaction lock.
func (ex *Executor) OpenSession() *Session {
	return &Session{ex: ex}
}

// Run parses src and starts executing it, returning a streaming Cursor.
// Parse errors, admission rejections and context errors surface here;
// execution errors (budget kills, evaluation failures) surface on the
// Cursor after the rows that preceded them. A previous unfinished Cursor
// on this session is closed first.
func (s *Session) Run(cctx context.Context, src string, params map[string]graph.Value) (*Cursor, error) {
	if cctx == nil {
		cctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.finishCursorLocked()

	q, hit, err := s.ex.plan(src)
	if err != nil {
		return nil, err
	}

	// An auto-commit mutating run holds the transaction lock shared for
	// its whole execution, so it never interleaves with an open explicit
	// transaction (which holds it exclusively). Inside a transaction the
	// session already holds the exclusive lock — RWMutex is not
	// reentrant, so it must not be re-acquired here. Reads are untouched.
	var unlock func()
	if s.tx == nil && QueryMutates(q) {
		unlock, err = s.ex.lockTx(cctx, true)
		if err != nil {
			return nil, err
		}
	}

	var done func(error)
	if s.ex.admission != nil {
		done, err = s.ex.admission.Admit(cctx)
		if err != nil {
			if unlock != nil {
				unlock()
			}
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(cctx)
	c := &Cursor{
		sink:   newStreamSink(ctx),
		cancel: cancel,
		fin:    make(chan struct{}),
	}
	s.cur = c

	var fork *graph.Graph
	if s.tx != nil {
		fork = s.tx.fork
	}
	go func() {
		res, rerr := s.ex.executeProtected(ctx, fork, q, params, c.sink)
		if res != nil {
			res.Exec.PlanCacheHit = hit
		}
		c.res, c.err = res, rerr
		close(c.sink.rows)
		close(c.fin)
		if done != nil {
			done(rerr)
		}
		if unlock != nil {
			unlock()
		}
	}()
	return c, nil
}

// finishCursorLocked closes the session's live cursor, if any, waiting
// for its goroutine (and its admission slot and lock holds) to finish.
func (s *Session) finishCursorLocked() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

// Begin opens an explicit transaction: it acquires the executor's
// transaction lock exclusively (honoring ctx while queueing behind other
// writers) and forks the graph for the transaction's statements.
func (s *Session) Begin(cctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.tx != nil {
		return ErrTxOpen
	}
	s.finishCursorLocked()
	unlock, err := s.ex.lockTx(cctx, false)
	if err != nil {
		return err
	}
	tx := &sessionTx{fork: s.ex.g.Fork(), unlock: unlock}
	// Statements run one at a time (each cursor finishes before the next
	// run or Commit), so the log needs no lock of its own.
	tx.fork.OnCommit(func(d *graph.Delta) { tx.ops = append(tx.ops, d.Ops...) })
	s.tx = tx
	return nil
}

// Commit applies the open transaction's writes to the live graph as one
// Batch, so they publish as one epoch; a transaction that wrote nothing
// publishes nothing. If the batch fails validation — a direct graph
// mutator, which bypasses the transaction lock, removed an entity the
// transaction wrote — nothing is applied and the error is returned. The
// transaction is over either way. An unfinished cursor is closed first.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return ErrNoTx
	}
	s.finishCursorLocked()
	tx := s.tx
	s.tx = nil
	defer tx.unlock()
	if len(tx.ops) == 0 {
		return nil
	}
	b := s.ex.g.NewBatch()
	b.Replay(tx.ops...)
	_, err := b.Commit()
	return err
}

// Rollback discards the open transaction: the fork is dropped and the
// live graph never saw its writes.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return ErrNoTx
	}
	s.finishCursorLocked()
	s.tx.unlock()
	s.tx = nil
	return nil
}

// InTx reports whether the session has an open explicit transaction.
func (s *Session) InTx() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// Close ends the session: the live cursor is closed and an open
// transaction rolled back. Further calls return ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.finishCursorLocked()
	if s.tx != nil {
		s.tx.unlock()
		s.tx = nil
	}
	return nil
}

// lockTx acquires the executor's transaction lock (shared or exclusive)
// while honoring ctx cancellation: acquisition runs on a helper
// goroutine and exactly one side — the caller or the helper — claims the
// outcome, so an abandoned acquisition releases the lock itself and
// nothing leaks.
func (ex *Executor) lockTx(cctx context.Context, shared bool) (func(), error) {
	lock, unlock := ex.txMu.Lock, ex.txMu.Unlock
	if shared {
		lock, unlock = ex.txMu.RLock, ex.txMu.RUnlock
	}
	if cctx == nil || cctx.Done() == nil {
		lock()
		return unlock, nil
	}
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	acquired := make(chan struct{})
	var claimed atomic.Bool
	go func() {
		lock()
		if claimed.CompareAndSwap(false, true) {
			close(acquired)
		} else {
			// Caller gave up while we queued; the lock is ours to release.
			unlock()
		}
	}()
	select {
	case <-acquired:
		return unlock, nil
	case <-cctx.Done():
		if claimed.CompareAndSwap(false, true) {
			return nil, cctx.Err()
		}
		// The helper won the claim race: the lock was acquired. Release
		// it and report the cancellation.
		<-acquired
		unlock()
		return nil, cctx.Err()
	}
}

// Cursor streams one run's rows. Next/Record/Err follow the database/sql
// idiom; Close cancels the run and releases its resources. A Cursor is
// not safe for concurrent use.
type Cursor struct {
	sink   *streamSink
	cancel context.CancelFunc
	fin    chan struct{} // closed after res/err are set and the run goroutine is done

	cols   []string
	colsOK bool
	cur    []Datum
	res    *Result
	err    error
	closed atomic.Bool
}

// Next advances to the next row, blocking until one is available or the
// stream ends. It returns false at end of stream — check Err then.
func (c *Cursor) Next() bool {
	row, ok := <-c.sink.rows
	if !ok {
		c.cur = nil
		return false
	}
	c.cur = row
	return true
}

// Record returns the current row. Valid after a true Next until the next
// Next call; the slice must not be retained across calls if mutated.
func (c *Cursor) Record() []Datum { return c.cur }

// Columns returns the result header, blocking until the run has
// determined it: at once for a RETURN of named items, at the first row
// for RETURN *, and at completion for a run that fails first or has no
// RETURN.
func (c *Cursor) Columns() []string {
	if c.colsOK {
		return c.cols
	}
	select {
	case cols := <-c.sink.cols:
		c.cols, c.colsOK = cols, true
	case <-c.fin:
		select {
		case cols := <-c.sink.cols:
			c.cols, c.colsOK = cols, true
		default:
			if c.res != nil {
				c.cols, c.colsOK = c.res.Columns, true
			}
		}
	}
	return c.cols
}

// Err returns the run's terminal error, or nil while streaming or after
// a clean finish. A cancellation caused by Close is not an error.
func (c *Cursor) Err() error {
	select {
	case <-c.fin:
	default:
		return nil
	}
	if c.err != nil && c.closed.Load() && errors.Is(c.err, context.Canceled) {
		return nil
	}
	return c.err
}

// Close cancels the run, drains the stream and waits for the run
// goroutine to finish (releasing its admission slot and lock holds).
// Closing a finished cursor is a no-op; Close returns Err.
func (c *Cursor) Close() error {
	c.closed.Store(true)
	c.cancel()
	for range c.sink.rows {
		// Drain so a producer blocked mid-emit always unblocks.
	}
	<-c.fin
	return c.Err()
}

// Summary returns the run's Result (stats, profile, columns; Rows are
// nil — they streamed through the cursor) and terminal error. It blocks
// until the stream completes, so call it after Next returns false or
// after Close.
func (c *Cursor) Summary() (*Result, error) {
	<-c.fin
	return c.res, c.Err()
}
