package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// OpKind identifies one WAL record type.
type OpKind string

// WAL record kinds.
const (
	OpAddNode     OpKind = "add-node"
	OpAddEdge     OpKind = "add-edge"
	OpSetNodeProp OpKind = "set-node-prop"
	OpSetEdgeProp OpKind = "set-edge-prop"
	OpAddLabels   OpKind = "add-labels"
	OpRemoveNode  OpKind = "remove-node"
	OpRemoveEdge  OpKind = "remove-edge"

	// OpCommit is an epoch commit marker: every record since the previous
	// marker belongs to the epoch it closes. Recovery (RecoverReplay)
	// applies only marker-closed prefixes after a torn tail.
	OpCommit OpKind = "commit"
)

// Record is one WAL entry (JSON-lines on disk). Property values are
// encoded for exact round-tripping: integers as JSON numbers (decoded via
// json.Number, so int64 precision survives), floats as a tagged
// {"$f":"<decimal>"} object (so 1.0 does not collapse into the integer 1).
type Record struct {
	Op     OpKind         `json:"op"`
	ID     int64          `json:"id,omitempty"`
	From   int64          `json:"from,omitempty"`
	To     int64          `json:"to,omitempty"`
	Labels []string       `json:"labels,omitempty"`
	Props  map[string]any `json:"props,omitempty"`
	Key    string         `json:"key,omitempty"`
	Value  any            `json:"value,omitempty"`
	Epoch  uint64         `json:"epoch,omitempty"`
}

// Syncer is the optional durability hook of a WAL sink (os.File satisfies
// it). When the sink implements it, a flush is followed by Sync before any
// record is considered durable.
type Syncer interface{ Sync() error }

// ErrWALClosed is returned by appends to a closed WAL.
var ErrWALClosed = errors.New("storage: wal closed")

// WALPoisonedError is the WAL's typed sticky error: a write, flush or
// fsync failed, so durability can no longer be promised for anything past
// Durable. Every Append and every Commit waiting on a lost window returns
// it; Commits whose records were already durable before the fault still
// succeed. The graph itself keeps working — only logging is poisoned —
// and ReattachWAL re-establishes durable logging on a fresh sink once
// the fault clears.
type WALPoisonedError struct {
	// Cause is the underlying I/O error.
	Cause error
	// Durable is the sequence number of the last record that was flushed
	// and synced before the fault: everything at or below it survived.
	Durable uint64
}

func (e *WALPoisonedError) Error() string {
	return fmt.Sprintf("storage: wal poisoned after durable record %d: %v", e.Durable, e.Cause)
}

func (e *WALPoisonedError) Unwrap() error { return e.Cause }

// WAL is a write-ahead log capturing graph mutations as JSON lines. It is
// safe for concurrent use.
//
// Two durability modes exist. NewWAL gives the legacy eager mode: every
// Append flushes (and Syncs, when the sink is a Syncer) before returning.
// NewGroupWAL gives group commit: appends only buffer, and a background
// flusher makes them durable in batches — on a tunable window tick and on
// Commit barriers — so many concurrent epochs share one fsync. Commit
// returns only after every record appended before the call is flushed and
// synced; an epoch is never acknowledged before it is durable.
type WAL struct {
	mu      sync.Mutex
	cond    *sync.Cond
	w       *bufio.Writer
	syncer  Syncer
	n       int
	err     error
	lsn     uint64 // sequence number of the last appended record
	durable uint64 // sequence number of the last flushed+synced record
	closed  bool

	grouped bool
	window  time.Duration
	kick    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewWAL returns an eager WAL writing to w: every Append is flushed (and
// synced, when w is a Syncer) before it returns.
func NewWAL(w io.Writer) *WAL {
	l := &WAL{w: bufio.NewWriter(w)}
	if s, ok := w.(Syncer); ok {
		l.syncer = s
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// NewGroupWAL returns a group-commit WAL: appends buffer in memory and are
// made durable in batches by a background flusher, at most window apart
// (window <= 0 disables the timer: flushes then happen only on Commit
// barriers and Close). Callers needing durability call Commit.
func NewGroupWAL(w io.Writer, window time.Duration) *WAL {
	l := NewWAL(w)
	l.grouped = true
	l.window = window
	l.kick = make(chan struct{}, 1)
	l.done = make(chan struct{})
	l.wg.Add(1)
	go l.flushLoop()
	return l
}

func (l *WAL) flushLoop() {
	defer l.wg.Done()
	var tickC <-chan time.Time
	if l.window > 0 {
		tick := time.NewTicker(l.window)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
		case <-tickC:
		}
		l.mu.Lock()
		l.flushLocked()
		l.mu.Unlock()
	}
}

// poisonLocked latches an I/O failure into the typed sticky error,
// recording how far durability actually reached. Called with mu held;
// the first fault wins.
func (l *WAL) poisonLocked(cause error) {
	if l.err == nil {
		l.err = &WALPoisonedError{Cause: cause, Durable: l.durable}
	}
}

// Poisoned returns the WAL's sticky *WALPoisonedError, or nil while the
// log is healthy (or failed for a non-I/O reason).
func (l *WAL) Poisoned() *WALPoisonedError {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pe *WALPoisonedError
	if errors.As(l.err, &pe) {
		return pe
	}
	return nil
}

// flushLocked makes every appended record durable. Called with mu held.
func (l *WAL) flushLocked() {
	defer l.cond.Broadcast()
	if l.err != nil || l.durable >= l.lsn {
		return
	}
	target := l.lsn
	if err := l.w.Flush(); err != nil {
		l.poisonLocked(err)
		return
	}
	if l.syncer != nil {
		if err := l.syncer.Sync(); err != nil {
			l.poisonLocked(err)
			return
		}
	}
	l.durable = target
}

// Len returns the number of records appended so far (commit markers
// included).
func (l *WAL) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Durable returns the sequence number of the last record known flushed and
// synced. LSN returns the sequence number of the last appended record.
func (l *WAL) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// LSN returns the sequence number of the last appended record.
func (l *WAL) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Err returns the sticky write error, if any.
func (l *WAL) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Append writes one record. In eager mode it is durable when Append
// returns; in group mode it is buffered until the next window tick or
// Commit barrier.
func (l *WAL) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrWALClosed
	}
	if l.err != nil {
		return l.err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		l.err = err
		return err
	}
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		l.poisonLocked(err)
		return l.err
	}
	l.n++
	l.lsn++
	if !l.grouped {
		l.flushLocked()
	}
	return l.err
}

// Commit is the durability barrier: it returns once every record appended
// before the call is flushed and synced (or with the sticky error). This
// is what "acknowledging an epoch" means — callers must not report an
// epoch as committed until Commit returns.
//
// Under a storage fault the barrier is exact: every Commit whose records
// were lost in the failed flush window returns the *WALPoisonedError (the
// epoch was never acknowledged, so recovery correctly omits it), while a
// Commit whose records were already durable before the fault returns nil
// — those epochs were acknowledged by an earlier successful sync and
// survive recovery.
func (l *WAL) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.lsn
	for l.err == nil && l.durable < target {
		if !l.grouped || l.closed {
			l.flushLocked()
			break
		}
		select {
		case l.kick <- struct{}{}:
		default:
		}
		l.cond.Wait()
	}
	if l.durable >= target {
		return nil
	}
	return l.err
}

// Close stops the group flusher (if any) and flushes outstanding records.
// Further appends fail with ErrWALClosed.
func (l *WAL) Close() error {
	l.mu.Lock()
	if l.closed {
		defer l.mu.Unlock()
		return l.err
	}
	l.closed = true
	grouped := l.grouped
	l.mu.Unlock()
	if grouped {
		close(l.done)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	return l.err
}

// RecordsFromDelta converts one committed epoch's Delta into its WAL
// representation: the epoch's ops in apply order, closed by a commit
// marker carrying the epoch number.
func RecordsFromDelta(d *graph.Delta) []Record {
	recs := make([]Record, 0, len(d.Ops)+1)
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.OpAddNode:
			recs = append(recs, Record{
				Op: OpAddNode, ID: int64(op.Node.ID),
				Labels: op.Node.Labels, Props: walProps(op.Node.Props),
			})
		case graph.OpAddEdge:
			recs = append(recs, Record{
				Op: OpAddEdge, ID: int64(op.Edge.ID),
				From: int64(op.Edge.From), To: int64(op.Edge.To),
				Labels: op.Edge.Labels, Props: walProps(op.Edge.Props),
			})
		case graph.OpSetNodeProp:
			recs = append(recs, Record{Op: OpSetNodeProp, ID: int64(op.ID), Key: op.Key, Value: walValue(op.Value)})
		case graph.OpSetEdgeProp:
			recs = append(recs, Record{Op: OpSetEdgeProp, ID: int64(op.ID), Key: op.Key, Value: walValue(op.Value)})
		case graph.OpAddLabels:
			recs = append(recs, Record{Op: OpAddLabels, ID: int64(op.ID), Labels: op.Labels})
		case graph.OpRemoveNode:
			recs = append(recs, Record{Op: OpRemoveNode, ID: int64(op.ID)})
		case graph.OpRemoveEdge:
			recs = append(recs, Record{Op: OpRemoveEdge, ID: int64(op.ID)})
		}
	}
	return append(recs, Record{Op: OpCommit, Epoch: d.Epoch})
}

// AttachWAL subscribes the WAL to the graph's commit stream: every epoch's
// ops and commit marker are appended (in epoch order) as it commits. With
// a group WAL this is the high-throughput path — epochs buffer and share
// fsyncs; call wal.Commit() where durability must be acknowledged. Append
// errors latch into the WAL's sticky error (visible via Err/Commit). The
// returned function detaches the subscription.
func AttachWAL(g *graph.Graph, wal *WAL) (detach func()) {
	return g.OnCommit(func(d *graph.Delta) {
		for _, rec := range RecordsFromDelta(d) {
			if wal.Append(rec) != nil {
				return
			}
		}
	})
}

// BootstrapRecords renders the graph's entire current state as one
// marker-closed epoch: every node then every edge in ascending ID order,
// closed by a commit marker at the graph's current epoch. Replaying just
// these records reproduces the graph — they are the opening epoch of a
// fresh WAL for a graph that already has history.
func BootstrapRecords(g *graph.Graph) []Record {
	var recs []Record
	g.ForEachNode(func(n *graph.Node) {
		recs = append(recs, Record{
			Op: OpAddNode, ID: int64(n.ID),
			Labels: n.Labels, Props: walProps(n.Props),
		})
	})
	g.ForEachEdge(func(e *graph.Edge) {
		recs = append(recs, Record{
			Op: OpAddEdge, ID: int64(e.ID),
			From: int64(e.From), To: int64(e.To),
			Labels: e.Labels, Props: walProps(e.Props),
		})
	})
	return append(recs, Record{Op: OpCommit, Epoch: g.Epoch()})
}

// ReattachWAL resumes durable logging on a fresh WAL after the previous
// one was poisoned by a storage fault: it writes the graph's full current
// state as a bootstrap epoch (BootstrapRecords), waits for it to be
// durable, then attaches the commit subscription — so recovering the new
// log alone restores everything, including the epochs the poisoned log
// lost. The caller must quiesce writers between detaching the old WAL and
// ReattachWAL returning, or concurrently committed epochs may predate the
// subscription and go unlogged.
func ReattachWAL(g *graph.Graph, wal *WAL) (detach func(), err error) {
	for _, rec := range BootstrapRecords(g) {
		if err := wal.Append(rec); err != nil {
			return nil, err
		}
	}
	if err := wal.Commit(); err != nil {
		return nil, err
	}
	return AttachWAL(g, wal), nil
}

// LoggedGraph wraps a Graph so that every mutation is appended to a WAL as
// its own marker-closed epoch, with a durability barrier before the call
// returns: when a LoggedGraph mutator reports success, the mutation is on
// stable storage. Memory is primary — the mutation is applied to the graph
// first, then logged (a crash between the two loses only unacknowledged
// work, which recovery correctly omits).
type LoggedGraph struct {
	*graph.Graph
	wal *WAL
}

// NewLoggedGraph wraps g with WAL capture.
func NewLoggedGraph(g *graph.Graph, wal *WAL) *LoggedGraph {
	return &LoggedGraph{Graph: g, wal: wal}
}

// WAL returns the underlying log.
func (lg *LoggedGraph) WAL() *WAL { return lg.wal }

// logEpoch appends recs plus a commit marker for the graph's current
// epoch, then waits for durability.
func (lg *LoggedGraph) logEpoch(recs ...Record) error {
	for _, rec := range recs {
		if err := lg.wal.Append(rec); err != nil {
			return err
		}
	}
	if err := lg.wal.Append(Record{Op: OpCommit, Epoch: lg.Graph.Epoch()}); err != nil {
		return err
	}
	return lg.wal.Commit()
}

// AddNode logs then applies a node insertion.
func (lg *LoggedGraph) AddNode(labels []string, props graph.Props) (*graph.Node, error) {
	n := lg.Graph.AddNode(labels, props)
	err := lg.logEpoch(Record{Op: OpAddNode, ID: int64(n.ID), Labels: n.Labels, Props: walProps(n.Props)})
	return n, err
}

// AddEdge logs then applies an edge insertion.
func (lg *LoggedGraph) AddEdge(from, to graph.ID, labels []string, props graph.Props) (*graph.Edge, error) {
	e, err := lg.Graph.AddEdge(from, to, labels, props)
	if err != nil {
		return nil, err
	}
	err = lg.logEpoch(Record{
		Op: OpAddEdge, ID: int64(e.ID), From: int64(from), To: int64(to),
		Labels: e.Labels, Props: walProps(e.Props),
	})
	return e, err
}

// SetNodeProp logs then applies a node property update.
func (lg *LoggedGraph) SetNodeProp(id graph.ID, key string, v graph.Value) error {
	if err := lg.Graph.SetNodeProp(id, key, v); err != nil {
		return err
	}
	return lg.logEpoch(Record{Op: OpSetNodeProp, ID: int64(id), Key: key, Value: walValue(v)})
}

// SetEdgeProp logs then applies an edge property update.
func (lg *LoggedGraph) SetEdgeProp(id graph.ID, key string, v graph.Value) error {
	if err := lg.Graph.SetEdgeProp(id, key, v); err != nil {
		return err
	}
	return lg.logEpoch(Record{Op: OpSetEdgeProp, ID: int64(id), Key: key, Value: walValue(v)})
}

// AddNodeLabels logs then applies a label addition.
func (lg *LoggedGraph) AddNodeLabels(id graph.ID, labels ...string) error {
	if err := lg.Graph.AddNodeLabels(id, labels...); err != nil {
		return err
	}
	return lg.logEpoch(Record{Op: OpAddLabels, ID: int64(id), Labels: labels})
}

// RemoveNode logs then applies a node removal.
func (lg *LoggedGraph) RemoveNode(id graph.ID) error {
	lg.Graph.RemoveNode(id)
	return lg.logEpoch(Record{Op: OpRemoveNode, ID: int64(id)})
}

// RemoveEdge logs then applies an edge removal.
func (lg *LoggedGraph) RemoveEdge(id graph.ID) error {
	lg.Graph.RemoveEdge(id)
	return lg.logEpoch(Record{Op: OpRemoveEdge, ID: int64(id)})
}

// LoggedBatch is a graph.Batch whose commit is written to the WAL as one
// marker-closed epoch — the exact ops the commit applied, cascades
// included — with a durability barrier before Commit returns.
type LoggedBatch struct {
	lg *LoggedGraph
	b  *graph.Batch
}

// NewBatch starts a logged write batch.
func (lg *LoggedGraph) NewBatch() *LoggedBatch {
	return &LoggedBatch{lg: lg, b: lg.Graph.NewBatch()}
}

// AddNode buffers a node insertion (see graph.Batch.AddNode).
func (lb *LoggedBatch) AddNode(labels []string, props graph.Props) *graph.Node {
	return lb.b.AddNode(labels, props)
}

// AddEdge buffers an edge insertion (see graph.Batch.AddEdge).
func (lb *LoggedBatch) AddEdge(from, to graph.ID, labels []string, props graph.Props) (*graph.Edge, error) {
	return lb.b.AddEdge(from, to, labels, props)
}

// SetNodeProp buffers a node property update.
func (lb *LoggedBatch) SetNodeProp(id graph.ID, key string, v graph.Value) {
	lb.b.SetNodeProp(id, key, v)
}

// SetEdgeProp buffers an edge property update.
func (lb *LoggedBatch) SetEdgeProp(id graph.ID, key string, v graph.Value) {
	lb.b.SetEdgeProp(id, key, v)
}

// AddNodeLabels buffers a label addition.
func (lb *LoggedBatch) AddNodeLabels(id graph.ID, labels ...string) {
	lb.b.AddNodeLabels(id, labels...)
}

// RemoveNode buffers a node removal.
func (lb *LoggedBatch) RemoveNode(id graph.ID) { lb.b.RemoveNode(id) }

// RemoveEdge buffers an edge removal.
func (lb *LoggedBatch) RemoveEdge(id graph.ID) { lb.b.RemoveEdge(id) }

// Commit applies the batch as one graph epoch, logs the epoch's ops and
// commit marker, and returns after the epoch is durable. The delta is
// returned even when logging fails (the memory commit already happened);
// the error then reports the durability failure.
func (lb *LoggedBatch) Commit() (*graph.Delta, error) {
	d, err := lb.b.Commit()
	if err != nil {
		return nil, err
	}
	for _, rec := range RecordsFromDelta(d) {
		if err := lb.lg.wal.Append(rec); err != nil {
			return d, err
		}
	}
	return d, lb.lg.wal.Commit()
}

// applyRecord applies one mutation record to g, remapping logged IDs to
// the replayed graph's IDs. Commit markers carry no mutation and must be
// filtered by the caller.
func applyRecord(g *graph.Graph, rec Record, nodeMap, edgeMap map[int64]graph.ID) error {
	switch rec.Op {
	case OpAddNode:
		props, err := anyToProps(rec.Props)
		if err != nil {
			return err
		}
		n := g.AddNode(rec.Labels, props)
		nodeMap[rec.ID] = n.ID
	case OpAddEdge:
		props, err := anyToProps(rec.Props)
		if err != nil {
			return err
		}
		from, ok1 := nodeMap[rec.From]
		to, ok2 := nodeMap[rec.To]
		if !ok1 || !ok2 {
			return fmt.Errorf("unknown endpoint")
		}
		e, err := g.AddEdge(from, to, rec.Labels, props)
		if err != nil {
			return err
		}
		edgeMap[rec.ID] = e.ID
	case OpSetNodeProp:
		id, ok := nodeMap[rec.ID]
		if !ok {
			return fmt.Errorf("unknown node %d", rec.ID)
		}
		v, err := anyToValue(rec.Value)
		if err != nil {
			return err
		}
		return g.SetNodeProp(id, rec.Key, v)
	case OpSetEdgeProp:
		id, ok := edgeMap[rec.ID]
		if !ok {
			return fmt.Errorf("unknown edge %d", rec.ID)
		}
		v, err := anyToValue(rec.Value)
		if err != nil {
			return err
		}
		return g.SetEdgeProp(id, rec.Key, v)
	case OpAddLabels:
		id, ok := nodeMap[rec.ID]
		if !ok {
			return fmt.Errorf("unknown node %d", rec.ID)
		}
		return g.AddNodeLabels(id, rec.Labels...)
	case OpRemoveNode:
		id, ok := nodeMap[rec.ID]
		if !ok {
			return fmt.Errorf("unknown node %d", rec.ID)
		}
		g.RemoveNode(id)
	case OpRemoveEdge:
		id, ok := edgeMap[rec.ID]
		if !ok {
			return fmt.Errorf("unknown edge %d", rec.ID)
		}
		g.RemoveEdge(id)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// Replay applies a WAL stream to an empty graph and returns it. Node and
// edge IDs in the log are mapped to the replayed graph's IDs. Replay is
// strict: any malformed record is an error. For crash recovery — tolerant
// of a torn tail — use RecoverReplay.
func Replay(name string, r io.Reader) (*graph.Graph, error) {
	g := graph.New(name)
	nodeMap := map[int64]graph.ID{}
	edgeMap := map[int64]graph.ID{}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	line := 0
	for {
		var rec Record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return g, nil
		} else if err != nil {
			return nil, fmt.Errorf("storage: wal line %d: %w", line, err)
		}
		line++
		if rec.Op == OpCommit {
			continue
		}
		if err := applyRecord(g, rec, nodeMap, edgeMap); err != nil {
			return nil, fmt.Errorf("storage: wal line %d: %w", line, err)
		}
	}
}

// RecoveryInfo describes what RecoverReplay reconstructed.
type RecoveryInfo struct {
	Applied   int    // mutation records applied
	Discarded int    // well-formed records discarded (uncommitted tail)
	Epoch     uint64 // epoch of the last applied commit marker (0 if none)
	Torn      bool   // the log ended in a torn/corrupt tail
}

// RecoverReplay reconstructs a graph from a WAL that may have a torn tail
// (a crash mid-write). It recovers the longest committed prefix:
//
//   - The well-formed prefix is the run of complete '\n'-terminated lines
//     that unmarshal cleanly; a trailing fragment without '\n', or the
//     first malformed line, ends it (Torn=true, everything after is lost).
//   - Only records up to the last commit marker in the well-formed prefix
//     are applied: a crash can never surface a half-epoch, and trailing
//     records whose marker never hit the disk are discarded. (A log
//     truncated before its first marker therefore recovers empty — it is
//     indistinguishable from an epoch that never committed.)
func RecoverReplay(name string, r io.Reader) (*graph.Graph, RecoveryInfo, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("storage: recover: %w", err)
	}
	var recs []Record
	info := RecoveryInfo{}
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			// Trailing fragment without its newline: torn mid-write.
			info.Torn = true
			break
		}
		line := data[:i]
		data = data[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := unmarshalRecord(line, &rec); err != nil {
			info.Torn = true
			break
		}
		recs = append(recs, rec)
	}

	// Everything after the last commit marker is an unacknowledged (hence
	// uncommitted) tail.
	lastMarker := -1
	for i, rec := range recs {
		if rec.Op == OpCommit {
			lastMarker = i
		}
	}
	keep := recs[:lastMarker+1]
	info.Discarded = len(recs) - len(keep)

	g := graph.New(name)
	nodeMap := map[int64]graph.ID{}
	edgeMap := map[int64]graph.ID{}
	for i, rec := range keep {
		if rec.Op == OpCommit {
			info.Epoch = rec.Epoch
			continue
		}
		if err := applyRecord(g, rec, nodeMap, edgeMap); err != nil {
			return nil, info, fmt.Errorf("storage: recover: record %d: %w", i, err)
		}
		info.Applied++
	}
	return g, info, nil
}

// unmarshalRecord decodes one WAL line with number fidelity and rejects
// trailing garbage (a sign of a torn write landing mid-line).
func unmarshalRecord(line []byte, rec *Record) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(rec); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after record")
	}
	return nil
}
