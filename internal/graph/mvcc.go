package graph

// Epoch-based MVCC for the in-memory graph.
//
// Every write — a single exported mutator call or a whole Batch — commits
// as one *epoch*: it runs under the writer lock, performs one deduplicated
// cache invalidation, bumps the generation counter, and (when subscribers
// are registered) publishes a Delta describing exactly what changed.
// Readers pin an epoch by taking Snapshot(): a frozen *Graph view sharing
// the immutable node/edge structs and slice storage with the live graph.
// The snapshot is materialized at most once per epoch and cached, so under
// a batched write workload its amortized cost is O(changed)/mutation, and
// a scan that runs entirely against a snapshot observes one epoch no
// matter how many writers commit mid-scan.
//
// A Fork is the same shallow copy left mutable: a private view that an
// explicit transaction writes to, whose ops later commit on the live graph
// as one Batch (see internal/cypher's Session).
//
// Invariants making the sharing safe:
//
//   - published *Node/*Edge structs are never mutated (copy-on-write swap);
//   - published []ID slices are never written in place: removals allocate
//     (removeID), and a view's copies are capacity-clipped, so an append
//     on a fork reallocates and an append on the live graph writes only
//     past the view's length;
//   - a view copies the top-level maps, so key insertions/deletions on
//     either side are invisible to the other.

import (
	"fmt"
	"sort"
)

// OpKind identifies one buffered mutation inside a Batch / Delta.
type OpKind uint8

// Batch operation kinds.
const (
	OpAddNode OpKind = iota + 1
	OpAddEdge
	OpSetNodeProp
	OpSetEdgeProp
	OpAddLabels
	OpRemoveNode
	OpRemoveEdge
)

// String returns the kebab-case name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAddNode:
		return "add-node"
	case OpAddEdge:
		return "add-edge"
	case OpSetNodeProp:
		return "set-node-prop"
	case OpSetEdgeProp:
		return "set-edge-prop"
	case OpAddLabels:
		return "add-labels"
	case OpRemoveNode:
		return "remove-node"
	case OpRemoveEdge:
		return "remove-edge"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one mutation inside an epoch, in apply order. For OpAddNode /
// OpAddEdge, Node / Edge is the struct that was (or will be) published; for
// OpRemoveNode / OpRemoveEdge it is the struct that was removed (nil until
// the epoch commits). Structs must be treated as immutable.
type Op struct {
	Kind   OpKind
	Node   *Node
	Edge   *Edge
	ID     ID
	Key    string
	Value  Value
	Labels []string
}

// ElemDelta summarizes one epoch's changes to the elements carrying a
// label (nodes) or type (edges). Structural means membership changed — an
// element was added, removed, or gained the label — which invalidates any
// derived count over the label; Keys lists the property keys whose values
// changed on surviving elements.
type ElemDelta struct {
	Structural bool
	Keys       map[string]bool
}

func (e *ElemDelta) note(structural bool, keys []string) {
	if structural {
		e.Structural = true
	}
	for _, k := range keys {
		if e.Keys == nil {
			e.Keys = map[string]bool{}
		}
		e.Keys[k] = true
	}
}

// Delta is the published change summary of one committed epoch. Nodes and
// Edges list touched element IDs (in op order, duplicates possible);
// NodeChanges / EdgeChanges aggregate the changes per label / edge type,
// with the empty label standing for unlabeled nodes. Ops is the exact
// mutation list, usable to re-log or replicate the epoch.
type Delta struct {
	Epoch uint64
	Ops   []Op

	NodeChanges map[string]*ElemDelta
	EdgeChanges map[string]*ElemDelta

	Nodes []ID
	Edges []ID
}

func newDelta() *Delta {
	return &Delta{NodeChanges: map[string]*ElemDelta{}, EdgeChanges: map[string]*ElemDelta{}}
}

func noteElem(m map[string]*ElemDelta, labels []string, structural bool, keys []string) {
	if len(labels) == 0 {
		labels = []string{""}
	}
	for _, l := range labels {
		ed := m[l]
		if ed == nil {
			ed = &ElemDelta{}
			m[l] = ed
		}
		ed.note(structural, keys)
	}
}

func (d *Delta) noteNode(labels []string, structural bool, keys ...string) {
	noteElem(d.NodeChanges, labels, structural, keys)
}

func (d *Delta) noteEdge(labels []string, structural bool, keys ...string) {
	noteElem(d.EdgeChanges, labels, structural, keys)
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return len(d.Ops) == 0 && len(d.NodeChanges) == 0 && len(d.EdgeChanges) == 0
}

// ---------- writer epoch plumbing ----------

// beginWrite enters a single-mutation write epoch: it serializes against
// other writers (commitMu), takes the structure lock, and returns a Delta
// to record into when subscribers are registered (nil otherwise). Mutating
// a frozen snapshot view is a programming error and panics.
//
// Both locks are intentionally held at return; endWrite/abortWrite release
// them.
//
//graphrules:locktransfer
func (g *Graph) beginWrite() *Delta {
	if g.frozen {
		panic("graph: mutation of a frozen snapshot view")
	}
	g.commitMu.Lock()
	g.mu.Lock()
	if g.hasSubscribers() {
		return newDelta()
	}
	return nil
}

// endWrite commits the epoch started by beginWrite: drops the cached
// snapshot, bumps the epoch counter, releases the locks and delivers the
// delta (when recorded) to subscribers in commit order.
func (g *Graph) endWrite(d *Delta) {
	g.snap = nil
	epoch := g.epoch.Add(1)
	g.mu.Unlock()
	if d != nil {
		d.Epoch = epoch
		g.deliver(d)
	}
	g.commitMu.Unlock()
}

// abortWrite abandons a write epoch without bumping the counter (the
// mutation failed validation or was a no-op).
func (g *Graph) abortWrite() {
	g.mu.Unlock()
	g.commitMu.Unlock()
}

// Epoch returns the number of committed write epochs. Two reads of an
// unchanged graph observe the same epoch; any mutation advances it.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// IsSnapshot reports whether g is a frozen epoch snapshot view.
func (g *Graph) IsSnapshot() bool { return g.frozen }

// ---------- subscribers ----------

// OnCommit registers fn to be called after every committed epoch with that
// epoch's Delta. Callbacks run synchronously on the committing goroutine,
// in epoch order (writer commits are serialized), and must not mutate the
// graph — doing so would self-deadlock on the commit lock. Reading the
// graph (or its Snapshot) from a callback is safe and observes exactly the
// committed epoch, because delivery happens before the next writer may
// commit. The returned cancel function unregisters the callback.
func (g *Graph) OnCommit(fn func(*Delta)) (cancel func()) {
	g.subMu.Lock()
	if g.subs == nil {
		g.subs = map[int]func(*Delta){}
	}
	id := g.nextSub
	g.nextSub++
	g.subs[id] = fn
	g.subMu.Unlock()
	return func() {
		g.subMu.Lock()
		delete(g.subs, id)
		g.subMu.Unlock()
	}
}

func (g *Graph) hasSubscribers() bool {
	g.subMu.RLock()
	defer g.subMu.RUnlock()
	return len(g.subs) > 0
}

// deliver invokes subscribers in registration order. Called with commitMu
// held (ordering) but without the structure lock (callbacks may read).
func (g *Graph) deliver(d *Delta) {
	g.subMu.RLock()
	if len(g.subs) == 0 {
		g.subMu.RUnlock()
		return
	}
	ids := make([]int, 0, len(g.subs))
	for id := range g.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(*Delta), len(ids))
	for i, id := range ids {
		fns[i] = g.subs[id]
	}
	g.subMu.RUnlock()
	for _, fn := range fns {
		fn(d)
	}
}

// ---------- snapshot views ----------

// Snapshot returns a frozen view of the graph pinned to the current epoch.
// The view is a *Graph sharing the immutable node/edge structs and slice
// storage with the live graph, so construction is O(elements) map copying
// — and it is cached: all callers between two commits share one view, so
// under a batched write workload the amortized cost per mutation is small.
// Snapshots serve the full read API (scans, index seeks, schema/stats) but
// panic on any mutation. Snapshot of a snapshot returns the view itself.
func (g *Graph) Snapshot() *Graph {
	if g.frozen {
		return g
	}
	g.mu.RLock()
	if s := g.snap; s != nil {
		g.mu.RUnlock()
		return s
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.snap == nil {
		g.snap = g.buildSnapshotLocked(true)
	}
	return g.snap
}

// Fork returns a private, mutable copy-on-write view of the graph at the
// current epoch. Writes to the fork commit epochs on the fork only; the
// live graph never sees them. Node and edge IDs are reserved from the
// live graph's counters, so the fork's committed ops (gathered with
// OnCommit on the fork) can be replayed on the live graph with
// Batch.Replay, and dropping the fork just leaves a gap in the IDs.
func (g *Graph) Fork() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.buildSnapshotLocked(false)
}

func (g *Graph) buildSnapshotLocked(frozen bool) *Graph {
	s := &Graph{
		name:         g.name,
		frozen:       frozen,
		ids:          g.ids,
		nodes:        make(map[ID]*Node, len(g.nodes)),
		edges:        make(map[ID]*Edge, len(g.edges)),
		out:          make(map[ID][]ID, len(g.out)),
		in:           make(map[ID][]ID, len(g.in)),
		nodesByLabel: make(map[string][]ID, len(g.nodesByLabel)),
		edgesByType:  make(map[string][]ID, len(g.edgesByType)),
	}
	for id, n := range g.nodes {
		s.nodes[id] = n
	}
	for id, e := range g.edges {
		s.edges[id] = e
	}
	for id, ids := range g.out {
		s.out[id] = ids[:len(ids):len(ids)]
	}
	for id, ids := range g.in {
		s.in[id] = ids[:len(ids):len(ids)]
	}
	for l, ids := range g.nodesByLabel {
		s.nodesByLabel[l] = ids[:len(ids):len(ids)]
	}
	for l, ids := range g.edgesByType {
		s.edgesByType[l] = ids[:len(ids):len(ids)]
	}
	s.epoch.Store(g.epoch.Load())
	return s
}

// ---------- batched write epochs ----------

// Batch buffers mutations and commits them as one atomic epoch: a single
// writer-lock acquisition, one deduplicated cache invalidation, one epoch
// bump, one Delta. Node and edge IDs are reserved eagerly, so AddNode's
// return value can be used by later ops in the same batch; nothing is
// visible to readers until Commit. A Batch is not safe for concurrent use.
//
// Commit is all-or-nothing: every op is validated against the graph state
// at commit time (with the batch's own adds/removes overlaid, in order)
// before anything is applied, so a failed Commit leaves the graph — and
// its epoch counter — untouched.
type Batch struct {
	g         *Graph
	ops       []Op
	committed bool
	err       error
}

// NewBatch starts an empty write batch against the graph.
func (g *Graph) NewBatch() *Batch {
	if g.frozen {
		panic("graph: batch on a frozen snapshot view")
	}
	return &Batch{g: g}
}

// Len returns the number of buffered ops.
func (b *Batch) Len() int { return len(b.ops) }

// AddNode buffers a node insertion and returns the node that Commit will
// publish. The ID is final; the struct must not be mutated.
func (b *Batch) AddNode(labels []string, props Props) *Node {
	n := b.g.newNode(labels, props)
	b.ops = append(b.ops, Op{Kind: OpAddNode, Node: n})
	return n
}

// AddEdge buffers an edge insertion. Endpoints may be pre-existing nodes
// or nodes added earlier in this batch; existence is validated at Commit.
func (b *Batch) AddEdge(from, to ID, labels []string, props Props) (*Edge, error) {
	labels = dedupe(labels)
	if len(labels) == 0 {
		err := fmt.Errorf("graph %q: batch AddEdge: edge requires at least one label", b.g.name)
		b.setErr(err)
		return nil, err
	}
	e := b.g.newEdge(from, to, labels, props)
	b.ops = append(b.ops, Op{Kind: OpAddEdge, Edge: e})
	return e, nil
}

// SetNodeProp buffers a node property update (null deletes the key).
func (b *Batch) SetNodeProp(id ID, key string, v Value) {
	b.ops = append(b.ops, Op{Kind: OpSetNodeProp, ID: id, Key: key, Value: v})
}

// SetEdgeProp buffers an edge property update (null deletes the key).
func (b *Batch) SetEdgeProp(id ID, key string, v Value) {
	b.ops = append(b.ops, Op{Kind: OpSetEdgeProp, ID: id, Key: key, Value: v})
}

// AddNodeLabels buffers a label addition to an existing node.
func (b *Batch) AddNodeLabels(id ID, labels ...string) {
	b.ops = append(b.ops, Op{Kind: OpAddLabels, ID: id, Labels: labels})
}

// RemoveNode buffers a node removal (with its incident edges). Removing a
// node that does not exist at commit time is a no-op, as with the direct
// mutator.
func (b *Batch) RemoveNode(id ID) {
	b.ops = append(b.ops, Op{Kind: OpRemoveNode, ID: id})
}

// RemoveEdge buffers an edge removal; missing edges are a no-op.
func (b *Batch) RemoveEdge(id ID) {
	b.ops = append(b.ops, Op{Kind: OpRemoveEdge, ID: id})
}

// Replay buffers ops committed on a Fork of this graph, in their commit
// order. Added nodes and edges keep the structs and IDs the fork
// published them with; Commit validates every op against the graph as
// it is then, like any other buffered op.
func (b *Batch) Replay(ops ...Op) {
	b.ops = append(b.ops, ops...)
}

func (b *Batch) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Commit validates and applies every buffered op as one epoch and returns
// the epoch's Delta. On validation failure nothing is applied and the
// epoch counter does not advance. Committing twice is an error; an empty
// batch commits to an empty epoch.
func (b *Batch) Commit() (*Delta, error) {
	if b.committed {
		return nil, fmt.Errorf("graph %q: batch already committed", b.g.name)
	}
	if b.err != nil {
		return nil, b.err
	}
	g := b.g
	g.commitMu.Lock()
	g.mu.Lock()
	if err := g.validateOpsLocked(b.ops); err != nil {
		g.mu.Unlock()
		g.commitMu.Unlock()
		return nil, err
	}
	d := newDelta()
	for i := range b.ops {
		g.applyOpLocked(&b.ops[i], d)
	}
	g.snap = nil
	d.Epoch = g.epoch.Add(1)
	g.mu.Unlock()
	b.committed = true
	g.deliver(d)
	g.commitMu.Unlock()
	return d, nil
}

// validateOpsLocked dry-runs the batch against the current state plus the
// batch's own adds/removes, in order, so Commit is all-or-nothing.
func (g *Graph) validateOpsLocked(ops []Op) error {
	addedN := map[ID]bool{}
	addedE := map[ID]bool{}
	removedN := map[ID]bool{}
	removedE := map[ID]bool{}
	nodeLive := func(id ID) bool {
		if removedN[id] {
			return false
		}
		if addedN[id] {
			return true
		}
		_, ok := g.nodes[id]
		return ok
	}
	edgeLive := func(id ID) bool {
		if removedE[id] {
			return false
		}
		if addedE[id] {
			return true
		}
		_, ok := g.edges[id]
		return ok
	}
	// batchEdges tracks endpoints of edges added in this batch so a later
	// RemoveNode cascades over them during validation.
	batchEdges := map[ID]*Edge{}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpAddNode:
			if nodeLive(op.Node.ID) {
				return fmt.Errorf("graph %q: batch op %d: node %d already exists", g.name, i, op.Node.ID)
			}
			addedN[op.Node.ID] = true
			delete(removedN, op.Node.ID)
		case OpAddEdge:
			e := op.Edge
			if !nodeLive(e.From) {
				return fmt.Errorf("graph %q: batch op %d: AddEdge source node %d does not exist", g.name, i, e.From)
			}
			if !nodeLive(e.To) {
				return fmt.Errorf("graph %q: batch op %d: AddEdge target node %d does not exist", g.name, i, e.To)
			}
			addedE[e.ID] = true
			delete(removedE, e.ID)
			batchEdges[e.ID] = e
		case OpSetNodeProp, OpAddLabels:
			if !nodeLive(op.ID) {
				return fmt.Errorf("graph %q: batch op %d: node %d does not exist", g.name, i, op.ID)
			}
		case OpSetEdgeProp:
			if !edgeLive(op.ID) {
				return fmt.Errorf("graph %q: batch op %d: edge %d does not exist", g.name, i, op.ID)
			}
		case OpRemoveNode:
			if !nodeLive(op.ID) {
				continue // no-op, like the direct mutator
			}
			removedN[op.ID] = true
			delete(addedN, op.ID)
			for _, eid := range g.out[op.ID] {
				removedE[eid] = true
			}
			for _, eid := range g.in[op.ID] {
				removedE[eid] = true
			}
			for eid, e := range batchEdges {
				if e.From == op.ID || e.To == op.ID {
					removedE[eid] = true
					delete(addedE, eid)
				}
			}
		case OpRemoveEdge:
			if !edgeLive(op.ID) {
				continue // no-op
			}
			removedE[op.ID] = true
			delete(addedE, op.ID)
		default:
			return fmt.Errorf("graph %q: batch op %d: unknown kind %v", g.name, i, op.Kind)
		}
	}
	return nil
}

// applyOpLocked applies one validated op, recording it into d.
func (g *Graph) applyOpLocked(op *Op, d *Delta) {
	switch op.Kind {
	case OpAddNode:
		g.insertNodeLocked(op.Node, d)
	case OpAddEdge:
		g.insertEdgeLocked(op.Edge, d)
	case OpSetNodeProp:
		// Validated above; the only remaining failure is a node removed by
		// a later-validated path, which validation already simulated.
		_ = g.setNodePropLocked(op.ID, op.Key, op.Value, d)
	case OpSetEdgeProp:
		_ = g.setEdgePropLocked(op.ID, op.Key, op.Value, d)
	case OpAddLabels:
		_ = g.addNodeLabelsLocked(op.ID, op.Labels, d)
	case OpRemoveNode:
		op.Node = g.nodes[op.ID]
		g.removeNodeLocked(op.ID, d)
	case OpRemoveEdge:
		op.Edge = g.edges[op.ID]
		g.removeEdgeLocked(op.ID, d)
	}
}
