package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/graph"
)

// crashSink is an in-memory WAL sink that models a crash-prone disk: Write
// lands in a volatile buffer, Sync moves the high-water mark of what would
// survive a crash. durableBytes is "the disk after pulling the plug".
type crashSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	synced int
	syncs  int
}

func (s *crashSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *crashSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = s.buf.Len()
	s.syncs++
	return nil
}

func (s *crashSink) durableBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()[:s.synced]...)
}

func (s *crashSink) allBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// fidelityProps exercises every value kind, including the adversarial
// cases: whole floats (marshal as bare ints), int64 beyond float64's 2^53
// integer range, and nested lists mixing all of it.
func fidelityProps() graph.Props {
	return graph.Props{
		"i":     graph.NewInt(42),
		"big":   graph.NewInt(int64(1)<<62 + 3),
		"neg":   graph.NewInt(-9007199254740993), // 2^53+1, float64-unrepresentable
		"f":     graph.NewFloat(3.25),
		"whole": graph.NewFloat(1.0),
		"tiny":  graph.NewFloat(5e-324),
		"b":     graph.NewBool(true),
		"s":     graph.NewString("héllo \"wal\"\nline"),
		"list": graph.NewList(
			graph.NewInt(1), graph.NewFloat(2.0), graph.NewString("x"),
			graph.NewList(graph.NewBool(false), graph.NewFloat(0.5)),
		),
	}
}

func valuesEqualExact(t *testing.T, path string, want, got graph.Value) {
	t.Helper()
	if want.Kind() != got.Kind() {
		t.Errorf("%s: kind %v -> %v", path, want.Kind(), got.Kind())
		return
	}
	switch want.Kind() {
	case graph.KindInt:
		if want.Int() != got.Int() {
			t.Errorf("%s: int %d -> %d", path, want.Int(), got.Int())
		}
	case graph.KindFloat:
		if math.Float64bits(want.Float()) != math.Float64bits(got.Float()) {
			t.Errorf("%s: float %v -> %v", path, want.Float(), got.Float())
		}
	case graph.KindBool:
		if want.Bool() != got.Bool() {
			t.Errorf("%s: bool %v -> %v", path, want.Bool(), got.Bool())
		}
	case graph.KindString:
		if want.Str() != got.Str() {
			t.Errorf("%s: string %q -> %q", path, want.Str(), got.Str())
		}
	case graph.KindList:
		if len(want.List()) != len(got.List()) {
			t.Errorf("%s: list len %d -> %d", path, len(want.List()), len(got.List()))
			return
		}
		for i := range want.List() {
			valuesEqualExact(t, fmt.Sprintf("%s[%d]", path, i), want.List()[i], got.List()[i])
		}
	}
}

// TestWALRoundTripFidelity pins the satellite fix: Append -> Replay is
// value-identical (kind AND bits) for int/float/bool/string/list props —
// whole floats stay floats, big int64s keep every bit.
func TestWALRoundTripFidelity(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLoggedGraph(graph.New("fid"), NewWAL(&buf))
	props := fidelityProps()
	n, err := lg.AddNode([]string{"N"}, props)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetNodeProp(n.ID, "set-whole", graph.NewFloat(7.0)); err != nil {
		t.Fatal(err)
	}
	if err := lg.SetNodeProp(n.ID, "set-big", graph.NewInt(1<<61)); err != nil {
		t.Fatal(err)
	}

	got, err := Replay("fid", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rn := got.Node(got.Nodes()[0])
	for k, want := range props {
		valuesEqualExact(t, k, want, rn.Prop(k))
	}
	valuesEqualExact(t, "set-whole", graph.NewFloat(7.0), rn.Prop("set-whole"))
	valuesEqualExact(t, "set-big", graph.NewInt(1<<61), rn.Prop("set-big"))
}

// TestWALRoundTripFidelityProperty fuzzes random value trees through
// Append -> Replay and demands exact identity.
func TestWALRoundTripFidelityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var randomValue func(depth int) graph.Value
	randomValue = func(depth int) graph.Value {
		switch k := rng.Intn(6); {
		case k == 0:
			return graph.NewInt(rng.Int63() - rng.Int63())
		case k == 1:
			// Mix whole and fractional floats deliberately.
			if rng.Intn(2) == 0 {
				return graph.NewFloat(float64(rng.Intn(100)))
			}
			return graph.NewFloat(rng.NormFloat64())
		case k == 2:
			return graph.NewBool(rng.Intn(2) == 0)
		case k == 3:
			return graph.NewString(fmt.Sprintf("s%d\n\"%d\"", rng.Intn(1000), rng.Intn(1000)))
		case k == 4 && depth < 2:
			n := rng.Intn(4)
			elems := make([]graph.Value, n)
			for i := range elems {
				elems[i] = randomValue(depth + 1)
			}
			return graph.NewList(elems...)
		default:
			return graph.NewInt(int64(rng.Intn(10)))
		}
	}

	for trial := 0; trial < 50; trial++ {
		var buf bytes.Buffer
		lg := NewLoggedGraph(graph.New("prop"), NewWAL(&buf))
		props := graph.Props{}
		for i := 0; i < 1+rng.Intn(5); i++ {
			props[fmt.Sprintf("k%d", i)] = randomValue(0)
		}
		if _, err := lg.AddNode([]string{"N"}, props); err != nil {
			t.Fatal(err)
		}
		got, err := Replay("prop", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rn := got.Node(got.Nodes()[0])
		for k, want := range props {
			valuesEqualExact(t, fmt.Sprintf("trial %d %s", trial, k), want, rn.Prop(k))
		}
	}
}

// buildEpochLog writes a WAL with a mix of single-mutator epochs and a
// multi-op batch epoch (with a cascading removal), returning the log bytes.
func buildEpochLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	lg := NewLoggedGraph(graph.New("crash"), NewWAL(&buf))
	a, err := lg.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(1), "w": graph.NewFloat(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	bNode, _ := lg.AddNode([]string{"Tweet"}, nil)
	if _, err := lg.AddEdge(a.ID, bNode.ID, []string{"POSTS"}, graph.Props{"at": graph.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := lg.SetNodeProp(a.ID, "name", graph.NewString("alice")); err != nil {
		t.Fatal(err)
	}

	// One batch epoch: adds, an edge, a prop, and a cascading removal.
	lb := lg.NewBatch()
	c := lb.AddNode([]string{"Temp"}, nil)
	d := lb.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(2)})
	if _, err := lb.AddEdge(c.ID, d.ID, []string{"REF"}, nil); err != nil {
		t.Fatal(err)
	}
	lb.SetNodeProp(d.ID, "name", graph.NewString("bob"))
	lb.RemoveNode(c.ID) // cascades over the REF edge inside the same epoch
	if _, err := lb.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := lg.AddNodeLabels(a.ID, "Admin"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// committedPrefixEnds returns the byte offsets just past each commit
// marker's newline — the valid recovery points of the log.
func committedPrefixEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		off += len(line)
		var rec Record
		if err := unmarshalRecord(bytes.TrimSuffix(line, []byte("\n")), &rec); err != nil {
			t.Fatalf("bad log line: %v", err)
		}
		if rec.Op == OpCommit {
			ends = append(ends, off)
		}
	}
	return ends
}

func renderGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCrashRecoveryEveryOffset simulates a torn WAL tail at EVERY byte
// offset of the log and asserts RecoverReplay reconstructs exactly the
// longest committed prefix that fully fits — never a half-epoch, never
// less than the last durable commit marker.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	data := buildEpochLog(t)
	ends := committedPrefixEnds(t, data)
	if len(ends) < 3 {
		t.Fatalf("log has %d commit markers, want several", len(ends))
	}

	// Reference graphs: strict replay of each committed prefix.
	refs := map[int]string{0: renderGraph(t, graph.New("crash"))}
	for _, end := range ends {
		g, err := Replay("crash", bytes.NewReader(data[:end]))
		if err != nil {
			t.Fatal(err)
		}
		refs[end] = renderGraph(t, g)
	}

	for cut := 0; cut <= len(data); cut++ {
		// The expected recovery point: last marker end <= cut.
		want := 0
		for _, end := range ends {
			if end <= cut {
				want = end
			}
		}
		g, info, err := RecoverReplay("crash", bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := renderGraph(t, g); got != refs[want] {
			t.Fatalf("cut %d: recovered graph != committed prefix (want prefix end %d)\n got: %s\nwant: %s",
				cut, want, got, refs[want])
		}
		wantTorn := cut > 0 && data[cut-1] != '\n'
		if info.Torn != wantTorn {
			t.Errorf("cut %d: Torn = %v, want %v", cut, info.Torn, wantTorn)
		}
	}
}

// TestCrashRecoveryTxAllOrNothing runs a multi-statement explicit
// transaction (BEGIN; CREATE; CREATE; SET; COMMIT) through a cypher
// session on a WAL-attached graph, cuts the log at every byte offset, and
// asserts each recovered graph holds either all of the transaction or
// none of it.
func TestCrashRecoveryTxAllOrNothing(t *testing.T) {
	var buf bytes.Buffer
	g := graph.New("tx")
	defer AttachWAL(g, NewWAL(&buf))()
	g.AddNode([]string{"Base"}, nil)

	ctx := context.Background()
	s := cypher.NewExecutor(g).OpenSession()
	defer s.Close()
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE (a:P {k: 1})`,
		`CREATE (b:P {k: 2})`,
		`MATCH (p:P) SET p.done = 1`,
	} {
		c, err := s.Run(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c.Next() {
		}
		if _, err := c.Summary(); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if ends := committedPrefixEnds(t, data); len(ends) != 2 {
		t.Fatalf("log has %d commit markers, want 2 (the base node and the transaction)", len(ends))
	}

	seen := map[string]bool{}
	for cut := 0; cut <= len(data); cut++ {
		rg, _, err := RecoverReplay("tx", bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		done := 0
		for _, id := range rg.NodesWithLabel("P") {
			if rg.Node(id).Prop("done").Int() == 1 {
				done++
			}
		}
		state := fmt.Sprintf("nodes=%d P=%d done=%d", rg.NodeCount(), len(rg.NodesWithLabel("P")), done)
		switch state {
		case "nodes=0 P=0 done=0", "nodes=1 P=0 done=0", "nodes=3 P=2 done=2":
			seen[state] = true
		default:
			t.Fatalf("cut %d: recovered part of the transaction: %s", cut, state)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("recovered states %v, want empty, base only and the whole transaction", seen)
	}
}

// TestRecoverReplayMidFileCorruption flips bytes mid-log: recovery keeps
// the committed prefix before the corrupt line and discards the rest.
func TestRecoverReplayMidFileCorruption(t *testing.T) {
	data := buildEpochLog(t)
	ends := committedPrefixEnds(t, data)
	corruptAt := ends[1] + 3 // inside the record after the 2nd marker
	mut := append([]byte(nil), data...)
	mut[corruptAt] = 0x01

	g, info, err := RecoverReplay("crash", bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Error("corruption not flagged as torn")
	}
	want, err := Replay("crash", bytes.NewReader(data[:ends[1]]))
	if err != nil {
		t.Fatal(err)
	}
	if renderGraph(t, g) != renderGraph(t, want) {
		t.Error("recovery after corruption != committed prefix before it")
	}
}

// TestGroupCommitNeverAcksUnflushedEpoch drives a group WAL over a
// crash-modeling sink with an effectively disabled timer: the ONLY way an
// epoch becomes durable is the Commit barrier. After every acknowledged
// commit, a simulated crash (keeping only synced bytes) must recover that
// epoch.
func TestGroupCommitNeverAcksUnflushedEpoch(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, time.Hour)
	defer wal.Close()
	lg := NewLoggedGraph(graph.New("ack"), wal)

	var ids []graph.ID
	for i := 0; i < 10; i++ {
		lb := lg.NewBatch()
		n := lb.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
		if len(ids) > 0 {
			if _, err := lb.AddEdge(ids[len(ids)-1], n.ID, []string{"R"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		d, err := lb.Commit() // ack: must imply durability
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, n.ID)

		g, info, rerr := RecoverReplay("ack", bytes.NewReader(sink.durableBytes()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if info.Epoch != d.Epoch {
			t.Fatalf("iter %d: acked epoch %d but crash recovers epoch %d", i, d.Epoch, info.Epoch)
		}
		if g.NodeCount() != i+1 {
			t.Fatalf("iter %d: crash recovers %d nodes", i, g.NodeCount())
		}
	}
	if sink.syncs == 0 {
		t.Fatal("no syncs observed")
	}
}

// TestGroupCommitCoalesces shows the point of group commit: many appends
// from concurrent epochs share fsyncs instead of one sync per record.
func TestGroupCommitCoalesces(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, 2*time.Millisecond)
	g := graph.New("coalesce")
	detach := AttachWAL(g, wal)
	defer detach()

	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.AddNode([]string{"N"}, graph.Props{"w": graph.NewInt(int64(w))})
			}
		}(w)
	}
	wg.Wait()
	if err := wal.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	records := writers * per * 2 // one op + one marker per epoch
	if wal.Len() != records {
		t.Fatalf("wal len = %d, want %d", wal.Len(), records)
	}
	if sink.syncs >= records {
		t.Errorf("group commit did not coalesce: %d syncs for %d records", sink.syncs, records)
	}
	got, err := Replay("coalesce", bytes.NewReader(sink.allBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != writers*per {
		t.Fatalf("replayed %d nodes", got.NodeCount())
	}
}

// TestGroupWALCloseAndErrors covers lifecycle edges: append-after-close,
// commit-after-close, double close.
func TestGroupWALCloseAndErrors(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, time.Hour)
	if err := wal.Append(Record{Op: OpCommit, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wal.Durable() != wal.LSN() {
		t.Error("close did not flush")
	}
	if err := wal.Append(Record{Op: OpCommit}); err != ErrWALClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := wal.Commit(); err != nil {
		t.Errorf("commit after close: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestAttachWALMatchesLoggedGraph: the subscriber path and the explicit
// LoggedGraph path produce replay-identical logs for the same mutations.
func TestAttachWALMatchesLoggedGraph(t *testing.T) {
	run := func(mutate func(addNode func(labels []string, props graph.Props) graph.ID)) string {
		var buf bytes.Buffer
		g := graph.New("m")
		detach := AttachWAL(g, NewWAL(&buf))
		defer detach()
		mutate(func(labels []string, props graph.Props) graph.ID {
			return g.AddNode(labels, props).ID
		})
		got, err := Replay("m", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return renderGraph(t, got)
	}
	a := run(func(addNode func([]string, graph.Props) graph.ID) {
		id := addNode([]string{"N"}, fidelityProps())
		_ = id
	})

	var buf bytes.Buffer
	lg := NewLoggedGraph(graph.New("m"), NewWAL(&buf))
	if _, err := lg.AddNode([]string{"N"}, fidelityProps()); err != nil {
		t.Fatal(err)
	}
	got, err := Replay("m", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if renderGraph(t, got) != a {
		t.Error("AttachWAL log diverges from LoggedGraph log")
	}
}

// TestRecordJSONStability pins the wire encoding of the fidelity-critical
// value shapes.
func TestRecordJSONStability(t *testing.T) {
	b, err := json.Marshal(Record{Op: OpSetNodeProp, ID: 3, Key: "x", Value: walValue(graph.NewFloat(1.0))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`{"$f":"1"}`)) {
		t.Errorf("whole float encoding: %s", b)
	}
	b, _ = json.Marshal(Record{Op: OpSetNodeProp, ID: 3, Key: "x", Value: walValue(graph.NewInt(1 << 62))})
	if !bytes.Contains(b, []byte(`4611686018427387904`)) {
		t.Errorf("big int encoding: %s", b)
	}
}
