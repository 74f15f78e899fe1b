package cypher

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// txGraph is the isolation suite's base graph: N nodes 0..3 and one R
// edge 1->2, which the DETACH DELETE in txStatements cascades over.
func txGraph() *graph.Graph {
	g := sessionGraph(4)
	g.MustAddEdge(1, 2, []string{"R"}, nil)
	return g
}

// txStatements is one multi-statement transaction: a CREATE, a SET and
// a DETACH DELETE, each visible in txView.
var txStatements = []string{
	`CREATE (p:P {k: 1})-[:R]->(q:P {k: 2})`,
	`MATCH (n:N) WHERE n.i = 0 SET n.v = 100`,
	`MATCH (n:N) WHERE n.i = 1 DETACH DELETE n`,
}

// txView renderings before and after the transaction, and the op list
// its commit publishes.
const (
	txBefore  = "p=0 v=0 n=4 r=1"
	txAfter   = "p=2 v=1 n=3 r=1"
	txOpKinds = "[add-node add-node add-edge set-node-prop remove-edge remove-node]"
)

// txView renders what a session reads of the state txStatements change.
func txView(s *Session) (string, error) {
	var out []any
	for _, q := range []string{
		`MATCH (n) RETURN count(n.k) AS p, count(n.v) AS v, count(n.i) AS n`,
		`MATCH ()-[r:R]->() RETURN count(*) AS r`,
	} {
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			return "", err
		}
		rows, err := drain(c)
		if err != nil {
			return "", err
		}
		for _, d := range rows[0] {
			out = append(out, d.Val.Int())
		}
	}
	return fmt.Sprintf("p=%d v=%d n=%d r=%d", out...), nil
}

func mustView(t *testing.T, s *Session) string {
	t.Helper()
	v, err := txView(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// countRows runs q on s and returns the number of rows it produced.
func countRows(t *testing.T, s *Session, q string) int {
	t.Helper()
	c, err := s.Run(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(c)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// runTxStatements begins a transaction on s and runs txStatements in it.
func runTxStatements(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, q := range txStatements {
		countRows(t, s, q)
	}
}

// recordDeltas subscribes to g's commits and returns a function that
// reports the deltas delivered so far.
func recordDeltas(g *graph.Graph) func() []*graph.Delta {
	var mu sync.Mutex
	var ds []*graph.Delta
	g.OnCommit(func(d *graph.Delta) {
		mu.Lock()
		ds = append(ds, d)
		mu.Unlock()
	})
	return func() []*graph.Delta {
		mu.Lock()
		defer mu.Unlock()
		return append([]*graph.Delta(nil), ds...)
	}
}

func opKinds(d *graph.Delta) string {
	kinds := make([]string, len(d.Ops))
	for i, op := range d.Ops {
		kinds[i] = op.Kind.String()
	}
	return fmt.Sprint(kinds)
}

// TestSessionTxIsolation: while a transaction is open, reader sessions
// running concurrently with its statements see none of its writes, and an
// OnCommit subscriber sees nothing; COMMIT publishes every op as one
// epoch in one Delta.
func TestSessionTxIsolation(t *testing.T) {
	for _, pin := range []bool{false, true} {
		t.Run(fmt.Sprintf("pin=%v", pin), func(t *testing.T) {
			g := txGraph()
			deltas := recordDeltas(g)
			ex := NewExecutor(g, WithSnapshotPin(pin))
			s := ex.OpenSession()
			defer s.Close()
			if v := mustView(t, s); v != txBefore {
				t.Fatalf("base view = %s, want %s", v, txBefore)
			}
			epoch := g.Epoch()

			// Two readers loop until stop; each reports on seen once it
			// has finished a read that began after every statement ran
			// (or when it gives up on an error).
			written, stop := make(chan struct{}), make(chan struct{})
			seen := make(chan struct{}, 2)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reported := false
					defer func() {
						if !reported {
							seen <- struct{}{}
						}
					}()
					rs := ex.OpenSession()
					defer rs.Close()
					for {
						select {
						case <-stop:
							return
						default:
						}
						after := false
						select {
						case <-written:
							after = true
						default:
						}
						v, err := txView(rs)
						if err != nil {
							t.Error(err)
							return
						}
						if v != txBefore {
							t.Errorf("concurrent reader saw %s during the open transaction, want %s", v, txBefore)
							return
						}
						if after && !reported {
							reported = true
							seen <- struct{}{}
						}
					}
				}()
			}

			runTxStatements(t, s)
			close(written)
			<-seen
			<-seen
			close(stop)
			wg.Wait()
			if v := mustView(t, s); v != txAfter {
				t.Fatalf("in-tx view = %s, want %s", v, txAfter)
			}
			if ds := deltas(); len(ds) != 0 || g.Epoch() != epoch {
				t.Fatalf("before COMMIT: %d deltas delivered, epoch %d -> %d", len(ds), epoch, g.Epoch())
			}

			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			ds := deltas()
			if len(ds) != 1 || g.Epoch() != epoch+1 {
				t.Fatalf("after COMMIT: %d deltas, epoch %d -> %d; want 1 delta, 1 epoch", len(ds), epoch, g.Epoch())
			}
			if got := opKinds(ds[0]); got != txOpKinds {
				t.Fatalf("committed ops = %s, want %s", got, txOpKinds)
			}
			rs := ex.OpenSession()
			defer rs.Close()
			if v := mustView(t, rs); v != txAfter {
				t.Fatalf("post-commit view = %s, want %s", v, txAfter)
			}
		})
	}
}

// TestSessionTxRollbackPublishesNothing: ROLLBACK leaves the epoch where
// it was and delivers nothing to subscribers.
func TestSessionTxRollbackPublishesNothing(t *testing.T) {
	g := txGraph()
	deltas := recordDeltas(g)
	ex := NewExecutor(g)
	s := ex.OpenSession()
	defer s.Close()
	epoch := g.Epoch()

	runTxStatements(t, s)
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ds := deltas(); len(ds) != 0 || g.Epoch() != epoch {
		t.Fatalf("after ROLLBACK: %d deltas delivered, epoch %d -> %d", len(ds), epoch, g.Epoch())
	}
	if v := mustView(t, s); v != txBefore {
		t.Fatalf("post-rollback view = %s, want %s", v, txBefore)
	}
}

// TestSessionTxCommitConflict: a direct graph mutation (which bypasses
// the transaction lock) removes a node the transaction wrote; COMMIT
// fails validation and leaves the live graph untouched.
func TestSessionTxCommitConflict(t *testing.T) {
	g := txGraph()
	ex := NewExecutor(g)
	s := ex.OpenSession()
	defer s.Close()

	runTxStatements(t, s)
	g.RemoveNode(0)
	deltas := recordDeltas(g)
	epoch := g.Epoch()
	if err := s.Commit(); err == nil {
		t.Fatal("commit over a removed node succeeded")
	}
	if ds := deltas(); len(ds) != 0 || g.Epoch() != epoch {
		t.Fatalf("failed COMMIT: %d deltas delivered, epoch %d -> %d", len(ds), epoch, g.Epoch())
	}
	if s.InTx() {
		t.Fatal("transaction still open after a failed COMMIT")
	}
	if v := mustView(t, s); v != "p=0 v=0 n=3 r=1" {
		t.Fatalf("view after failed COMMIT = %s", v)
	}
}
