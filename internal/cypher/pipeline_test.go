package cypher

import (
	"context"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// scannedBoth runs q through RunCtx and through a session cursor and
// returns each path's row count and RowsScanned.
func scannedBoth(t *testing.T, ex *Executor, q string) (runRows, runScanned, curRows, curScanned int) {
	t.Helper()
	res, err := ex.RunCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("RunCtx %q: %v", q, err)
	}
	s := ex.OpenSession()
	defer s.Close()
	c, err := s.Run(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("Session.Run %q: %v", q, err)
	}
	rows, err := drain(c)
	if err != nil {
		t.Fatalf("cursor %q: %v", q, err)
	}
	sum, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows), res.Exec.RowsScanned, len(rows), sum.Exec.RowsScanned
}

// TestSessionStreamLimitStopsScan: a satisfied LIMIT stops the anchor scan
// on both delivery paths, so the scan touches fewer than all 5000 nodes.
func TestSessionStreamLimitStopsScan(t *testing.T) {
	ex := NewExecutor(sessionGraph(5000))
	rr, rs, cr, cs := scannedBoth(t, ex, `MATCH (n:N) RETURN n.i LIMIT 10`)
	if rr != 10 || cr != 10 {
		t.Fatalf("rows: RunCtx %d, cursor %d; want 10", rr, cr)
	}
	if rs >= 5000 || cs >= 5000 {
		t.Fatalf("RowsScanned: RunCtx %d, cursor %d; want < 5000", rs, cs)
	}
}

// TestSessionStreamWithLimitStopsScan: a WITH between MATCH and RETURN
// streams too; LIMIT downstream of it still stops the scan.
func TestSessionStreamWithLimitStopsScan(t *testing.T) {
	ex := NewExecutor(sessionGraph(5000))
	rr, rs, cr, cs := scannedBoth(t, ex, `MATCH (n:N) WITH n.i AS i RETURN i LIMIT 5`)
	if rr != 5 || cr != 5 {
		t.Fatalf("rows: RunCtx %d, cursor %d; want 5", rr, cr)
	}
	if rs >= 5000 || cs >= 5000 {
		t.Fatalf("RowsScanned: RunCtx %d, cursor %d; want < 5000", rs, cs)
	}
}

// TestEagerMutations: a mutating clause sees the whole input of the
// clauses before it, never its own writes, auto-commit and inside a
// transaction alike.
func TestEagerMutations(t *testing.T) {
	const k = 6
	cases := []struct {
		name, query string
		check       func(t *testing.T, g *graph.Graph, st Stats)
	}{
		{"create", `MATCH (n:N) CREATE (:N)`, func(t *testing.T, g *graph.Graph, st Stats) {
			if n := len(g.NodesWithLabel("N")); n != 2*k || st.NodesCreated != k {
				t.Fatalf("N nodes = %d (created %d), want %d (created %d)", n, st.NodesCreated, 2*k, k)
			}
		}},
		{"set", `MATCH (n:N) SET n.i = n.i + 1`, func(t *testing.T, g *graph.Graph, st Stats) {
			for i, n := range g.LabelNodes("N") {
				if got := n.Prop("i").Int(); got != int64(i)+1 {
					t.Fatalf("node %d: i = %d, want %d", i, got, i+1)
				}
			}
			if st.PropertiesSet != k {
				t.Fatalf("PropertiesSet = %d, want %d", st.PropertiesSet, k)
			}
		}},
		{"delete", `MATCH (a:N), (b:N) DETACH DELETE a`, func(t *testing.T, g *graph.Graph, st Stats) {
			if n := len(g.NodesWithLabel("N")); n != 0 || st.NodesDeleted != k {
				t.Fatalf("N nodes left = %d (deleted %d), want 0 (deleted %d)", n, st.NodesDeleted, k)
			}
		}},
	}
	for _, tc := range cases {
		for _, inTx := range []bool{false, true} {
			name := tc.name + "/autocommit"
			if inTx {
				name = tc.name + "/tx"
			}
			t.Run(name, func(t *testing.T) {
				g := sessionGraph(k)
				s := NewExecutor(g).OpenSession()
				defer s.Close()
				if inTx {
					if err := s.Begin(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				c, err := s.Run(context.Background(), tc.query, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := drain(c); err != nil {
					t.Fatal(err)
				}
				res, err := c.Summary()
				if err != nil {
					t.Fatal(err)
				}
				if inTx {
					if err := s.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				tc.check(t, g, res.Stats)
			})
		}
	}
}
