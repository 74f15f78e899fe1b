package cypher

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// TestPlanCacheLRUEviction pins the eviction policy: with the cap at 2,
// touching an entry protects it and the least-recently-used entry is the
// one evicted.
func TestPlanCacheLRUEviction(t *testing.T) {
	ex := NewExecutor(socialGraph(), WithPlanCacheCap(2))

	q1 := `MATCH (u:User) RETURN count(*) AS n`
	q2 := `MATCH (t:Tweet) RETURN count(*) AS n`
	q3 := `MATCH (u:User {verified: true}) RETURN count(*) AS n`

	mustRun := func(q string) *Result {
		t.Helper()
		res, err := ex.Run(q, nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res
	}

	mustRun(q1) // miss; cache [q1]
	mustRun(q2) // miss; cache [q2 q1]
	if res := mustRun(q1); !res.Exec.PlanCacheHit {
		t.Fatal("q1 should still be cached") // promotes q1; cache [q1 q2]
	}
	mustRun(q3) // miss; evicts q2 (LRU); cache [q3 q1]

	st := ex.PlanCacheStats()
	if st.Evictions != 1 || st.Entries != 2 || st.Cap != 2 {
		t.Fatalf("after first eviction: %+v, want evictions=1 entries=2 cap=2", st)
	}

	// q1 was promoted by its hit, so it must have survived the eviction...
	if res := mustRun(q1); !res.Exec.PlanCacheHit {
		t.Error("q1 was promoted and should not have been evicted")
	}
	// ...and q2, the least recently used, must be gone.
	if res := mustRun(q2); res.Exec.PlanCacheHit {
		t.Error("q2 should have been evicted")
	}

	st = ex.PlanCacheStats()
	if st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("after q2 re-insert: %+v, want evictions=2 entries=2", st)
	}
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("counters: %+v, want hits=2 misses=4", st)
	}
}

// TestPlanCacheCapShrink lowers the cap below the live entry count and
// checks the cache immediately evicts down to it, keeping the most
// recently used entries.
func TestPlanCacheCapShrink(t *testing.T) {
	ex := NewExecutor(socialGraph())
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = fmt.Sprintf(`MATCH (u:User) RETURN count(*) + %d AS n`, i)
		if _, err := ex.Run(queries[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	WithPlanCacheCap(1)(ex)
	st := ex.PlanCacheStats()
	if st.Entries != 1 || st.Cap != 1 || st.Evictions != 3 {
		t.Fatalf("after shrink: %+v, want entries=1 cap=1 evictions=3", st)
	}
	// The survivor is the most recently used query.
	res, err := ex.Run(queries[len(queries)-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exec.PlanCacheHit {
		t.Error("most recently used entry should survive the shrink")
	}

	// Restoring the default cap re-enables growth.
	WithPlanCacheCap(0)(ex)
	if st := ex.PlanCacheStats(); st.Cap != planCacheLimit {
		t.Errorf("cap = %d, want default %d", st.Cap, planCacheLimit)
	}
}

// denseGraph returns a label-homogeneous graph sized so a triple
// cartesian MATCH takes far longer than the cancellation delay below.
func denseGraph(n int) *graph.Graph {
	g := graph.New("dense")
	for i := 0; i < n; i++ {
		g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
	}
	return g
}

// TestRunCtxCancellation cancels a long cartesian scan shortly after it
// starts and expects a prompt ctx error; if cancellation were ignored the
// query would run to completion and return nil.
func TestRunCtxCancellation(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ex := NewExecutor(denseGraph(400), WithShardWorkers(shards))
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			_, err := ex.RunCtx(ctx, `MATCH (a:N), (b:N), (c:N) RETURN count(*) AS n`, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestRunCtxPreCancelled verifies an already-expired context never starts
// clause execution.
func TestRunCtxPreCancelled(t *testing.T) {
	ex := NewExecutor(socialGraph())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ex.RunCtx(ctx, `MATCH (u:User) WHERE u.verified RETURN u.name AS name`, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxBackground confirms the context plumbing is invisible to
// plain Run callers.
func TestRunCtxBackground(t *testing.T) {
	ex := NewExecutor(denseGraph(10))
	res, err := ex.RunCtx(context.Background(), `MATCH (a:N) RETURN count(*) AS n`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][res.Column("n")]; n.Val.Int() != 10 {
		t.Fatalf("count = %v, want 10", n)
	}
}
