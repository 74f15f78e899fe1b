package cypher

import (
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// chainGraph builds n Person nodes {idx: 0..n-1} linked by NEXT edges in
// index order, with a Tag node every tenth person. Insertion order is the
// serial scan order, so row-order regressions are easy to spot.
func chainGraph(n int) *graph.Graph {
	g := graph.New("chain")
	var prev *graph.Node
	for i := 0; i < n; i++ {
		p := g.AddNode([]string{"Person"}, graph.Props{"idx": graph.NewInt(int64(i))})
		if prev != nil {
			g.MustAddEdge(prev.ID, p.ID, []string{"NEXT"}, nil)
		}
		if i%10 == 0 {
			tag := g.AddNode([]string{"Tag"}, graph.Props{"decade": graph.NewInt(int64(i / 10))})
			g.MustAddEdge(p.ID, tag.ID, []string{"TAGGED"}, nil)
		}
		prev = p
	}
	return g
}

func TestMorselCut(t *testing.T) {
	nodes := make([]*graph.Node, 0, 10)
	for i := 0; i < 10; i++ {
		nodes = append(nodes, &graph.Node{ID: graph.ID(i)})
	}
	cases := []struct {
		size int
		want []int // morsel lengths
	}{
		{10, []int{10}},
		{5, []int{5, 5}},
		{4, []int{4, 4, 2}},
		{3, []int{3, 3, 3, 1}},
		{1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{25, []int{10}}, // morsel size > candidate count: one short morsel
		{0, []int{10}},  // <= 0 falls back to the default (256 > 10)
	}
	for _, tc := range cases {
		morsels := morselCut(nodes, tc.size)
		if len(morsels) != len(tc.want) {
			t.Errorf("size=%d: %d morsels, want %d", tc.size, len(morsels), len(tc.want))
			continue
		}
		// Concatenating morsels must reproduce the input exactly: the
		// tag-order merge relies on contiguity to preserve serial row order.
		i := 0
		for mi, morsel := range morsels {
			if len(morsel) != tc.want[mi] {
				t.Errorf("size=%d morsel %d: len %d, want %d", tc.size, mi, len(morsel), tc.want[mi])
			}
			for _, n := range morsel {
				if n != nodes[i] {
					t.Errorf("size=%d: morsel order diverges from input at %d", tc.size, i)
				}
				i++
			}
		}
		if i != len(nodes) {
			t.Errorf("size=%d: morsels cover %d of %d candidates", tc.size, i, len(nodes))
		}
	}
	if got := morselCut(nil, 4); len(got) != 0 {
		t.Errorf("morselCut(nil) = %d morsels, want 0", len(got))
	}
}

// TestShardedRowOrderMatchesSerial is the regression test for deterministic
// result ordering: with reordering off, a sharded non-aggregate query must
// return rows byte-identical to — and in the same order as — the serial
// executor, at every worker count.
func TestShardedRowOrderMatchesSerial(t *testing.T) {
	g := chainGraph(200)
	queries := []string{
		`MATCH (p:Person) RETURN p.idx`,
		`MATCH (p:Person) WHERE p.idx > 57 RETURN p.idx`,
		`MATCH (a:Person)-[:NEXT]->(b:Person) RETURN a.idx, b.idx`,
		`MATCH (p:Person)-[:TAGGED]->(t:Tag) RETURN p.idx, t.decade`,
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:TAGGED]->(t:Tag) RETURN p.idx, t.decade`,
		`MATCH (a:Person)-[:NEXT]->(b)-[:NEXT]->(c) RETURN a.idx, c.idx`,
	}
	serial := NewExecutor(g, WithReorder(false))
	for _, workers := range []int{1, 2, 3, 8, 64} {
		ex := NewExecutor(g, WithShardWorkers(workers), WithReorder(false))
		for _, q := range queries {
			want, wantErr := oracleRun(serial, q)
			got, gotErr := oracleRun(ex, q)
			if wantErr != "" || gotErr != "" {
				t.Fatalf("workers=%d %q: serial err=%q sharded err=%q", workers, q, wantErr, gotErr)
			}
			if !rowsEqual(want, got) {
				t.Errorf("workers=%d %q: row order diverges\nserial:  %v\nsharded: %v", workers, q, want, got)
			}
		}
	}
}

// Sharded collect() must concatenate per-shard accumulations in shard order,
// reproducing the serial accumulation order exactly.
func TestShardedCollectOrderDeterministic(t *testing.T) {
	g := chainGraph(100)
	queries := []string{
		`MATCH (p:Person) RETURN collect(p.idx) AS xs`,
		`MATCH (a:Person)-[:NEXT]->(b:Person) RETURN count(*) AS n, collect(b.idx) AS xs`,
	}
	serial := NewExecutor(g, WithReorder(false))
	for _, workers := range []int{1, 2, 8} {
		ex := NewExecutor(g, WithShardWorkers(workers), WithReorder(false))
		for _, q := range queries {
			want, _ := oracleRun(serial, q)
			got, _ := oracleRun(ex, q)
			if !rowsEqual(want, got) {
				t.Errorf("workers=%d %q:\nserial:  %v\nsharded: %v", workers, q, want, got)
			}
		}
	}
}

// ExecStats must expose how the query was sharded: worker count, morsel
// cut, per-morsel row counts summing to the total, and the cost-based part
// order.
func TestShardedExecStats(t *testing.T) {
	g := chainGraph(100)
	ex := NewExecutor(g, WithShardWorkers(4), WithMorselSize(25))
	res, err := ex.Run(`MATCH (p:Person) WHERE p.idx >= 0 RETURN p.idx`, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Exec
	if !st.Sharded || st.ShardWorkers != 4 {
		t.Fatalf("Sharded=%v ShardWorkers=%d, want true/4", st.Sharded, st.ShardWorkers)
	}
	if st.Morsels != 4 || st.MorselSize != 25 {
		t.Fatalf("Morsels=%d MorselSize=%d, want 4/25", st.Morsels, st.MorselSize)
	}
	if len(st.ShardRows) != 4 {
		t.Fatalf("ShardRows = %v, want 4 entries", st.ShardRows)
	}
	total := 0
	for _, n := range st.ShardRows {
		total += n
	}
	if total != len(res.Rows) {
		t.Errorf("sum(ShardRows) = %d, want %d", total, len(res.Rows))
	}
	out := st.String()
	if want := "shards: 4 worker(s)"; !strings.Contains(out, want) {
		t.Errorf("ExecStats.String() missing %q:\n%s", want, out)
	}

	// The aggregate fast path reports shard stats too.
	res, err = ex.Run(`MATCH (p:Person) RETURN count(*) AS n`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exec.Sharded || res.Exec.ShardWorkers != 4 {
		t.Errorf("aggregate: Sharded=%v ShardWorkers=%d, want true/4", res.Exec.Sharded, res.Exec.ShardWorkers)
	}
	if res.FirstInt("n") != 100 {
		t.Errorf("sharded count = %d, want 100", res.FirstInt("n"))
	}
}

// A sharded query against a mutated graph must see the post-mutation state
// (executors hold no candidate caches across runs).
func TestShardedSeesMutations(t *testing.T) {
	g := chainGraph(50)
	ex := NewExecutor(g, WithShardWorkers(4))
	count := func() int64 {
		res, err := ex.Run(`MATCH (p:Person) RETURN count(*) AS n`, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstInt("n")
	}
	if got := count(); got != 50 {
		t.Fatalf("initial count = %d", got)
	}
	g.AddNode([]string{"Person"}, graph.Props{"idx": graph.NewInt(999)})
	if got := count(); got != 51 {
		t.Errorf("count after AddNode = %d, want 51", got)
	}
}
