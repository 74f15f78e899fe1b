package cypher

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

// asExhausted unwraps err to a *ResourceExhaustedError or fails the test.
func asExhausted(t *testing.T, err error) *ResourceExhaustedError {
	t.Helper()
	var re *ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceExhaustedError, got %T: %v", err, err)
	}
	return re
}

func TestMaxRowsKillSerial(t *testing.T) {
	g := chainGraph(200)
	ex := NewExecutor(g, WithMaxRows(10))
	_, err := ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "rows" || re.Limit != 10 {
		t.Fatalf("resource=%q limit=%d, want rows/10", re.Resource, re.Limit)
	}
	if re.Used <= re.Limit {
		t.Fatalf("Used=%d should exceed Limit=%d", re.Used, re.Limit)
	}
	if !re.ResourceExhausted() {
		t.Fatal("ResourceExhausted() must report true")
	}
}

func TestMaxRowsKillShardedWithPartialStats(t *testing.T) {
	g := chainGraph(500)
	ex := NewExecutor(g, WithMaxRows(25), WithShardWorkers(4), WithMorselSize(16))
	_, err := ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "rows" {
		t.Fatalf("resource=%q, want rows", re.Resource)
	}
	// The kill happened inside a morsel worker; the partial ExecStats
	// stamped into the error must still describe the sharded scan.
	if !re.Stats.Sharded || re.Stats.Morsels == 0 {
		t.Fatalf("partial stats missing shard metadata: %+v", re.Stats)
	}
}

func TestMemoryBudgetKill(t *testing.T) {
	g := chainGraph(300)
	ex := NewExecutor(g, WithMemoryBudget(512))
	_, err := ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "memory" || re.Limit != 512 {
		t.Fatalf("resource=%q limit=%d, want memory/512", re.Resource, re.Limit)
	}
}

func TestMemoryBudgetKillCollect(t *testing.T) {
	// The collect() aggregate charges per retained element, so an unbounded
	// collect dies on the memory budget even though it materializes few rows.
	g := chainGraph(300)
	ex := NewExecutor(g, WithMemoryBudget(2048))
	_, err := ex.Run(`MATCH (p:Person) RETURN collect(p.idx) AS xs`, nil)
	re := asExhausted(t, err)
	if re.Resource != "memory" {
		t.Fatalf("resource=%q, want memory", re.Resource)
	}
}

func TestUnwindChargesRowBudget(t *testing.T) {
	g := graph.New("tiny")
	g.AddNode([]string{"Person"}, nil)
	ex := NewExecutor(g, WithMaxRows(50))
	_, err := ex.Run(`UNWIND range(0, 1000) AS x RETURN x`, nil)
	re := asExhausted(t, err)
	if re.Resource != "rows" {
		t.Fatalf("resource=%q, want rows", re.Resource)
	}
}

func TestQueryDeadlineKill(t *testing.T) {
	g := chainGraph(2000)
	ex := NewExecutor(g, WithQueryDeadline(time.Nanosecond))
	_, err := ex.Run(`MATCH (a:Person)-[:NEXT]->(b:Person) RETURN a.idx, b.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "deadline" {
		t.Fatalf("resource=%q, want deadline", re.Resource)
	}
	if re.Used < re.Limit {
		t.Fatalf("Used=%d below Limit=%d", re.Used, re.Limit)
	}
}

// TestUnderBudgetIdentity: generous budgets must never change results —
// governed output is byte-identical to ungoverned, serial and sharded.
func TestUnderBudgetIdentity(t *testing.T) {
	g := chainGraph(200)
	queries := []string{
		`MATCH (p:Person) RETURN p.idx`,
		`MATCH (p:Person) WHERE p.idx > 57 RETURN p.idx`,
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:TAGGED]->(t:Tag) RETURN p.idx, t.decade`,
		`MATCH (p:Person) RETURN collect(p.idx) AS xs`,
		`UNWIND range(0, 20) AS x RETURN x`,
	}
	plain := NewExecutor(g, WithReorder(false))
	for _, workers := range []int{0, 4} {
		governed := NewExecutor(g,
			WithMaxRows(1_000_000),
			WithMemoryBudget(1<<30),
			WithQueryDeadline(time.Hour),
			WithShardWorkers(workers),
			WithReorder(false))
		for _, q := range queries {
			want, wantErr := oracleRun(plain, q)
			got, gotErr := oracleRun(governed, q)
			if wantErr != gotErr {
				t.Fatalf("workers=%d %q: err %q vs %q", workers, q, wantErr, gotErr)
			}
			if !rowsEqual(want, got) {
				t.Errorf("workers=%d %q: governed output diverges\nplain:    %v\ngoverned: %v", workers, q, want, got)
			}
		}
	}
}

// TestPanicRecoveredSerial: an evaluator panic surfaces as a *PanicError
// with the panic value and stack, not a process crash.
func TestPanicRecoveredSerial(t *testing.T) {
	testFuncs = map[string]func(d Datum) (Datum, error){
		"detonate": func(d Datum) (Datum, error) { panic("boom at " + d.Display()) },
	}
	defer func() { testFuncs = nil }()

	g := chainGraph(50)
	ex := NewExecutor(g)
	_, err := ex.Run(`MATCH (p:Person) RETURN detonate(p.idx)`, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Stack == "" {
		t.Fatal("PanicError must carry the stack")
	}
}

// TestPanicRecoveredSharded: a panic inside one morsel worker flows through
// the first-error path — the query fails with a *PanicError, sibling
// workers are cancelled, and the scan's partial stats survive. The executor
// stays usable afterwards.
func TestPanicRecoveredSharded(t *testing.T) {
	testFuncs = map[string]func(d Datum) (Datum, error){
		"fuse": func(d Datum) (Datum, error) {
			if d.Val.Kind() == graph.KindInt && d.Val.Int() == 137 {
				panic("morsel worker detonation")
			}
			return d, nil
		},
	}
	defer func() { testFuncs = nil }()

	g := chainGraph(300)
	ex := NewExecutor(g, WithShardWorkers(4), WithMorselSize(16))
	res, err := ex.Run(`MATCH (p:Person) WHERE fuse(p.idx) >= 0 RETURN p.idx`, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if res == nil || !res.Exec.Sharded {
		t.Fatalf("failed sharded query must still report scan stats, got %+v", res)
	}

	// The recovered executor keeps working.
	res2, err := ex.Run(`MATCH (p:Person) WHERE p.idx < 3 RETURN p.idx`, nil)
	if err != nil || len(res2.Rows) != 3 {
		t.Fatalf("executor unusable after recovered panic: rows=%v err=%v", res2, err)
	}
}

// BenchmarkGovernedMatch measures governor overhead on the hot scan path:
// the same sharded two-hop query ungoverned vs under (never-hit) budgets.
func BenchmarkGovernedMatch(b *testing.B) {
	g := chainGraph(2000)
	q := `MATCH (a:Person)-[:NEXT]->(b:Person) WHERE a.idx >= 0 RETURN a.idx, b.idx`
	run := func(b *testing.B, ex *Executor) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ungoverned", func(b *testing.B) {
		run(b, NewExecutor(g, WithShardWorkers(4)))
	})
	b.Run("governed", func(b *testing.B) {
		run(b, NewExecutor(g, WithShardWorkers(4),
			WithMaxRows(10_000_000), WithMemoryBudget(1<<40), WithQueryDeadline(time.Hour)))
	})
}

// TestBudgetedOracle extends the differential oracle with resource budgets:
// under generous budgets every configuration in a {workers x morsel x
// pushdown} grid must stay byte-identical to the ungoverned serial
// reference, and under starvation budgets every run must either still
// match the reference exactly or die with the typed budget error — a
// budget kill is never allowed to degrade into a silently wrong answer.
func TestBudgetedOracle(t *testing.T) {
	gen, err := datasets.ByName(datasets.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
	sch := newOracleSchema(g)
	rng := rand.New(rand.NewSource(7))
	corpus := sch.fixedCorpus()
	for i := 0; i < 15; i++ {
		corpus = append(corpus, sch.randomQuery(rng))
	}

	// No-reorder grid: row order must be byte-identical to serial, so the
	// budget comparison is exact, not just set-equal.
	var grid []oracleConfig
	for _, shard := range []int{0, 2, 8} {
		for _, morsel := range []int{0, 17} {
			if shard == 0 && morsel != 0 {
				continue
			}
			for _, pushdown := range []bool{true, false} {
				if shard == 0 && pushdown {
					continue // the ungoverned serial reference itself
				}
				grid = append(grid, oracleConfig{
					name:  fmt.Sprintf("shard%d-m%d-push%v", shard, morsel, pushdown),
					shard: shard, pushdown: pushdown, morsel: morsel,
				})
			}
		}
	}

	ref := newOracleExecutor(g, oracleConfig{shard: 0, reorder: false, pushdown: true})
	generous := func(cfg oracleConfig) *Executor {
		return NewExecutor(g,
			WithShardWorkers(cfg.shard), WithRangePushdown(cfg.pushdown), WithMorselSize(cfg.morsel),
			WithMaxRows(1<<20), WithMemoryBudget(1<<30), WithQueryDeadline(time.Minute))
	}
	starved := func(cfg oracleConfig) *Executor {
		return NewExecutor(g,
			WithShardWorkers(cfg.shard), WithRangePushdown(cfg.pushdown), WithMorselSize(cfg.morsel),
			WithMaxRows(2))
	}

	for _, q := range corpus {
		refRows, refErr := oracleRun(ref, q)
		for _, cfg := range grid {
			gotRows, gotErr := oracleRun(generous(cfg), q)
			if refErr != gotErr {
				t.Fatalf("generous %s: error divergence on %q: ref=%q got=%q", cfg.name, q, refErr, gotErr)
			}
			if refErr == "" && !rowsEqual(refRows, gotRows) {
				t.Fatalf("generous %s: rows diverged on %q:\nref %v\ngot %v", cfg.name, q, refRows, gotRows)
			}

			res, err := starved(cfg).Run(q, nil)
			switch {
			case err == nil:
				if refErr != "" {
					t.Fatalf("starved %s: succeeded on %q but reference errored: %q", cfg.name, q, refErr)
				}
				got := renderRows(res)
				if !rowsEqual(refRows, got) {
					t.Fatalf("starved %s: under-budget run diverged on %q:\nref %v\ngot %v", cfg.name, q, refRows, got)
				}
			case refErr != "" && err.Error() == refErr:
				// Same non-budget failure as the reference: acceptable.
			default:
				var re *ResourceExhaustedError
				if !errors.As(err, &re) {
					t.Fatalf("starved %s: non-budget error on %q: %T %v", cfg.name, q, err, err)
				}
			}
		}
	}
}

// renderRows canonicalizes a result like oracleRunSeeks does.
func renderRows(res *Result) []string {
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.Hashable())
		}
		rows = append(rows, b.String())
	}
	return rows
}
