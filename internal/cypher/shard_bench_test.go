package cypher

import (
	"fmt"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
)

// Benchmarks comparing serial execution to sharded execution on the
// WWC2019 dataset (the paper's largest hand-modelled graph). Worker count 0
// is the serial baseline. Note that on a single-CPU machine sharding is pure
// overhead; the speedup only materialises with real parallel hardware.

func benchGraph(b *testing.B) *Executor {
	b.Helper()
	gen, err := datasets.ByName("WWC2019")
	if err != nil {
		b.Fatal(err)
	}
	g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
	return NewExecutor(g)
}

func benchQuery(b *testing.B, query string, workers int) {
	b.Helper()
	ex := benchGraph(b)
	WithShardWorkers(workers)(ex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(query, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedCount exercises the count-aggregate fast path: anchor
// scan + relationship expansion folded into per-shard aggregate states.
func BenchmarkShardedCount(b *testing.B) {
	const q = `MATCH (p:Person)-[:IN_SQUAD]->(s:Squad) RETURN count(*) AS n`
	for _, workers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchQuery(b, q, workers)
		})
	}
}

// BenchmarkShardedMatch exercises the general row-producing path with a
// WHERE re-filter and row merge in shard order.
func BenchmarkShardedMatch(b *testing.B) {
	const q = `MATCH (p:Person)-[:IN_SQUAD]->(s:Squad) WHERE p.id >= 10250 RETURN p.name, s.id`
	for _, workers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchQuery(b, q, workers)
		})
	}
}
