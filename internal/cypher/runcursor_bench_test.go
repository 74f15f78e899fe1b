package cypher

import (
	"context"
	"fmt"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
)

// BenchmarkRunVsCursor compares the two delivery paths of one query on the
// Twitter graph (4000 User nodes): RunCtx, which collects every row into
// Result.Rows, and a session cursor drained row by row. Three shapes cover
// a plain scan, a filtered count and the mined uniqueness rule's grouped
// aggregate, each serial and with two shard workers.
//
//	go test -run xxx -bench BenchmarkRunVsCursor -count 5 ./internal/cypher
func BenchmarkRunVsCursor(b *testing.B) {
	gen, err := datasets.ByName("Twitter")
	if err != nil {
		b.Fatal(err)
	}
	g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
	shapes := []struct{ name, q string }{
		{"scan", `MATCH (u:User) RETURN u.id, u.screen_name`},
		{"count", `MATCH (u:User) WHERE u.screen_name IS NOT NULL RETURN count(*) AS n`},
		{"unique", `MATCH (u:User) WITH u.screen_name AS v, count(*) AS c WHERE c = 1 RETURN count(*) AS n`},
	}
	for _, sh := range shapes {
		for _, workers := range []int{0, 2} {
			ex := NewExecutor(g, WithShardWorkers(workers))
			b.Run(fmt.Sprintf("%s/workers=%d/run", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ex.RunCtx(context.Background(), sh.q, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/workers=%d/cursor", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				s := ex.OpenSession()
				defer s.Close()
				for i := 0; i < b.N; i++ {
					c, err := s.Run(context.Background(), sh.q, nil)
					if err != nil {
						b.Fatal(err)
					}
					for c.Next() {
					}
					if err := c.Err(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
