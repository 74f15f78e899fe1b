package cypher

// Differential oracle for the sharded, cost-reordered executor: every query
// in a corpus (a fixed schema-derived set plus seeded randomized queries)
// runs under the serial no-reorder reference configuration and under the
// full {workers 0,1,2,8} x {reorder on/off} x {range pushdown on/off} x
// {morsel size default/17} grid, and the results must agree. No-reorder
// configurations must reproduce the serial row order exactly (tag-ordered
// morsel merge preserves it, and range seeks return candidates in
// scan-equivalent order); reorder-on configurations are compared as
// canonically sorted row multisets, since part reordering is allowed to
// permute unordered results. Sharded configurations must additionally
// report ExecStats.Seeks identical to the serial run with the same
// reorder/pushdown flags: the morsel merge dedups worker seek records by
// the same identity recordSeek uses, so entries, order, Est and Rows all
// survive parallel execution unchanged.
//
// Environment knobs (all optional):
//
//	GRAPHRULES_ORACLE_SEED      generator seed (default 1)
//	GRAPHRULES_ORACLE_RANDOM    randomized queries per dataset (default 60;
//	                            CI's oracle job runs the full 200)
//	GRAPHRULES_ORACLE_ARTIFACT  file to append failing query reproductions to

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

type oracleConfig struct {
	name     string
	shard    int
	reorder  bool
	pushdown bool // range/edge pushdown (reference runs with it ON)
	morsel   int  // morsel size for sharded configs (0 = default 256)
}

// oracleGrid is every configuration compared against the serial reference:
// the full cross product of shard workers, reorder, range pushdown and
// morsel size, minus the reference configuration itself (shard 0, no
// reorder, pushdown). Morsel size only exists for sharded configurations;
// 17 is small and odd, so every dataset's anchor scans cut into many
// ragged morsels and the work-stealing reassembly is exercised hard.
var oracleGrid = buildOracleGrid()

func buildOracleGrid() []oracleConfig {
	var grid []oracleConfig
	for _, shard := range []int{0, 1, 2, 8} {
		for _, morsel := range []int{0, 17} {
			if shard == 0 && morsel != 0 {
				continue // morsel size is meaningless without workers
			}
			for _, reorder := range []bool{false, true} {
				for _, pushdown := range []bool{true, false} {
					if shard == 0 && !reorder && pushdown {
						continue // the serial reference itself
					}
					name := fmt.Sprintf("shard%d", shard)
					if reorder {
						name += "-reorder"
					} else {
						name += "-noreorder"
					}
					if !pushdown {
						name += "-nopush"
					}
					if morsel != 0 {
						name += fmt.Sprintf("-m%d", morsel)
					}
					grid = append(grid, oracleConfig{
						name: name, shard: shard, reorder: reorder, pushdown: pushdown, morsel: morsel,
					})
				}
			}
		}
	}
	return grid
}

func newOracleExecutor(g *graph.Graph, cfg oracleConfig) *Executor {
	return NewExecutor(g,
		WithShardWorkers(cfg.shard),
		WithReorder(cfg.reorder),
		WithRangePushdown(cfg.pushdown),
		WithMorselSize(cfg.morsel),
	)
}

// oracleRun executes one query and renders every result row to a canonical
// string (column order is part of the rendering, row order is preserved).
func oracleRun(ex *Executor, src string) (rows []string, errStr string) {
	rows, _, errStr = oracleRunSeeks(ex, src)
	return rows, errStr
}

// oracleRunSeeks is oracleRun plus the run's recorded index-seek stats, for
// the serial-vs-sharded seek parity comparison.
func oracleRunSeeks(ex *Executor, src string) (rows []string, seeks []SeekInfo, errStr string) {
	res, err := ex.Run(src, nil)
	if err != nil {
		return nil, nil, err.Error()
	}
	rows = make([]string, 0, len(res.Rows))
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
	return rows, res.Exec.Seeks, ""
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeOracleArtifact appends a failing-query reproduction to the artifact
// file named by GRAPHRULES_ORACLE_ARTIFACT, for CI upload.
func writeOracleArtifact(dataset string, seed int64, cfg, query, detail string) {
	path := os.Getenv("GRAPHRULES_ORACLE_ARTIFACT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "dataset=%s seed=%d config=%s\nquery: %s\n%s\n\n", dataset, seed, cfg, query, detail)
}

func envInt64(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

func TestDifferentialOracle(t *testing.T) {
	seed := envInt64("GRAPHRULES_ORACLE_SEED", 1)
	nRandom := int(envInt64("GRAPHRULES_ORACLE_RANDOM", 60))
	if testing.Short() && os.Getenv("GRAPHRULES_ORACLE_RANDOM") == "" {
		nRandom = 15
	}
	for _, name := range datasets.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
			sch := newOracleSchema(g)
			rng := rand.New(rand.NewSource(seed))
			corpus := sch.fixedCorpus()
			for i := 0; i < nRandom; i++ {
				corpus = append(corpus, sch.randomQuery(rng))
			}

			ref := newOracleExecutor(g, oracleConfig{shard: 0, reorder: false, pushdown: true})
			grid := make([]*Executor, len(oracleGrid))
			for i, cfg := range oracleGrid {
				grid[i] = newOracleExecutor(g, cfg)
			}

			// Queries are independent and every executor is safe for
			// concurrent use, so comparisons run on a worker pool; failures
			// are reported with the reproducing seed.
			var (
				wg   sync.WaitGroup
				next atomic.Int64
				mu   sync.Mutex
			)
			checkQuery := func(q string) {
				refRows, refSeeks, refErr := oracleRunSeeks(ref, q)
				refSorted := sortedCopy(refRows)
				// Serial Seeks per (reorder, pushdown) flag pair: sharded
				// configurations must reproduce the same-flags serial list
				// exactly. The grid iterates shard 0 first, so every pair is
				// recorded before a sharded configuration reads it.
				comboSeeks := map[[2]bool][]SeekInfo{{false, true}: refSeeks}
				for i, cfg := range oracleGrid {
					gotRows, gotSeeks, gotErr := oracleRunSeeks(grid[i], q)
					fail := func(kind, detail string) {
						mu.Lock()
						defer mu.Unlock()
						writeOracleArtifact(name, seed, cfg.name, q, detail)
						t.Errorf("%s under %s (reproduce with GRAPHRULES_ORACLE_SEED=%d):\nquery: %s\n%s",
							kind, cfg.name, seed, q, detail)
					}
					if (refErr != "") != (gotErr != "") {
						fail("error divergence", fmt.Sprintf("reference err=%q, %s err=%q", refErr, cfg.name, gotErr))
						return
					}
					if refErr != "" {
						continue // both failed; nothing further to compare
					}
					if !cfg.reorder {
						// Same written part order and tag-ordered morsel merge:
						// row order must be byte-identical to serial.
						if !rowsEqual(refRows, gotRows) {
							fail("row-order divergence", fmt.Sprintf("serial order %v\n%s order %v", refRows, cfg.name, gotRows))
							return
						}
					} else if !rowsEqual(refSorted, sortedCopy(gotRows)) {
						fail("result-set divergence", fmt.Sprintf("serial sorted %v\n%s sorted %v", refSorted, cfg.name, sortedCopy(gotRows)))
						return
					}
					key := [2]bool{cfg.reorder, cfg.pushdown}
					if cfg.shard == 0 {
						comboSeeks[key] = gotSeeks
					} else if serialSeeks, ok := comboSeeks[key]; ok && !reflect.DeepEqual(serialSeeks, gotSeeks) {
						fail("seek-stats divergence", fmt.Sprintf("serial seeks %v\n%s seeks %v", serialSeeks, cfg.name, gotSeeks))
						return
					}
				}
			}
			workers := runtime.GOMAXPROCS(0)
			if workers > len(corpus) {
				workers = len(corpus)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(corpus) || t.Failed() {
							return
						}
						checkQuery(corpus[i])
					}
				}()
			}
			wg.Wait()
		})
	}
}

// ---------- schema-driven query generation ----------

type propSample struct {
	key string
	val graph.Value
}

type relSample struct {
	typ      string
	from, to string // primary endpoint labels of a sample edge
	count    int
	// props: deterministic edge-property samples (int/string valued only),
	// drawn from the first edges of the type — fuel for edge-index seeks.
	props []propSample
}

type oracleSchema struct {
	g      *graph.Graph
	labels []string
	count  map[string]int
	rels   []relSample
	// props: label -> deterministic samples (int/string valued only)
	props map[string][]propSample
	// intProps: label -> samples whose value is an integer
	intProps map[string][]propSample
	// strProps: label -> samples whose value is a plain string (fuel for
	// STARTS WITH prefix seeks)
	strProps map[string][]propSample
}

func newOracleSchema(g *graph.Graph) *oracleSchema {
	sch := &oracleSchema{
		g:        g,
		count:    map[string]int{},
		props:    map[string][]propSample{},
		intProps: map[string][]propSample{},
		strProps: map[string][]propSample{},
	}
	for _, l := range g.NodeLabels() {
		n := len(g.NodesWithLabel(l))
		if n == 0 {
			continue
		}
		sch.labels = append(sch.labels, l)
		sch.count[l] = n
		seen := map[string]bool{}
		nodes := g.LabelNodes(l)
		if len(nodes) > 50 {
			nodes = nodes[:50]
		}
		for _, node := range nodes {
			keys := make([]string, 0, len(node.Props))
			for k := range node.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if seen[k] {
					continue
				}
				v := node.Props[k]
				if _, ok := cypherLit(v); !ok {
					continue
				}
				seen[k] = true
				ps := propSample{key: k, val: v}
				sch.props[l] = append(sch.props[l], ps)
				if v.Kind() == graph.KindInt {
					sch.intProps[l] = append(sch.intProps[l], ps)
				}
				if v.Kind() == graph.KindString {
					sch.strProps[l] = append(sch.strProps[l], ps)
				}
			}
		}
	}
	for _, typ := range g.EdgeTypes() {
		ids := g.EdgesWithType(typ)
		if len(ids) == 0 {
			continue
		}
		e := g.Edge(ids[0])
		from, to := g.Node(e.From), g.Node(e.To)
		if from == nil || to == nil || len(from.Labels) == 0 || len(to.Labels) == 0 {
			continue
		}
		rs := relSample{typ: typ, from: from.Labels[0], to: to.Labels[0], count: len(ids)}
		sample := ids
		if len(sample) > 50 {
			sample = sample[:50]
		}
		eseen := map[string]bool{}
		for _, id := range sample {
			ed := g.Edge(id)
			if ed == nil {
				continue
			}
			keys := make([]string, 0, len(ed.Props))
			for k := range ed.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if eseen[k] {
					continue
				}
				v := ed.Props[k]
				if _, ok := cypherLit(v); !ok {
					continue
				}
				eseen[k] = true
				rs.props = append(rs.props, propSample{key: k, val: v})
			}
		}
		sch.rels = append(sch.rels, rs)
	}
	return sch
}

// cypherLit renders a stored value as a Cypher literal; only int and
// "plain" string values are representable (no quoting edge cases).
func cypherLit(v graph.Value) (string, bool) {
	switch v.Kind() {
	case graph.KindInt:
		return strconv.FormatInt(v.Int(), 10), true
	case graph.KindString:
		s := v.Str()
		if strings.ContainsAny(s, `'\`) {
			return "", false
		}
		return "'" + s + "'", true
	}
	return "", false
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// fixedCorpus is the deterministic, schema-derived part of the corpus: one
// instance of every tricky shape per applicable label/relationship.
func (sch *oracleSchema) fixedCorpus() []string {
	qs := []string{
		"MATCH (a) RETURN count(*) AS n",
	}
	if sch.g.EdgeCount() <= 20000 {
		qs = append(qs, "MATCH (a)-[r]->(b) RETURN count(*) AS n")
	}
	for _, l := range sch.labels {
		qs = append(qs, fmt.Sprintf("MATCH (a:%s) RETURN count(*) AS n", l))
		for _, ps := range sch.props[l] {
			lit, _ := cypherLit(ps.val)
			qs = append(qs,
				fmt.Sprintf("MATCH (a:%s {%s: %s}) RETURN count(*) AS n", l, ps.key, lit),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s IS NULL RETURN count(*) AS n", l, ps.key),
				fmt.Sprintf("MATCH (a:%s) RETURN min(a.%s) AS mn, max(a.%s) AS mx, count(*) AS n", l, ps.key, ps.key),
			)
			if sch.count[l] <= 5000 {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) RETURN DISTINCT a.%s AS v ORDER BY v", l, ps.key))
			}
			break // one prop per label keeps the fixed corpus compact
		}
		// Range-predicate shapes: these exercise the ordered-index seek path
		// under pushdown configurations and the plain filter path without.
		if len(sch.intProps[l]) > 0 {
			ps := sch.intProps[l][0]
			v := ps.val.Int()
			qs = append(qs,
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d RETURN count(*) AS n", l, ps.key, v),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s < %d RETURN count(*) AS n", l, ps.key, v),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s > %d AND a.%s <= %d RETURN count(*) AS n", l, ps.key, v-3, ps.key, v+3),
			)
			if sch.count[l] <= 5000 {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d RETURN a.%s AS x", l, ps.key, v, ps.key))
			}
		}
		if len(sch.strProps[l]) > 0 {
			ps := sch.strProps[l][0]
			if s := asciiPrefix(ps.val.Str(), 2); s != "" {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) WHERE a.%s STARTS WITH '%s' RETURN count(*) AS n", l, ps.key, s))
			}
		}
	}
	for _, r := range sch.rels {
		qs = append(qs,
			fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to),
			fmt.Sprintf("MATCH (b:%s)<-[:%s]-(a:%s) RETURN count(*) AS n", r.to, r.typ, r.from),
			fmt.Sprintf("MATCH (a:%s)-[:%s]->(a) RETURN count(*) AS n", r.from, r.typ),
		)
		if sch.count[r.from] <= 5000 {
			qs = append(qs, fmt.Sprintf(
				"MATCH (a:%s) OPTIONAL MATCH (a)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to))
		}
		if r.count <= 5000 {
			qs = append(qs, fmt.Sprintf(
				"UNWIND [1, 2] AS x MATCH (a:%s)-[:%s]->(b) RETURN count(*) AS n", r.from, r.typ))
		}
		// Edge-property shapes: inline equality, WHERE equality and WHERE
		// range on a typed relationship variable — these drive the
		// edge-index seek path for unlabeled anchors under pushdown.
		if len(r.props) > 0 && r.count <= 20000 {
			ps := r.props[0]
			lit, _ := cypherLit(ps.val)
			qs = append(qs,
				fmt.Sprintf("MATCH (a)-[r:%s {%s: %s}]->(b) RETURN count(*) AS n", r.typ, ps.key, lit),
				fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s = %s RETURN count(*) AS n", r.typ, ps.key, lit),
			)
			if ps.val.Kind() == graph.KindInt {
				qs = append(qs, fmt.Sprintf(
					"MATCH (a)-[r:%s]->(b) WHERE r.%s >= %d RETURN count(*) AS n", r.typ, ps.key, ps.val.Int()))
				qs = append(qs, fmt.Sprintf(
					"MATCH (b)<-[r:%s]-(a) WHERE r.%s < %d RETURN count(*) AS n", r.typ, ps.key, ps.val.Int()+1))
			}
		}
	}
	return qs
}

// asciiPrefix returns up to n leading ASCII bytes of s (stopping before any
// multi-byte rune so the prefix is always a valid query literal), or "" if
// the first byte is non-ASCII.
func asciiPrefix(s string, n int) string {
	i := 0
	for i < len(s) && i < n && s[i] < 0x80 {
		i++
	}
	return s[:i]
}

// randomQuery draws one read-only query whose estimated work is bounded, so
// a 200-query corpus stays fast even on the 43k-node Twitter graph.
func (sch *oracleSchema) randomQuery(rng *rand.Rand) string {
	for {
		if q, ok := sch.tryRandomQuery(rng); ok {
			return q
		}
	}
}

func (sch *oracleSchema) tryRandomQuery(rng *rand.Rand) (string, bool) {
	switch rng.Intn(16) {
	case 0: // label count
		l := pick(rng, sch.labels)
		return fmt.Sprintf("MATCH (a:%s) RETURN count(*) AS n", l), true
	case 1: // index-seek count (pushdown + fast path)
		l := pick(rng, sch.labels)
		if len(sch.props[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[l])
		lit, _ := cypherLit(ps.val)
		return fmt.Sprintf("MATCH (a:%s {%s: %s}) RETURN count(*) AS n", l, ps.key, lit), true
	case 2: // one-hop path count, random orientation
		r := pick(rng, sch.rels)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to), true
		}
		return fmt.Sprintf("MATCH (b:%s)<-[:%s]-(a:%s) RETURN count(*) AS n", r.to, r.typ, r.from), true
	case 3: // undirected expansion
		r := pick(rng, sch.rels)
		if r.count > 10000 {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s)-[:%s]-(b) RETURN count(*) AS n", r.from, r.typ), true
	case 4: // two-hop chain (types joined on the shared middle label)
		r1 := pick(rng, sch.rels)
		for _, r2 := range sch.rels {
			if r2.from == r1.to && r1.count+r2.count <= 15000 {
				return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s)-[:%s]->(c) RETURN count(*) AS n",
					r1.from, r1.typ, r1.to, r2.typ), true
			}
		}
		return "", false
	case 5: // WHERE on an integer property
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		return fmt.Sprintf("MATCH (a:%s) WHERE a.%s > %d RETURN count(a.%s) AS n",
			l, ps.key, ps.val.Int()-int64(rng.Intn(5)), ps.key), true
	case 6: // DISTINCT aggregate over a property
		r := pick(rng, sch.rels)
		if len(sch.props[r.to]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[r.to])
		return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(DISTINCT b.%s) AS n",
			r.from, r.typ, r.to, ps.key), true
	case 7: // non-aggregate projection (exercises the row merge path)
		r := pick(rng, sch.rels)
		if r.count > 10000 || len(sch.props[r.from]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[r.from])
		q := fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN a.%s AS x", r.from, r.typ, r.to, ps.key)
		if rng.Intn(2) == 0 {
			q += " ORDER BY x"
		}
		return q, true
	case 8: // cartesian product of two small labels
		la, lb := pick(rng, sch.labels), pick(rng, sch.labels)
		if sch.count[la]*sch.count[lb] > 250000 {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s), (b:%s) RETURN count(*) AS n", la, lb), true
	case 9: // cross-part bound variable (part 2 anchors on part 1's target)
		r1 := pick(rng, sch.rels)
		for _, r2 := range sch.rels {
			if r2.from == r1.to && r1.count+r2.count <= 15000 {
				return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s), (b)-[:%s]->(c) RETURN count(*) AS n",
					r1.from, r1.typ, r1.to, r2.typ), true
			}
		}
		return "", false
	case 10: // integer sum / avg (exact at any shard count)
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		fn := pick(rng, []string{"sum", "min", "max"})
		return fmt.Sprintf("MATCH (a:%s) RETURN %s(a.%s) AS n", l, fn, ps.key), true
	case 11: // grouped WITH pipeline
		r := pick(rng, sch.rels)
		if r.count > 10000 {
			return "", false
		}
		return fmt.Sprintf(
			"MATCH (a:%s)-[:%s]->(b) WITH a, count(b) AS c WHERE c > 1 RETURN count(*) AS n",
			r.from, r.typ), true
	case 12: // ordered-index range seek (one- or two-sided)
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		v := ps.val.Int()
		switch rng.Intn(3) {
		case 0:
			op := pick(rng, []string{">", ">=", "<", "<="})
			return fmt.Sprintf("MATCH (a:%s) WHERE a.%s %s %d RETURN count(*) AS n", l, ps.key, op, v), true
		case 1:
			lo, hi := v-int64(rng.Intn(5)), v+int64(rng.Intn(5))
			return fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d AND a.%s < %d RETURN count(*) AS n",
				l, ps.key, lo, ps.key, hi), true
		default: // range seek feeding an expansion (reorder interplay)
			for _, r := range sch.rels {
				if r.from == l && r.count <= 10000 {
					return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b) WHERE a.%s <= %d RETURN count(*) AS n",
						l, r.typ, ps.key, v), true
				}
			}
			return "", false
		}
	case 13: // STARTS WITH prefix seek
		l := pick(rng, sch.labels)
		if len(sch.strProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.strProps[l])
		pfx := asciiPrefix(ps.val.Str(), 1+rng.Intn(3))
		if pfx == "" {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s) WHERE a.%s STARTS WITH '%s' RETURN count(*) AS n", l, ps.key, pfx), true
	case 14: // edge-property equality seek (inline or WHERE)
		r := pick(rng, sch.rels)
		if len(r.props) == 0 || r.count > 20000 {
			return "", false
		}
		ps := pick(rng, r.props)
		lit, _ := cypherLit(ps.val)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("MATCH (a)-[r:%s {%s: %s}]->(b) RETURN count(*) AS n", r.typ, ps.key, lit), true
		}
		return fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s = %s RETURN count(*) AS n", r.typ, ps.key, lit), true
	default: // edge-property range seek
		r := pick(rng, sch.rels)
		if r.count > 20000 {
			return "", false
		}
		var ints []propSample
		for _, ps := range r.props {
			if ps.val.Kind() == graph.KindInt {
				ints = append(ints, ps)
			}
		}
		if len(ints) == 0 {
			return "", false
		}
		ps := pick(rng, ints)
		op := pick(rng, []string{">", ">=", "<", "<="})
		return fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s %s %d RETURN count(*) AS n",
			r.typ, ps.key, op, ps.val.Int()), true
	}
}

// oracleDigests pins the serial reference configuration's output over the
// fixed corpus plus 60 seeded random queries (seed 1) per dataset. Every
// other oracle compares configurations against the reference; this one
// pins the reference itself, so an execution-model rewrite cannot drift
// all configurations together. A mismatch is an engine bug: do not
// regenerate the digests to make it pass.
var oracleDigests = map[string]string{
	"WWC2019":       "963c0071917bacdccd78e26ddfba8a4ed6ad3ee106ff6bcb810f5610afdeb18e",
	"Cybersecurity": "2d7c962ccc82f7ec6428b8d994d464f9ad58a18710fa4645314d92e80835c62e",
	"Twitter":       "5d4e32a22fedc36d4ca52f4a56557ecc8cda717eb898fe4956a8cfcb304abf06",
}

func TestOracleReferenceDigest(t *testing.T) {
	for _, name := range datasets.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
			sch := newOracleSchema(g)
			rng := rand.New(rand.NewSource(1))
			corpus := sch.fixedCorpus()
			for i := 0; i < 60; i++ {
				corpus = append(corpus, sch.randomQuery(rng))
			}
			ref := newOracleExecutor(g, oracleConfig{shard: 0, reorder: false, pushdown: true})
			h := sha256.New()
			for _, q := range corpus {
				rows, errStr := oracleRun(ref, q)
				fmt.Fprintf(h, "%s\x00err=%v\x00%d\x00", q, errStr != "", len(rows))
				for _, r := range rows {
					fmt.Fprintf(h, "%s\x00", r)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := oracleDigests[name]; got != want {
				t.Fatalf("reference digest over %d queries = %s, want %s", len(corpus), got, want)
			}
		})
	}
}
