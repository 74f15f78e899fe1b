package cypher

import (
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// rowStrings renders result rows canonically for order-sensitive
// comparison.
func rowStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.Hashable())
		}
		out = append(out, b.String())
	}
	return out
}

func TestExtractRanges(t *testing.T) {
	parse := func(t *testing.T, src string) Expr {
		t.Helper()
		q, err := Parse("MATCH (a) WHERE " + src + " RETURN a")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return q.Clauses[0].(*MatchClause).Where
	}
	cases := []struct {
		where string
		vr    string
		key   string
		want  string // propRange.String() rendering, "" = no range extracted
	}{
		{"a.x > 5", "a", "x", "> 5"},
		{"a.x >= 5", "a", "x", ">= 5"},
		{"a.x < 5", "a", "x", "< 5"},
		{"a.x <= 5", "a", "x", "<= 5"},
		{"5 < a.x", "a", "x", "> 5"},
		{"a.x > 2 AND a.x <= 9", "a", "x", "> 2 AND <= 9"},
		{"a.x > 2 AND a.x > 7", "a", "x", "> 7"},
		{"a.name STARTS WITH 'al'", "a", "name", "STARTS WITH 'al'"},
		{"a.x > 5 OR a.y < 2", "a", "x", ""}, // OR is not a conjunction
		{"a.x > b.y", "a", "x", ""},          // non-literal bound
		{"a.x = 5", "a", "x", ""},            // equality is the eq index's job
	}
	for _, tc := range cases {
		w := extractRanges(parse(t, tc.where))
		r := w.forVar(tc.vr)[tc.key]
		got := ""
		if r != nil {
			got = r.String()
		}
		if got != tc.want {
			t.Errorf("extractRanges(%q)[%s.%s] = %q, want %q", tc.where, tc.vr, tc.key, got, tc.want)
		}
	}
}

// TestRangePushdownEquivalence pins that range pushdown changes the access
// path (RangeSeeks > 0) but never the rows or their order.
func TestRangePushdownEquivalence(t *testing.T) {
	g := socialGraph()
	queries := []string{
		"MATCH (u:User) WHERE u.id >= 2 RETURN u.name AS n",
		"MATCH (u:User) WHERE u.id > 1 AND u.id < 3 RETURN u.name AS n",
		"MATCH (t:Tweet) WHERE t.createdAt <= 1000 RETURN t.id AS i",
		"MATCH (u:User) WHERE u.name STARTS WITH 'a' RETURN u.id AS i",
		"MATCH (u:User)-[:POSTS]->(t:Tweet) WHERE t.createdAt < 1500 RETURN u.name AS n, t.id AS i",
	}
	on := NewExecutor(g)
	off := NewExecutor(g, WithRangePushdown(false))
	for _, q := range queries {
		ron, err := on.Run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		roff, err := off.Run(q, nil)
		if err != nil {
			t.Fatalf("%s (pushdown off): %v", q, err)
		}
		a, b := rowStrings(ron), rowStrings(roff)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: pushdown changed rows\non:  %v\noff: %v", q, a, b)
		}
		if ron.Exec.RangeSeeks == 0 {
			t.Errorf("%s: expected a range seek with pushdown on, stats: %+v", q, ron.Exec)
		}
		if roff.Exec.RangeSeeks != 0 {
			t.Errorf("%s: pushdown off still seeked: %+v", q, roff.Exec)
		}
	}
}

// TestEdgePropSeek pins the edge-index path for unlabeled anchors with
// typed, property-constrained relationships.
func TestEdgePropSeek(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	for _, q := range []string{
		"MATCH (a)-[r:FOLLOWS {since: 2019}]->(b) RETURN a.name AS x, b.name AS y",
		"MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since >= 2019 RETURN a.name AS x",
	} {
		res, err := ex.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", q, len(res.Rows))
		}
		if res.Exec.EdgeSeeks == 0 {
			t.Errorf("%s: expected an edge seek, stats: %+v", q, res.Exec)
		}
	}
	// Same rows without pushdown.
	off := NewExecutor(g, WithIndexPushdown(false))
	res, err := off.Run("MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since >= 2019 RETURN a.name AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Exec.EdgeSeeks != 0 {
		t.Fatalf("pushdown-off edge query: %d rows, %d edge seeks", len(res.Rows), res.Exec.EdgeSeeks)
	}
}

// TestSeekInfoReported checks Explain and ExecStats surface the chosen seek
// bounds with estimated vs. actual rows.
func TestSeekInfoReported(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	res, err := ex.Run("MATCH (u:User) WHERE u.id >= 2 RETURN count(*) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exec.Seeks) == 0 {
		t.Fatalf("no SeekInfo recorded: %+v", res.Exec)
	}
	s := res.Exec.Seeks[0]
	if s.Var != "u" || s.Label != "User" || s.Key != "id" || s.Edge {
		t.Fatalf("seek descriptor: %+v", s)
	}
	if !strings.Contains(s.String(), "NodeRangeSeek(u:User.id >= 2)") {
		t.Fatalf("seek rendering: %s", s.String())
	}
	if s.Est != 2 || s.Rows != 2 {
		t.Fatalf("est/rows = %d/%d, want 2/2", s.Est, s.Rows)
	}
	if !strings.Contains(res.Exec.String(), "range seeks:") {
		t.Fatalf("ExecStats.String missing range seeks: %s", res.Exec.String())
	}

	plan, err := ex.Explain("MATCH (u:User) WHERE u.id >= 2 RETURN count(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NodeRangeSeek(u:User.id >= 2) ~2 candidate(s)") {
		t.Fatalf("explain missing range seek bounds:\n%s", plan)
	}
}

// TestExistsSuspendsRanges pins that WHERE ranges never narrow the anchor
// of a pattern-predicate probe that reuses a variable name.
func TestExistsSuspendsRanges(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	// The outer `u` is range-constrained; the exists() probe binds its own
	// anonymous pattern over the bound u, and must not inherit bounds for
	// unrelated vars.
	res, err := ex.Run(
		"MATCH (u:User) WHERE u.id >= 1 AND exists((u)-[:POSTS]->()) RETURN u.name AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // alice and bob post; carol does not
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

// TestNumericBoundWidening pins the int/float unification: numeric bounds
// widen to inclusive at the seek layer, and the WHERE re-check restores
// exactness, so mixed int/float comparisons stay correct.
func TestNumericBoundWidening(t *testing.T) {
	g := graph.New("nums")
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewFloat(2.5)})
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewInt(2)})
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewInt(3)})
	// Only 2.5 falls strictly between 2 and 3; the widened seek may admit
	// the endpoints but the WHERE re-check must reject them.
	on, err := NewExecutor(g).Run("MATCH (n:N) WHERE n.x > 2 AND n.x < 3 RETURN n.x AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewExecutor(g, WithRangePushdown(false)).Run("MATCH (n:N) WHERE n.x > 2 AND n.x < 3 RETURN n.x AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Rows) != 1 {
		t.Fatalf("strict numeric range returned %d rows, want 1 (just 2.5)", len(on.Rows))
	}
	if strings.Join(rowStrings(on), "\n") != strings.Join(rowStrings(off), "\n") {
		t.Fatalf("widening broke equivalence: %v vs %v", rowStrings(on), rowStrings(off))
	}
}
