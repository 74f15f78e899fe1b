package cypher

import (
	"fmt"
	"sort"
	"strings"
)

// Explain renders the logical execution plan of a query against the bound
// graph: one line per pipeline stage, annotated with the anchor choices the
// matcher will make (which label index seeds each pattern) and estimated
// candidate counts. It executes nothing.
func (ex *Executor) Explain(src string) (string, error) {
	q, _, err := ex.plan(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Plan:\n")
	depth := 1
	line := func(format string, args ...any) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	bound := map[string]bool{}

	for i, cl := range q.Clauses {
		switch c := cl.(type) {
		case *MatchClause:
			kw := "Match"
			if c.Optional {
				kw = "OptionalMatch"
			}
			line("%s (%d pattern(s))", kw, len(c.Patterns))
			depth++
			ranges := ex.clauseRanges(c.Where)
			mp := ex.planMatch(c.Patterns, bound, ranges)
			if mp.reordered {
				line("CostOrder: order=%v reversed=%v est=%v [smallest anchor first]", mp.order, mp.reversed, mp.est)
			}
			if ex.shardWorkers >= 1 && !bound[mp.parts[0].Nodes[0].Var] {
				when := ""
				if i > 0 {
					when = " when its input is one row"
				}
				line("MorselScan(%d worker(s), morsel size %d) [work-stealing over anchor morsels, merged in tag order%s]",
					ex.shardWorkers, ex.morselCap(), when)
			}
			for _, part := range mp.parts {
				ex.explainPart(part, bound, ranges, line)
			}
			if c.Where != nil {
				line("Filter: %s", c.Where.exprString())
			}
			depth--
		case *WithClause:
			line("Project (WITH): %s", projectionSummary(&c.Projection))
			if c.Where != nil {
				line("Filter: %s", c.Where.exprString())
			}
		case *ReturnClause:
			line("Project (RETURN): %s", projectionSummary(&c.Projection))
		case *UnwindClause:
			line("Unwind %s AS %s", c.Expr.exprString(), c.Alias)
		case *CreateClause:
			line("Create (%d pattern(s))", len(c.Patterns))
		case *SetClause:
			line("Set (%d item(s))", len(c.Items))
		case *DeleteClause:
			kw := "Delete"
			if c.Detach {
				kw = "DetachDelete"
			}
			line("%s (%d target(s))", kw, len(c.Exprs))
		}
		bindScope(bound, cl)
	}
	pc := ex.PlanCacheStats()
	is := ex.g.IndexStats()
	fmt.Fprintf(&b, "Cache: plan hits=%d misses=%d entries=%d; prop index builds=%d lookups=%d live=%d",
		pc.Hits, pc.Misses, pc.Entries, is.EqBuilds, is.EqLookups, is.EqLive)
	if is.OrdNodeBuilds+is.OrdEdgeBuilds > 0 {
		fmt.Fprintf(&b, "; ordered index builds=%d/%d seeks=%d rows=%d",
			is.OrdNodeBuilds, is.OrdEdgeBuilds, is.OrdSeeks, is.OrdRows)
	}
	b.WriteByte('\n')
	return b.String(), nil
}

func (ex *Executor) explainPart(part *PatternPart, bound map[string]bool, ranges whereRanges, line func(string, ...any)) {
	n0 := part.Nodes[0]
	byKey := ranges.forVar(n0.Var)
	switch {
	case n0.Var != "" && bound[n0.Var]:
		line("AnchorOnBound(%s)", n0.Var)
	case !ex.noPushdown && len(n0.Labels) > 0 && (hasConstProp(n0) || len(byKey) > 0):
		// Mirror the matcher: the equality posting and the range count
		// compete, smallest candidate set wins.
		eqN := -1
		var eqLabel, eqKey string
		if hasConstProp(n0) {
			eqLabel, eqKey = seekChoice(n0)
			for _, l := range n0.Labels {
				for _, k := range sortedPropKeys(n0.Props) {
					lit, ok := n0.Props[k].(*Literal)
					if !ok {
						continue
					}
					if n := len(ex.g.LabelPropNodes(l, k, lit.Value)); eqN == -1 || n < eqN {
						eqN, eqLabel, eqKey = n, l, k
					}
				}
			}
		}
		rN := -1
		var rLabel, rKey string
		for _, l := range n0.Labels {
			for _, k := range sortedRangeKeys(byKey) {
				r := byKey[k]
				if c := ex.g.LabelPropRangeCount(l, k, r.lo, r.hi); rN == -1 || c < rN {
					rN, rLabel, rKey = c, l, k
				}
			}
		}
		if rN >= 0 && (eqN == -1 || rN < eqN) {
			line("NodeRangeSeek(%s:%s.%s %s) ~%d candidate(s) [ordered index]",
				varOrAnon(n0.Var), rLabel, rKey, byKey[rKey], rN)
		} else {
			line("NodeIndexSeek(%s:%s.%s) [label+property index]", varOrAnon(n0.Var), eqLabel, eqKey)
		}
	case len(n0.Labels) > 0:
		label, count := ex.bestLabel(n0.Labels)
		line("NodeByLabelScan(%s:%s) ~%d candidate(s)", varOrAnon(n0.Var), label, count)
	default:
		est, edgeSeek := 0.0, false
		if !ex.noPushdown {
			est, edgeSeek = ex.estEdgeAnchor(part, ranges)
		}
		if edgeSeek {
			rel := part.Rels[0]
			line("EdgeIndexSeek(%s:%s) ~%d endpoint(s) [ordered edge index]",
				varOrAnon(rel.Var), strings.Join(rel.Types, "|"), int(est))
		} else {
			line("AllNodesScan(%s) ~%d candidate(s)", varOrAnon(n0.Var), ex.g.NodeCount())
		}
	}
	markPatternVars(part, bound)
	for i, rel := range part.Rels {
		dir := "both"
		switch rel.Direction {
		case DirOut:
			dir = "out"
		case DirIn:
			dir = "in"
		}
		target := part.Nodes[i+1]
		typ := "*any*"
		if len(rel.Types) > 0 {
			typ = strings.Join(rel.Types, "|")
		}
		hops := ""
		if rel.IsVarLength() {
			if rel.MaxHops < 0 {
				hops = fmt.Sprintf(" hops %d..inf", rel.MinHops)
			} else {
				hops = fmt.Sprintf(" hops %d..%d", rel.MinHops, rel.MaxHops)
			}
		}
		sel := ""
		if len(rel.Types) == 1 {
			sel = fmt.Sprintf(" ~%d edge(s) of type", len(ex.g.EdgesWithType(rel.Types[0])))
		}
		line("Expand(%s, dir=%s%s) -> %s%s", typ, dir, hops, nodeSummary(target), sel)
	}
}

// hasConstProp reports whether the node pattern carries at least one
// constant (literal) property constraint — the precondition for an index
// seek in anchorCandidates.
func hasConstProp(n *NodePattern) bool {
	for _, e := range n.Props {
		if _, ok := e.(*Literal); ok {
			return true
		}
	}
	return false
}

// seekChoice mirrors anchorCandidates' deterministic seek choice for display: the
// first declared label and the first (sorted) constant property key.
func seekChoice(n *NodePattern) (label, key string) {
	keys := make([]string, 0, len(n.Props))
	for k := range n.Props {
		if _, ok := n.Props[k].(*Literal); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return n.Labels[0], keys[0]
}

// bestLabel returns the smallest label index among the candidates (the
// matcher's anchor heuristic) and its cardinality.
func (ex *Executor) bestLabel(labels []string) (string, int) {
	best, bestN := labels[0], len(ex.g.NodesWithLabel(labels[0]))
	for _, l := range labels[1:] {
		if n := len(ex.g.NodesWithLabel(l)); n < bestN {
			best, bestN = l, n
		}
	}
	return best, bestN
}

func varOrAnon(v string) string {
	if v == "" {
		return "_"
	}
	return v
}

func nodeSummary(n *NodePattern) string {
	s := "(" + varOrAnon(n.Var)
	for _, l := range n.Labels {
		s += ":" + l
	}
	return s + ")"
}

func markPatternVars(part *PatternPart, bound map[string]bool) {
	for _, n := range part.Nodes {
		if n.Var != "" {
			bound[n.Var] = true
		}
	}
	for _, r := range part.Rels {
		if r.Var != "" {
			bound[r.Var] = true
		}
	}
}

func projectionSummary(p *Projection) string {
	var parts []string
	if p.Distinct {
		parts = append(parts, "DISTINCT")
	}
	if p.Star {
		parts = append(parts, "*")
	}
	agg := false
	for _, it := range p.Items {
		if ContainsAggregate(it.Expr) {
			agg = true
		}
		parts = append(parts, it.Name())
	}
	s := strings.Join(parts, ", ")
	if agg {
		s += " [grouped aggregate]"
	}
	if len(p.OrderBy) > 0 {
		s += fmt.Sprintf(" [sort x%d]", len(p.OrderBy))
	}
	if p.Skip != nil || p.Limit != nil {
		s += " [paginate]"
	}
	return s
}
