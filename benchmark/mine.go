package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/correction"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/embedding"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/textenc"
	"github.com/graphrules/graphrules/internal/vectorstore"
)

// The chunk size and top-k mining.Config documents as Mine's defaults
// for the fields the cells leave 0. The traced run replays RAG retrieval
// with them and checks the retrieved text against the prompt Mine sent,
// so a change to Mine's defaults fails the traced run instead of timing
// other work.
const (
	ragChunkTokens = 400
	ragTopK        = 8
)

// cell is one grid configuration.
type cell struct {
	model  llm.Model
	method mining.Method
	mode   prompt.Mode
}

// gridCells lists the grid in report.RunDataset order: model, then
// method, then prompting mode.
func gridCells(seed int64, methods []mining.Method) []cell {
	var cs []cell
	for _, p := range llm.Profiles() {
		model := llm.NewSim(p, seed)
		for _, method := range methods {
			for _, mode := range prompt.Modes {
				cs = append(cs, cell{model: model, method: method, mode: mode})
			}
		}
	}
	return cs
}

// config is the mining.Config report.RunDataset mines every cell with.
func (c cell) config() mining.Config {
	return mining.Config{
		Model: c.model, Method: c.method, Mode: c.mode,
		ScoreWorkers: runtime.GOMAXPROCS(0),
		ShardWorkers: runtime.GOMAXPROCS(0),
	}
}

func loadGraph(dataset string, seed int64) (*graph.Graph, error) {
	gen, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	return gen(datasets.Options{Seed: seed, ViolationRate: datasets.DefaultOptions().ViolationRate}), nil
}

// cellDigest hashes what a cell's run must reproduce: the encoder, the
// mined rule statements, the aggregate scores, Table 6's correctness
// counts and the error census. The encoder's name ties a traced pass,
// which installs a wrapped IncidentEncoder, to the untraced reference,
// which runs Mine's default encoder.
func cellDigest(res *mining.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|%s\n", res.Dataset, res.Model, res.Method, res.Mode, res.Encoder)
	for _, r := range res.Rules {
		fmt.Fprintf(h, "rule %s\n", r.NL)
	}
	fmt.Fprintf(h, "aggregate %+v\ncypher %d/%d\n", res.Aggregate, res.CypherCorrect, res.CypherTotal)
	var cats []string
	for c, n := range res.ErrorCounts {
		cats = append(cats, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(cats)
	fmt.Fprintf(h, "errors %v\n", cats)
	return hex.EncodeToString(h.Sum(nil))
}

// minePass mines every cell once and returns the cells' digests and the
// summed wall time of the mining.Mine calls. A non-nil trace instruments
// the cells and accumulates their layer figures, and the collections
// that ran during the Mine calls.
func minePass(g *graph.Graph, cells []cell, tr *mineTrace) ([]string, time.Duration, error) {
	var (
		digests []string
		wall    time.Duration
	)
	for _, c := range cells {
		cfg := c.config()
		var (
			ct  *cellTrace
			mem memSample
		)
		if tr != nil {
			ct = newCellTrace(&cfg)
			mem = readMem()
		}
		start := time.Now()
		res, err := mining.Mine(g, cfg)
		d := time.Since(start)
		if tr != nil {
			_, gc, pause := mem.since()
			tr.sums["go.gc_cycles"] += gc
			tr.sums["go.gc_pause_ms"] += pause
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s/%s/%s: %w", c.model.Name(), c.method, c.mode, err)
		}
		wall += d
		if tr != nil {
			if err := tr.add(g, cfg, res, ct, d); err != nil {
				return nil, 0, err
			}
		}
		digests = append(digests, cellDigest(res))
	}
	return digests, wall, nil
}

// checkCells counts one check per cell: got must equal want.
func checkCells(r *result, what string, got, want []string) {
	for i := range want {
		r.check(i < len(got) && got[i] == want[i], fmt.Sprintf("%s: cell %d digest differs", what, i))
	}
}

func runMine(opt options, r *result, w workload) error {
	// The graph always comes from defaultSeed: a graph seed changes how
	// many rules the cells mine (one Twitter seed yields 2 instead of 12
	// in a cell), and so the work a pass does. --seed drives the
	// simulated models' sampling.
	r.prov.Seeds["dataset"] = defaultSeed
	r.prov.Seeds["model"] = opt.seed
	g, setupS, err := medianSetup(25,
		func() (*graph.Graph, error) { return loadGraph(w.dataset, defaultSeed) },
		func(*graph.Graph) {})
	if err != nil {
		return err
	}
	cells := gridCells(opt.seed, w.methods)

	// The untimed reference pass warms caches. The timed passes must
	// reproduce it, and at the default seed it must match the golden
	// digests committed with the benchmark.
	ref, _, err := minePass(g, cells, nil)
	if err != nil {
		return err
	}
	if opt.seed == defaultSeed {
		want, err := goldenFor(opt.workload)
		if err != nil {
			return err
		}
		checkCells(r, "golden", ref, want)
	}

	if opt.trace {
		return traceMine(opt, r, g, cells, ref)
	}
	var passS, allocMB []float64
	start := time.Now()
	for n := 0; !timeUp(start, opt.seconds, n, 3); n++ {
		runtime.GC()
		m := readMem()
		t := time.Now()
		got, _, err := minePass(g, cells, nil)
		passS = append(passS, time.Since(t).Seconds())
		alloc, _, _ := m.since()
		allocMB = append(allocMB, alloc)
		if err != nil {
			return err
		}
		checkCells(r, "timed pass", got, ref)
	}
	r.set("setup_s", setupS)
	r.set("pass_s", median(passS))
	r.prov.PassSeconds = passS
	r.set("alloc_mb", median(allocMB))
	return nil
}

// traceMine alternates untraced and traced passes, so tracing overhead is
// measured on the same heap and host state, and reports the traced
// passes' layer figures as per-pass means.
func traceMine(opt options, r *result, g *graph.Graph, cells []cell, ref []string) error {
	tr := &mineTrace{sums: map[string]float64{}, schema: graph.ExtractSchema(g)}
	var untraced, traced []float64
	start := time.Now()
	for n := 0; !timeUp(start, opt.seconds, n, 2); n++ {
		runtime.GC()
		got, wall, err := minePass(g, cells, nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, ms(wall))
		checkCells(r, "untraced pass", got, ref)

		runtime.GC()
		tr.beginPass()
		got, wall, err = minePass(g, cells, tr)
		if err != nil {
			return err
		}
		traced = append(traced, ms(wall))
		checkCells(r, "traced pass", got, ref)
		// The layers plus the remainder add up to the pass by
		// construction; a negative remainder means a layer was
		// over-charged.
		r.check(tr.passOther >= 0, fmt.Sprintf("mining.other_ms is negative (%.3f ms)", tr.passOther))
	}
	passes := float64(len(traced))
	for name, v := range tr.sums {
		r.set(name, v/passes)
	}
	r.set("rules.parse_ok_ratio", ratio(tr.parseOK, tr.parseLines))
	r.set("correction.correct_ratio", ratio(tr.cypherCorrect, tr.cypherTotal))
	r.set("cypher.query_ms_p50", median(tr.queryMs))
	r.set("cypher.query_ms_max", mean(tr.passMaxMs))
	r.set("trace.e2e_ms", mean(traced))
	r.set("trace.untraced_ms", mean(untraced))
	r.set("trace.overhead_pct", 100*(mean(traced)/mean(untraced)-1))
	return nil
}

// mineTrace accumulates the traced passes' layer figures, summed over
// passes; traceMine divides by the pass count.
type mineTrace struct {
	schema *graph.Schema
	sums   map[string]float64

	parseLines, parseOK        int
	cypherCorrect, cypherTotal int
	queryMs                    []float64
	passMaxMs                  []float64
	passOther                  float64 // the current pass's mining.other_ms
}

func (t *mineTrace) beginPass() {
	t.passMaxMs = append(t.passMaxMs, 0)
	t.passOther = 0
}

// cellTrace holds the wrappers installed on one cell's Config.
type cellTrace struct {
	enc   *tracedEncoder
	model *tracedModel
	adm   *tracedAdmission
}

func newCellTrace(cfg *mining.Config) *cellTrace {
	ct := &cellTrace{
		enc:   &tracedEncoder{inner: textenc.IncidentEncoder{}}, // Mine's default
		model: &tracedModel{inner: cfg.Model},
		adm:   &tracedAdmission{},
	}
	cfg.Encoder, cfg.Model, cfg.Admission = ct.enc, ct.model, ct.adm
	return ct
}

// add charges one mined cell to the pass. Encoding, the LLM calls and
// scoring are timed inside the run by the Config wrappers. mining.Mine
// calls windowing, embedding, the vector store, rule parsing, correction
// and the rule-set lint directly, so those are timed by replaying the
// same public calls on the inputs the run produced.
func (t *mineTrace) add(g *graph.Graph, cfg mining.Config, res *mining.Result, ct *cellTrace, wall time.Duration) error {
	layers := map[string]float64{}
	layers["textenc.encode_ms"] = ms(ct.enc.dur)
	t.sums["textenc.encode_calls"] += float64(ct.enc.calls)
	t.sums["textenc.tokens"] += float64(ct.enc.tokens)
	layers["llm.rulegen_ms"] = ms(ct.model.rulegen)
	layers["llm.translate_ms"] = ms(ct.model.translate)
	t.sums["llm.rulegen_calls"] += float64(ct.model.rulegenCalls)
	t.sums["llm.translate_calls"] += float64(ct.model.translateCalls)
	t.sums["llm.prompt_tokens"] += float64(ct.model.promptTokens)
	layers["metrics.score_ms"] = ms(ct.adm.last.Sub(ct.adm.first))
	t.sums["cypher.queries"] += float64(len(ct.adm.durs))
	for _, d := range ct.adm.durs {
		q := ms(d)
		t.queryMs = append(t.queryMs, q)
		if last := len(t.passMaxMs) - 1; q > t.passMaxMs[last] {
			t.passMaxMs[last] = q
		}
	}

	enc := ct.enc.last
	switch cfg.Method {
	case mining.SlidingWindow:
		start := time.Now()
		windows, err := textenc.SlidingWindows(enc, textenc.DefaultWindowTokens, textenc.DefaultOverlapTokens)
		if err != nil {
			return err
		}
		broken, err := textenc.BrokenBlocks(enc, textenc.DefaultWindowTokens, textenc.DefaultOverlapTokens)
		if err != nil {
			return err
		}
		layers["textenc.window_ms"] = ms(time.Since(start))
		if len(windows) != res.Windows || len(broken) != res.BrokenPatterns {
			return fmt.Errorf("window replay cut %d windows and %d broken blocks, Mine %d and %d",
				len(windows), len(broken), res.Windows, res.BrokenPatterns)
		}
		t.sums["textenc.windows"] += float64(len(windows))
	case mining.RAG:
		t.sums["textenc.windows"] += 0 // RAG cuts chunks, not sliding windows
		if err := t.replayRAG(cfg, enc, ct.model.rulePrompts, layers); err != nil {
			return err
		}
	}

	for _, text := range ct.model.ruleTexts {
		for _, line := range llm.ParseRuleLines(text) {
			start := time.Now()
			_, ok := rules.ParseNL(line)
			layers["rules.parse_ms"] += ms(time.Since(start))
			t.parseLines++
			if ok {
				t.parseOK++
			}
		}
	}

	var finals []rules.QuerySet
	for _, mr := range res.Rules {
		if mr.Generated == (rules.QuerySet{}) {
			continue
		}
		start := time.Now()
		correction.Analyze(mr.Generated, t.schema)
		layers["correction.analyze_ms"] += ms(time.Since(start))
		finals = append(finals, mr.Final)
	}
	t.cypherCorrect += res.CypherCorrect
	t.cypherTotal += res.CypherTotal

	entries := make([]lint.RuleSetEntry, len(res.Rules))
	for i, mr := range res.Rules {
		entries[i] = lint.RuleSetEntry{Name: mr.NL, Support: mr.Final.Support, Body: mr.Final.Body, Head: mr.Final.HeadTotal}
	}
	start := time.Now()
	lint.RuleSetLint(entries)
	layers["lint.ruleset_ms"] = ms(time.Since(start))

	// Rows scanned is a count, so an untimed re-run of the scored
	// queries on an executor configured like the scorer's gives it.
	ex := cypher.NewExecutor(g, cypher.WithShardWorkers(cfg.ShardWorkers))
	for _, qs := range finals {
		for _, q := range []string{qs.Support, qs.Body, qs.HeadTotal} {
			if res, _ := ex.RunCtx(context.Background(), q, nil); res != nil {
				t.sums["cypher.rows_scanned"] += float64(res.Exec.RowsScanned)
			}
		}
	}

	other := ms(wall)
	for name, v := range layers {
		t.sums[name] += v
		other -= v
	}
	t.sums["mining.other_ms"] += other
	t.passOther += other
	return nil
}

// replayRAG re-runs Mine's RAG retrieval: chunking, embedding and
// indexing every chunk, and the top-k search for the rule request. The
// rule prompt built from the replay's hits must be the one Mine sent.
func (t *mineTrace) replayRAG(cfg mining.Config, enc *textenc.Encoding, sent []string, layers map[string]float64) error {
	start := time.Now()
	chunks, err := textenc.Chunks(enc, ragChunkTokens)
	if err != nil {
		return err
	}
	layers["textenc.window_ms"] += ms(time.Since(start))
	embedder, err := embedding.NewHashing(embedding.DefaultDim)
	if err != nil {
		return err
	}
	store, err := vectorstore.New(embedding.DefaultDim)
	if err != nil {
		return err
	}
	for _, ch := range chunks {
		start := time.Now()
		v := embedder.Embed(ch.Text)
		mid := time.Now()
		if _, err := store.Add(ch.Text, v, nil); err != nil {
			return err
		}
		layers["embedding.embed_ms"] += ms(mid.Sub(start))
		layers["vectorstore.add_ms"] += ms(time.Since(mid))
	}
	t.sums["embedding.chunks"] += float64(len(chunks))
	start = time.Now()
	q := embedder.Embed(prompt.RuleGeneration(cfg.Mode, ""))
	mid := time.Now()
	hits, err := store.Search(q, ragTopK, nil)
	if err != nil {
		return err
	}
	layers["embedding.embed_ms"] += ms(mid.Sub(start))
	layers["vectorstore.search_ms"] += ms(time.Since(mid))
	var retrieved string
	for _, h := range hits {
		retrieved += h.Doc.Text + "\n"
	}
	if len(sent) != 1 || sent[0] != prompt.RuleGenerationWithExclusions(cfg.Mode, retrieved, cfg.ExcludeRules) {
		return errors.New("RAG replay retrieved other chunks than Mine: its chunk size or top-k no longer match Mine's defaults")
	}
	return nil
}

// tracedEncoder times Config.Encoder and keeps the encoding for the
// replayed steps. Mine calls it once per cell, from one goroutine.
type tracedEncoder struct {
	inner  textenc.Encoder
	dur    time.Duration
	calls  int
	tokens int
	last   *textenc.Encoding
}

func (e *tracedEncoder) Name() string { return e.inner.Name() }

func (e *tracedEncoder) Encode(g *graph.Graph) *textenc.Encoding {
	start := time.Now()
	enc := e.inner.Encode(g)
	e.dur += time.Since(start)
	e.calls++
	e.tokens += enc.TokenCount()
	e.last = enc
	return enc
}

// tracedModel times Config.Model by prompt template. It forwards Name
// and Unwrap, so Mine finds the wrapped model's rule budget.
type tracedModel struct {
	inner llm.Model

	mu                           sync.Mutex
	rulegen, translate           time.Duration
	rulegenCalls, translateCalls int
	promptTokens                 int
	rulePrompts, ruleTexts       []string
}

func (m *tracedModel) Name() string      { return m.inner.Name() }
func (m *tracedModel) Unwrap() llm.Model { return m.inner }

func (m *tracedModel) Complete(p string) (llm.Response, error) {
	return m.CompleteCtx(context.Background(), p)
}

func (m *tracedModel) CompleteCtx(ctx context.Context, p string) (llm.Response, error) {
	start := time.Now()
	resp, err := llm.CompleteCtx(ctx, m.inner, p)
	d := time.Since(start)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.promptTokens += resp.PromptTokens
	if prompt.IsRuleGeneration(p) {
		m.rulegen += d
		m.rulegenCalls++
		m.rulePrompts = append(m.rulePrompts, p)
		if err == nil {
			m.ruleTexts = append(m.ruleTexts, resp.Text)
		}
	} else {
		m.translate += d
		m.translateCalls++
	}
	return resp, err
}

// tracedAdmission admits every query at once and times it from admission
// to completion. The scoring step is the only executor user in Mine, so
// the span from the first admission to the last completion is its wall
// time.
type tracedAdmission struct {
	mu          sync.Mutex
	first, last time.Time
	durs        []time.Duration
}

func (a *tracedAdmission) Admit(context.Context) (func(error), error) {
	start := time.Now()
	a.mu.Lock()
	if a.first.IsZero() {
		a.first = start
	}
	a.mu.Unlock()
	return func(error) {
		end := time.Now()
		a.mu.Lock()
		a.durs = append(a.durs, end.Sub(start))
		if end.After(a.last) {
			a.last = end
		}
		a.mu.Unlock()
	}, nil
}
