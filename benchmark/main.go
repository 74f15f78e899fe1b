// Command benchmark measures the graphrules mining pipeline and its Bolt
// server end to end and, with --trace 1, breaks each workload down by
// layer. It is run from the root of a checkout:
//
//	bash benchmark/run.sh --workload mine-wwc2019-grid --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host and provenance. The exit code is 1 when any output differs from
// its golden digest or reference pass, and when set-up fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/graphrules/graphrules/internal/mining"
)

// defaultSeed is the seed the committed golden digests were made with.
const defaultSeed = 42

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the checkout root; scratch files live under root/.bench_build.
	root string
}

// workload is one named input set; BENCHMARK.json records why each was
// chosen.
type workload struct {
	name string
	kind string // "mine" or "serve": selects the per-layer metrics it measures
	// Mining workloads: the dataset and the grid's methods.
	dataset string
	methods []mining.Method
}

var workloads = []workload{
	{name: "mine-wwc2019-grid", kind: "mine", dataset: "WWC2019", methods: mining.Methods},
	{name: "mine-twitter-rag", kind: "mine", dataset: "Twitter", methods: []mining.Method{mining.RAG}},
	{name: "serve-twitter-mix", kind: "serve"},
}

func (w workload) run(opt options, r *result) error {
	if w.kind == "serve" {
		return runServe(opt, r)
	}
	return runMine(opt, r, w)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "seed for the generated graph, simulated models and op schedule")
	seconds := fs.Int("seconds", 20, "seconds to measure for")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	opt := options{workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root}
	r, err := measure(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(r.prov)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "{\"provenance\":%s}\n", line)
	if line, err = json.Marshal(r.output()); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.correct() {
		return 1
	}
	return 0
}

// measure runs one workload and checks that it produced every metric the
// run mode promises.
func measure(w workload, opt options) (*result, error) {
	r := newResult(w, opt)
	if err := w.run(opt, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := r.complete(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// metricDef names one reported figure. kinds lists the workload kinds
// that measure it; any other workload reports 0 for it.
type metricDef struct {
	name, unit string
	kinds      []string
}

var endToEnd = []metricDef{
	{"setup_s", "s", nil},
	{"pass_s", "s", nil},
	{"alloc_mb", "MB", nil},
}

var serveClasses = []string{"point", "rule", "scan", "write"}

// perLayer lists the traced run's figures. Mining figures are per pass
// over the workload's cells; serving figures are described in README.md.
var perLayer = func() []metricDef {
	mine := []string{"mine"}
	serve := []string{"serve"}
	both := []string{"mine", "serve"}
	defs := []metricDef{
		{"textenc.encode_ms", "ms", mine},
		{"textenc.encode_calls", "count", mine},
		{"textenc.tokens", "count", mine},
		{"textenc.window_ms", "ms", mine},
		{"textenc.windows", "count", mine},
		{"embedding.embed_ms", "ms", mine},
		{"embedding.chunks", "count", mine},
		{"vectorstore.add_ms", "ms", mine},
		{"vectorstore.search_ms", "ms", mine},
		{"llm.rulegen_ms", "ms", mine},
		{"llm.rulegen_calls", "count", mine},
		{"llm.prompt_tokens", "count", mine},
		{"llm.translate_ms", "ms", mine},
		{"llm.translate_calls", "count", mine},
		{"rules.parse_ms", "ms", mine},
		{"rules.parse_ok_ratio", "ratio", mine},
		{"correction.analyze_ms", "ms", mine},
		{"correction.correct_ratio", "ratio", mine},
		{"lint.ruleset_ms", "ms", mine},
		{"metrics.score_ms", "ms", mine},
		{"cypher.queries", "count", mine},
		{"cypher.query_ms_p50", "ms", mine},
		{"cypher.query_ms_max", "ms", mine},
		{"cypher.rows_scanned", "count", mine},
		{"mining.other_ms", "ms", mine},
	}
	for _, c := range serveClasses {
		defs = append(defs,
			metricDef{"serve.roundtrip_ms." + c, "ms", serve},
			metricDef{"cypher.run_ms." + c, "ms", serve},
			metricDef{"cypher.cursor_ms." + c, "ms", serve},
			metricDef{"cypher.rows_scanned_per_row." + c, "ratio", serve},
			metricDef{"bolt.encode_ms." + c, "ms", serve},
			metricDef{"bolt.decode_ms." + c, "ms", serve},
			metricDef{"bolt.wire_ms." + c, "ms", serve},
		)
	}
	defs = append(defs,
		metricDef{"cypher.plan_hit_ratio", "ratio", serve},
		metricDef{"bolt.messages_in", "count/op", serve},
		metricDef{"bolt.records_out", "count/op", serve},
		metricDef{"bolt.failures", "count", serve},
		metricDef{"governor.admit_wait_ms_p50", "ms", serve},
		metricDef{"governor.admit_wait_ms_p99", "ms", serve},
		metricDef{"governor.held_ms_p50", "ms", serve},
		metricDef{"governor.queued", "count", serve},
		metricDef{"governor.rejected", "count", serve},
		metricDef{"graph.epochs_per_tx", "count", serve},
		metricDef{"graph.snapshot_ms", "ms", serve},
		metricDef{"storage.wal_bytes_per_tx", "B", serve},
		metricDef{"storage.wal_writes_per_tx", "count", serve},
		metricDef{"storage.fsyncs_per_tx", "count", serve},
		metricDef{"storage.fsync_ms_p50", "ms", serve},
		metricDef{"storage.fsync_ms_p99", "ms", serve},
		metricDef{"serve.ops_per_s", "1/s", serve},
		metricDef{"serve.point_p50_ms", "ms", serve},
		metricDef{"serve.point_tail_ms", "ms", serve},
		metricDef{"serve.rule_p50_ms", "ms", serve},
		metricDef{"serve.rule_tail_ms", "ms", serve},
		metricDef{"serve.write_p50_ms", "ms", serve},
		metricDef{"serve.write_tail_ms", "ms", serve},
		metricDef{"serve.scan_records_per_s", "1/s", serve},
		metricDef{"serve.alloc_kb_per_op", "KB", serve},
		metricDef{"go.gc_cycles", "count", both},
		metricDef{"go.gc_pause_ms", "ms", both},
		metricDef{"trace.e2e_ms", "ms", both},
		metricDef{"trace.untraced_ms", "ms", both},
		metricDef{"trace.overhead_pct", "%", both},
		metricDef{"failed_ratio", "ratio", both},
	)
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark contract fixes.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result accumulates one run's figures and its correctness tally.
type result struct {
	w         workload
	trace     bool
	values    map[string]float64
	attempted int
	failed    int
	prov      provenance
}

func newResult(w workload, opt options) *result {
	return &result{w: w, trace: opt.trace, values: map[string]float64{}, prov: newProvenance(opt)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// check counts one checked operation, failed unless ok; what names the
// failure on standard error.
func (r *result) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", what)
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// complete verifies that the workload set every metric its kind
// measures, fills the rest with 0 and derives failed_ratio.
func (r *result) complete() error {
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if r.trace {
		r.set("failed_ratio", float64(r.failed)/float64(r.attempted))
	}
	var missing []string
	for _, d := range r.defs() {
		if _, ok := r.values[d.name]; ok {
			continue
		}
		if d.kinds == nil || contains(d.kinds, r.w.kind) {
			missing = append(missing, d.name)
		}
		r.values[d.name] = 0
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	return nil
}

func (r *result) output() output {
	out := output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range r.defs() {
		v := r.values[d.name]
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a percentile over failed ops; JSON has no infinity
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
