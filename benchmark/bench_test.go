package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from reference passes at the default seed")

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables in step.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, want)
	}
	for _, c := range []struct {
		what string
		spec []metricSpec
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		var got, want []metricSpec
		for _, m := range c.spec {
			got = append(got, m)
		}
		for _, d := range c.defs {
			want = append(want, metricSpec{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json %v\ncode %v", c.what, got, want)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each named metric is reported with its unit and that every
// output was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.name, seed: defaultSeed, seconds: time.Second, trace: trace, root: ".."}
			r, err := measure(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			out := r.output()
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if _, err := json.Marshal(out); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}

// TestBufferedClient checks that the load generator's buffered client
// reads exactly the records the unbuffered client does, for one op of
// each class.
func TestBufferedClient(t *testing.T) {
	g, err := loadGraph("Twitter", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startStack(g, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rule := "MATCH (t:Tweet) WHERE t.text IS NULL RETURN count(*) AS n"
	ops := []op{
		{class: "point", query: pointQuery, id: 7},
		{class: "rule", query: rule},
		{class: "scan", query: scanQuery},
		{class: "write", query: writeQuery, id: 7},
	}
	var results [2][]outcome
	for i, buffered := range []bool{false, true} {
		c, err := dial(s.addr, buffered)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			out := exec(c, o, 1)
			if out.err != nil {
				t.Fatalf("%s (buffered=%v): %v", o.class, buffered, out.err)
			}
			results[i] = append(results[i], out)
		}
		c.Close()
	}
	for i, o := range ops {
		plain, buf := results[0][i], results[1][i]
		if !reflect.DeepEqual(plain.records, buf.records) || !reflect.DeepEqual(plain.meta["stats"], buf.meta["stats"]) {
			t.Errorf("%s: buffered client read %v / %v, unbuffered %v / %v",
				o.class, len(buf.records), buf.meta, len(plain.records), plain.meta)
		}
	}
	if n := len(results[0][2].records); n != 4000 {
		t.Errorf("scan returned %d records, want 4000", n)
	}
}

// TestGolden rewrites golden.json with -update; otherwise it checks that
// the file covers every workload.
func TestGolden(t *testing.T) {
	if !*update {
		for _, w := range workloads {
			if _, err := goldenFor(w.name); err != nil {
				t.Error(err)
			}
		}
		return
	}
	all := map[string][]string{}
	for _, w := range workloads {
		opt := options{workload: w.name, seed: defaultSeed, root: ".."}
		switch w.kind {
		case "mine":
			g, err := loadGraph(w.dataset, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := minePass(g, gridCells(defaultSeed, w.methods), nil)
			if err != nil {
				t.Fatal(err)
			}
			all[w.name] = d
		case "serve":
			if err := os.MkdirAll("../.bench_build/tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			sg, err := setupServe(opt, "../.bench_build/tmp")
			if err != nil {
				t.Fatal(err)
			}
			c, err := dial(sg.plain.addr, true)
			if err != nil {
				t.Fatal(err)
			}
			r := newResult(w, opt)
			ref, err := referencePass(r, sg, c)
			c.Close()
			sg.close()
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatal("served rule counts differ from the mined scores")
			}
			all[w.name] = ref.digests()
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
