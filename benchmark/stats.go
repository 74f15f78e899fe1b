package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// provenance records where and from what a result was measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision the binary was built from, when the
	// checkout is a git repository; SourceSHA256 always identifies the
	// Go sources and module files the binary was built from.
	Commit       string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
	// Seeds lists every seed the run derived from --seed.
	Seeds map[string]int64 `json:"seeds"`
	// Serve workload only: how graphd is wired.
	WALPolicy string `json:"wal_policy,omitempty"`
	Governor  string `json:"governor,omitempty"`
	// TailPercentiles fixes the percentile each serve *_tail_ms reports;
	// TailSamples counts the latencies it was taken over.
	TailPercentiles map[string]float64 `json:"tail_percentiles,omitempty"`
	TailSamples     map[string]int     `json:"tail_samples,omitempty"`
	// PassSeconds lists every timed pass (mining) or round (serve) of an
	// untraced run, in order; pass_s is their median.
	PassSeconds []float64 `json:"pass_seconds,omitempty"`
}

func newProvenance(opt options) provenance {
	return provenance{
		Workload:     opt.workload,
		Seed:         opt.seed,
		Seconds:      int(opt.seconds / time.Second),
		Trace:        opt.trace,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       vcsRevision(),
		SourceSHA256: sourceDigest(opt.root),
		Seeds:        map[string]int64{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping the build directory, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".bench_build" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdErr is the standard error of the mean of xs.
func stdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Sqrt(float64(len(xs)))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// memSample is the part of runtime.MemStats a pass is charged for.
type memSample struct {
	alloc   uint64
	gc      uint32
	pauseNs uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gc: m.NumGC, pauseNs: m.PauseTotalNs}
}

// since returns what was allocated and collected since s.
func (s memSample) since() (allocMB, gcCycles, pauseMs float64) {
	now := readMem()
	return float64(now.alloc-s.alloc) / (1 << 20), float64(now.gc - s.gc),
		float64(now.pauseNs-s.pauseNs) / 1e6
}

// timeUp reports whether a measuring phase that began at start and has
// completed done iterations should stop: it runs for budget and at least
// min iterations.
func timeUp(start time.Time, budget time.Duration, done, min int) bool {
	return done >= min && time.Since(start) >= budget
}

// medianSetup runs setup n times from a collected heap and returns the
// last result with the median duration; each earlier result is released
// with drop before the next set-up starts.
func medianSetup[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var (
		cur   T
		have  bool
		times []float64
	)
	for i := 0; i < n; i++ {
		if have {
			drop(cur)
			have = false
		}
		runtime.GC()
		start := time.Now()
		next, err := setup()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		cur, have = next, true
	}
	return cur, median(times), nil
}
