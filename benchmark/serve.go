package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/bolt"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/storage"
)

const (
	pointQuery = "MATCH (u:User {id:$id}) RETURN u.screen_name"
	scanQuery  = "MATCH (u:User) RETURN u.id, u.screen_name"
	// writeQuery sets a property no mined rule reads, so graph size and
	// rule counts stay fixed while every write commits an epoch.
	writeQuery = "MATCH (u:User {id:$id}) SET u.bench_seq = $v"

	// sessions is the closed loop's client count, one per CPU of the
	// 2-CPU reference host. Each runs a block of opMix per round.
	sessions = 2
	// fetchSize is the PULL batch size, the Neo4j drivers' default.
	fetchSize = 1000
	// The traced ladder times ladderOps ops of each class, each repeated
	// ladderRepeats times.
	ladderOps     = 20
	ladderRepeats = 5
	// boltRecordTag is the Bolt RECORD message signature.
	boltRecordTag = 0x71
)

// graphd's governor defaults and WAL flag, as cmd/graphd wires them.
var (
	govConfig    = governor.Config{MaxConcurrent: 64, MaxQueue: 64, QueueTimeout: 2 * time.Second}
	commitWindow = time.Duration(0)
)

// opMix is one session's block per round: 60% point, 25% rule, 5% scan,
// 10% write. The split is assumed, not taken from measured traffic. A
// round's 180 rule ops run each of the mined cell's 36 rule queries 5
// times, so every round and every seed does the same work.
var opMix = []struct {
	class string
	n     int
}{{"point", 216}, {"rule", 90}, {"scan", 18}, {"write", 36}}

// opsPerRound is the number of ops all sessions run in one round.
var opsPerRound = func() int {
	n := 0
	for _, m := range opMix {
		n += m.n
	}
	return n * sessions
}()

// tailPercentile is the percentile each serve.*_tail_ms reports: the
// highest that leaves at least 10 samples beyond it after the traced
// mix's minimum of 3 rounds.
var tailPercentile = map[string]float64{"point": 0.99, "rule": 0.98, "write": 0.95}

// bufferedConn reads through a bufio.Reader, so the client costs one
// read syscall per buffer instead of about three per record.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// dial opens a Bolt session on addr and says HELLO.
func dial(addr string, buffered bool) (*bolt.Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := nc
	if buffered {
		conn = &bufferedConn{Conn: nc, r: bufio.NewReaderSize(nc, 64<<10)}
	}
	c, err := bolt.NewClient(conn)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := c.Hello("graphrules-benchmark"); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// errServer marks a FAILURE answered by the server: the op failed but
// the connection is usable again after RESET.
var errServer = errors.New("server failure")

// query sends RUN and PULL in one flight, as drivers do, and pulls the
// rest of the stream in fetchSize batches.
func query(c *bolt.Client, q string, params map[string]any) ([][]any, map[string]any, error) {
	if err := c.SendRun(q, params); err != nil {
		return nil, nil, err
	}
	if err := c.SendPull(fetchSize); err != nil {
		return nil, nil, err
	}
	if _, err := c.RecvSummary(); err != nil {
		var sf *bolt.ServerFailure
		if !errors.As(err, &sf) {
			return nil, nil, err
		}
		// The PULL sent with the failed RUN is answered IGNORED.
		if _, _, _, err := c.RecvStream(); err == nil {
			return nil, nil, fmt.Errorf("bolt: PULL after a failed RUN was not ignored")
		}
		if err := c.Reset(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: %v", errServer, sf)
	}
	var records [][]any
	for {
		recs, more, meta, err := c.RecvStream()
		if err != nil {
			var sf *bolt.ServerFailure
			if errors.As(err, &sf) {
				if rerr := c.Reset(); rerr != nil {
					return nil, nil, rerr
				}
				return nil, nil, fmt.Errorf("%w: %v", errServer, sf)
			}
			return nil, nil, err
		}
		records = append(records, recs...)
		if !more {
			return records, meta, nil
		}
		if err := c.SendPull(fetchSize); err != nil {
			return nil, nil, err
		}
	}
}

// writeTx runs one write op as an explicit transaction: BEGIN, the SET,
// COMMIT.
func writeTx(c *bolt.Client, params map[string]any) (map[string]any, error) {
	if err := c.Begin(); err != nil {
		return nil, err
	}
	_, meta, err := query(c, writeQuery, params)
	if err != nil {
		return nil, err // after a server FAILURE, RESET rolled the transaction back
	}
	if err := c.Commit(); err != nil {
		return nil, err
	}
	return meta, nil
}

// op is one scheduled request.
type op struct {
	class string
	query string
	rule  int // index into the rule queries, for class "rule"
	id    int64
}

// params renders the op's parameters; v is the value a write sets.
func (o op) params(v int64) map[string]any {
	switch o.class {
	case "point":
		return map[string]any{"id": o.id}
	case "write":
		return map[string]any{"id": o.id, "v": v}
	}
	return map[string]any{}
}

// outcome is one executed op, kept for validation after the round.
type outcome struct {
	op      op
	records [][]any
	meta    map[string]any
	err     error
	latency time.Duration
}

// servedGraph is one set-up of the serve workload: the Twitter graph,
// the mined rule queries with their expected counts, the WAL and the
// Bolt servers.
type servedGraph struct {
	g          *graph.Graph
	ruleQ      []string
	ruleCounts []int64

	walFile *os.File
	sink    *countingSink // traced runs only
	wal     *storage.WAL
	detach  func()

	plain  *serverStack
	traced *serverStack // traced runs only
}

// serverStack is one executor served over Bolt on a loopback port.
type serverStack struct {
	gov    *governor.Governor
	tgov   *tracedGovernor
	ex     *cypher.Executor
	srv    *bolt.Server
	addr   string
	served chan error
}

func startStack(g *graph.Graph, traced bool) (*serverStack, error) {
	s := &serverStack{gov: governor.New(govConfig), served: make(chan error, 1)}
	var adm cypher.Admission = s.gov
	if traced {
		s.tgov = &tracedGovernor{inner: s.gov}
		adm = s.tgov
	}
	s.ex = cypher.NewExecutor(g,
		cypher.WithShardWorkers(0),
		cypher.WithSnapshotPin(false),
		cypher.WithMaxRows(0),
		cypher.WithMemoryBudget(0),
		cypher.WithQueryDeadline(0),
		cypher.WithAdmission(adm),
	)
	s.srv = bolt.NewServer(bolt.Config{Executor: s.ex})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *serverStack) close() {
	s.srv.Close()
	<-s.served
}

// setupServe builds the graph, mines the RAG cell whose rule queries the
// mix serves, opens the WAL and starts the server(s). The graph and the
// mined cell always come from defaultSeed: which rules a seed's graph
// yields changes the rule ops' cost tenfold, so only the request
// sequence follows --seed and every seed serves the same data.
func setupServe(opt options, dir string) (*servedGraph, error) {
	g, err := loadGraph("Twitter", defaultSeed)
	if err != nil {
		return nil, err
	}
	c := cell{model: llm.NewSim(llm.LLaMA3(), defaultSeed), method: mining.RAG, mode: prompt.ZeroShot}
	res, err := mining.Mine(g, c.config())
	if err != nil {
		return nil, err
	}
	sg := &servedGraph{g: g}
	for _, mr := range res.Rules {
		if mr.EvalErr != nil || mr.Generated == (rules.QuerySet{}) {
			continue
		}
		sg.ruleQ = append(sg.ruleQ, mr.Final.Support, mr.Final.Body, mr.Final.HeadTotal)
		sg.ruleCounts = append(sg.ruleCounts, mr.Score.Counts.Support, mr.Score.Counts.Body, mr.Score.Counts.HeadTotal)
	}
	if len(sg.ruleQ) == 0 {
		return nil, errors.New("the mined cell produced no executable rule")
	}
	if sg.walFile, err = os.CreateTemp(dir, "wal-*.log"); err != nil {
		return nil, err
	}
	var sink io.Writer = sg.walFile
	if opt.trace {
		sg.sink = &countingSink{f: sg.walFile}
		sink = sg.sink
	}
	sg.wal = storage.NewGroupWAL(sink, commitWindow)
	sg.detach = storage.AttachWAL(g, sg.wal)
	if sg.plain, err = startStack(g, false); err != nil {
		sg.close()
		return nil, err
	}
	if opt.trace {
		if sg.traced, err = startStack(g, true); err != nil {
			sg.close()
			return nil, err
		}
	}
	return sg, nil
}

// close stops the servers and closes the WAL, flushing it.
func (sg *servedGraph) close() error {
	for _, s := range []*serverStack{sg.plain, sg.traced} {
		if s != nil {
			s.close()
		}
	}
	var err error
	if sg.wal != nil {
		sg.detach()
		err = sg.wal.Close()
	}
	if sg.walFile != nil {
		if cerr := sg.walFile.Close(); err == nil {
			err = cerr
		}
		os.Remove(sg.walFile.Name())
	}
	return err
}

// reference is what every served op must return.
type reference struct {
	names  map[int64]string // point results, from the scan
	ids    []int64
	scan   string // digest of the scan's row set
	counts []int64
}

// scanDigest hashes a scan's rows as a set.
func scanDigest(records [][]any) string {
	rows := make([]string, len(records))
	for i, rec := range records {
		rows[i] = fmt.Sprintf("%#v", rec)
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countsDigest hashes the rule queries' counts in query order.
func countsDigest(counts []int64) string {
	h := sha256.New()
	fmt.Fprintln(h, counts)
	return hex.EncodeToString(h.Sum(nil))
}

// referencePass runs the scan and every rule query once, untimed. The
// rule counts must equal the mined cell's scores.
func referencePass(r *result, sg *servedGraph, c *bolt.Client) (*reference, error) {
	recs, _, err := query(c, scanQuery, map[string]any{})
	if err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	ref := &reference{names: map[int64]string{}, scan: scanDigest(recs)}
	for _, rec := range recs {
		id, ok1 := rec[0].(int64)
		name, ok2 := rec[1].(string)
		if len(rec) != 2 || !ok1 || !ok2 {
			return nil, fmt.Errorf("reference scan: unexpected row %v", rec)
		}
		ref.names[id] = name
		ref.ids = append(ref.ids, id)
	}
	sort.Slice(ref.ids, func(i, j int) bool { return ref.ids[i] < ref.ids[j] })
	for i, q := range sg.ruleQ {
		recs, _, err := query(c, q, map[string]any{})
		if err != nil {
			return nil, fmt.Errorf("reference rule query %d: %w", i, err)
		}
		n, _ := countOf(recs)
		ref.counts = append(ref.counts, n)
		r.check(n == sg.ruleCounts[i], fmt.Sprintf("rule query %d served %d, mined score counted %d", i, n, sg.ruleCounts[i]))
	}
	return ref, nil
}

// digests is what the golden file records for the serve workload.
func (ref *reference) digests() []string { return []string{countsDigest(ref.counts), ref.scan} }

func countOf(recs [][]any) (int64, bool) {
	if len(recs) != 1 || len(recs[0]) != 1 {
		return 0, false
	}
	n, ok := recs[0][0].(int64)
	return n, ok
}

// valid reports whether an outcome matches the reference.
func (ref *reference) valid(o outcome) bool {
	if o.err != nil {
		return false
	}
	switch o.op.class {
	case "point":
		return len(o.records) == 1 && len(o.records[0]) == 1 && o.records[0][0] == ref.names[o.op.id]
	case "rule":
		n, ok := countOf(o.records)
		return ok && n == ref.counts[o.op.rule]
	case "scan":
		return scanDigest(o.records) == ref.scan
	case "write":
		stats, _ := o.meta["stats"].(map[string]any)
		return stats["properties-set"] == int64(1)
	}
	return false
}

// schedule builds each session's fixed block: the mix's class counts in
// a seeded order, with seeded user ids. The round's rule ops walk a
// seeded permutation of the rule queries, so every round runs each of
// them at least once.
func schedule(seed int64, ref *reference, ruleQ []string) [][]op {
	blocks := make([][]op, sessions)
	perm := rand.New(rand.NewSource(seed)).Perm(len(ruleQ))
	next := 0
	for s := range blocks {
		rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
		var block []op
		for _, m := range opMix {
			for i := 0; i < m.n; i++ {
				o := op{class: m.class, id: ref.ids[rng.Intn(len(ref.ids))]}
				switch m.class {
				case "point":
					o.query = pointQuery
				case "rule":
					o.rule = perm[next%len(perm)]
					next++
					o.query = ruleQ[o.rule]
				case "scan":
					o.query = scanQuery
				case "write":
					o.query = writeQuery
				}
				block = append(block, o)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		blocks[s] = block
	}
	return blocks
}

// exec runs one op on a session; v is the value a write sets.
func exec(c *bolt.Client, o op, v int64) outcome {
	start := time.Now()
	out := outcome{op: o}
	if o.class == "write" {
		out.meta, out.err = writeTx(c, o.params(v))
	} else {
		out.records, out.meta, out.err = query(c, o.query, o.params(v))
	}
	out.latency = time.Since(start)
	return out
}

// round runs every session's block concurrently, closed loop, and
// returns the outcomes once all sessions are done. An error other than a
// server FAILURE breaks the connection and ends the run.
func round(clients []*bolt.Client, blocks [][]op, seq int64) ([]outcome, error) {
	outs := make([][]outcome, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for s := range clients {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, o := range blocks[s] {
				out := exec(clients[s], o, seq*1000+int64(i))
				if out.err != nil && !errors.Is(out.err, errServer) {
					errs[s] = out.err
					return
				}
				outs[s] = append(outs[s], out)
			}
		}(s)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, errors.Join(errs...)
}

// validate checks every outcome of a round.
func validate(r *result, ref *reference, outs []outcome) {
	for _, o := range outs {
		r.check(ref.valid(o), fmt.Sprintf("%s op %q returned a wrong result (err %v)", o.op.class, o.op.query, o.err))
	}
}

func dialAll(addr string, n int) ([]*bolt.Client, error) {
	var cs []*bolt.Client
	for i := 0; i < n; i++ {
		c, err := dial(addr, true)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*bolt.Client) {
	for _, c := range cs {
		c.Close()
	}
}

func runServe(opt options, r *result) error {
	r.prov.Seeds["dataset"] = defaultSeed
	r.prov.Seeds["model"] = defaultSeed
	r.prov.Seeds["rule_order"] = opt.seed
	for s := 0; s < sessions; s++ {
		r.prov.Seeds[fmt.Sprintf("ops.session%d", s)] = opt.seed*1000 + int64(s)
	}
	r.prov.WALPolicy = fmt.Sprintf("group WAL, commit window %s (graphd -commit-window 0), on a file under .bench_build/tmp", commitWindow)
	r.prov.Governor = fmt.Sprintf("max-concurrent %d, max-queue %d, queue-timeout %s; shard workers 0",
		govConfig.MaxConcurrent, govConfig.MaxQueue, govConfig.QueueTimeout)
	if opt.trace {
		r.prov.TailPercentiles = tailPercentile
	}
	dir := filepath.Join(opt.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sg, setupS, err := medianSetup(7,
		func() (*servedGraph, error) { return setupServe(opt, dir) },
		func(sg *servedGraph) { sg.close() })
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sg.close()
		}
	}()

	baseGoroutines := runtime.NumGoroutine()
	refClient, err := dial(sg.plain.addr, true)
	if err != nil {
		return err
	}
	ref, err := referencePass(r, sg, refClient)
	refClient.Close()
	if err != nil {
		return err
	}
	want, err := goldenFor(opt.workload)
	if err != nil {
		return err
	}
	checkCells(r, "golden", ref.digests(), want)
	blocks := schedule(opt.seed, ref, sg.ruleQ)

	stack := sg.plain
	if opt.trace {
		stack = sg.traced
	}
	clients, err := dialAll(stack.addr, sessions)
	if err != nil {
		return err
	}
	warm, err := round(clients, blocks, 0)
	if err != nil {
		closeAll(clients)
		return err
	}
	validate(r, ref, warm)

	budget := opt.seconds
	if opt.trace {
		budget = opt.seconds * 3 / 5 // the ladder takes about as long again
	}
	var passS, allocMB []float64
	var tr *serveTrace
	if opt.trace {
		tr = newServeTrace(stack)
	}
	start := time.Now()
	for n := 0; !timeUp(start, budget, n, 3); n++ {
		runtime.GC()
		m := readMem()
		epoch := sg.g.Epoch()
		t := time.Now()
		outs, err := round(clients, blocks, int64(n+1))
		passS = append(passS, time.Since(t).Seconds())
		alloc, gc, pause := m.since()
		allocMB = append(allocMB, alloc)
		if err != nil {
			closeAll(clients)
			return err
		}
		validate(r, ref, outs)
		if tr != nil {
			tr.addRound(outs, sg.g.Epoch()-epoch, gc, pause)
		}
	}
	if tr != nil {
		tr.endMix(stack)
		if err := tr.ladder(r, sg, ref, blocks); err != nil {
			closeAll(clients)
			return err
		}
	}
	closeAll(clients)
	stacks := []*serverStack{sg.plain}
	if sg.traced != nil {
		stacks = append(stacks, sg.traced)
	}
	reconcile(r, stacks, baseGoroutines, ref.ids[0])
	closed = true
	if err := sg.close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	if tr != nil {
		tr.report(r, passS, allocMB, sg.sink)
		return nil
	}
	r.set("setup_s", setupS)
	r.set("pass_s", median(passS))
	r.prov.PassSeconds = passS
	r.set("alloc_mb", median(allocMB))
	return nil
}

// reconcile checks that the run left nothing behind: no open
// connections or admitted queries, governor counters that add up, no
// extra goroutines, and a free transaction lock on every stack's
// executor, which owns the lock (a last write commits on each).
func reconcile(r *result, stacks []*serverStack, baseGoroutines int, id int64) {
	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	}
	for i, s := range stacks {
		r.check(waitFor(func() bool { return s.srv.Stats().ConnectionsActive == 0 }),
			fmt.Sprintf("stack %d: connections still active after the clients closed", i))
		st := s.gov.Stats()
		r.check(st.Active == 0 && st.Waiting == 0 && st.Admitted == st.Completed+st.Killed,
			fmt.Sprintf("stack %d: governor does not reconcile: %s", i, st))
	}
	r.check(waitFor(func() bool { return runtime.NumGoroutine() <= baseGoroutines }),
		fmt.Sprintf("goroutines did not return to %d (now %d)", baseGoroutines, runtime.NumGoroutine()))
	for i, s := range stacks {
		c, err := dial(s.addr, true)
		if err != nil {
			r.check(false, fmt.Sprintf("stack %d: final write: %v", i, err))
			continue
		}
		meta, err := writeTx(c, map[string]any{"id": id, "v": int64(-1)})
		c.Close()
		stats, _ := meta["stats"].(map[string]any)
		r.check(err == nil && stats["properties-set"] == int64(1), fmt.Sprintf("stack %d: final write transaction: %v", i, err))
	}
}

// tracedGovernor times admission: the wait inside Admit and the time a
// query holds its slot.
type tracedGovernor struct {
	inner *governor.Governor

	mu         sync.Mutex
	wait, held []float64 // ms
}

func (t *tracedGovernor) Admit(ctx context.Context) (func(error), error) {
	start := time.Now()
	done, err := t.inner.Admit(ctx)
	admitted := time.Now()
	t.mu.Lock()
	t.wait = append(t.wait, ms(admitted.Sub(start)))
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return func(qerr error) {
		d := time.Since(admitted)
		done(qerr)
		t.mu.Lock()
		t.held = append(t.held, ms(d))
		t.mu.Unlock()
	}, nil
}

// countingSink is the WAL's file seen through an io.Writer and Syncer
// that count bytes, writes and fsyncs and time each fsync.
type countingSink struct {
	f      *os.File
	mu     sync.Mutex
	bytes  int64
	writes int
	syncMs []float64
}

func (s *countingSink) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.mu.Lock()
	s.bytes += int64(n)
	s.writes++
	s.mu.Unlock()
	return n, err
}

func (s *countingSink) Sync() error {
	start := time.Now()
	err := s.f.Sync()
	s.mu.Lock()
	s.syncMs = append(s.syncMs, ms(time.Since(start)))
	s.mu.Unlock()
	return err
}

// serveTrace accumulates the traced serve run's figures.
type serveTrace struct {
	vals map[string]float64 // figures final when set

	lat          map[string][]float64 // ms per op, +Inf for a failed op
	scanRate     []float64            // records per second per scan
	gc, pause    []float64
	epochs       uint64
	ops          int
	mixWrites    int
	ladderWrites int

	waitFrom, heldFrom int
	statsFrom          bolt.ServerStats
}

func newServeTrace(s *serverStack) *serveTrace {
	t := &serveTrace{vals: map[string]float64{}, lat: map[string][]float64{}, statsFrom: s.srv.Stats()}
	s.tgov.mu.Lock()
	t.waitFrom, t.heldFrom = len(s.tgov.wait), len(s.tgov.held)
	s.tgov.mu.Unlock()
	return t
}

func (t *serveTrace) addRound(outs []outcome, epochs uint64, gc, pause float64) {
	for _, o := range outs {
		v := ms(o.latency)
		if o.err != nil {
			v = math.Inf(1)
		}
		t.lat[o.op.class] = append(t.lat[o.op.class], v)
		if o.op.class == "scan" && o.err == nil {
			t.scanRate = append(t.scanRate, float64(len(o.records))/o.latency.Seconds())
		}
		if o.op.class == "write" {
			t.mixWrites++
		}
	}
	t.ops += len(outs)
	t.epochs += epochs
	t.gc = append(t.gc, gc)
	t.pause = append(t.pause, pause)
}

// endMix takes the server, admission and plan-cache figures of the mix.
func (t *serveTrace) endMix(s *serverStack) {
	st, ops := s.srv.Stats(), float64(t.ops)
	t.vals["bolt.messages_in"] = float64(st.MessagesIn-t.statsFrom.MessagesIn) / ops
	t.vals["bolt.records_out"] = float64(st.RecordsOut-t.statsFrom.RecordsOut) / ops
	t.vals["bolt.failures"] = float64(st.Failures - t.statsFrom.Failures)
	s.tgov.mu.Lock()
	wait, held := s.tgov.wait[t.waitFrom:], s.tgov.held[t.heldFrom:]
	t.vals["governor.admit_wait_ms_p50"] = median(wait)
	t.vals["governor.admit_wait_ms_p99"] = quantile(wait, 0.99)
	t.vals["governor.held_ms_p50"] = median(held)
	s.tgov.mu.Unlock()
	gs := s.gov.Stats()
	t.vals["governor.queued"] = float64(gs.Queued)
	t.vals["governor.rejected"] = float64(gs.Rejected)
	pc := s.ex.PlanCacheStats()
	t.vals["cypher.plan_hit_ratio"] = ratio(int(pc.Hits), int(pc.Hits+pc.Misses))
	t.vals["graph.epochs_per_tx"] = float64(t.epochs) / float64(t.mixWrites)
}

// ladder times ladderOps ops of each class, one at a time with no other
// load, through each layer: the Bolt round trip on the untraced and on
// the traced server, the in-process session cursor, the materializing
// Executor.RunCtx, and packstream encode and decode of the op's records.
// Each op is repeated ladderRepeats times and every figure is the
// minimum of its repeats, so a GC pause or preemption in one repeat does
// not land on one layer. The traced round trip splits into cursor, codec
// and wire time; wire is the remainder and must not be negative.
func (t *serveTrace) ladder(r *result, sg *servedGraph, ref *reference, blocks [][]op) error {
	cu, err := dial(sg.plain.addr, true)
	if err != nil {
		return err
	}
	defer cu.Close()
	ct, err := dial(sg.traced.addr, true)
	if err != nil {
		return err
	}
	defer ct.Close()
	ex := sg.traced.ex
	ctx := context.Background()
	// Fewer collections, each before an op's repeats, keep GC pauses and
	// assists out of most repeats; the live heap is about 50 MB.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var e2e, untraced float64
	var snapMs []float64
	seq := int64(0)
	for _, class := range serveClasses {
		var ops []op
		for _, o := range blocks[0] {
			if o.class == class {
				ops = append(ops, o)
			}
		}
		var rtU, rtT, cur, run, enc, dec, wires []float64
		scanned, rows := 0, 0
		for i := 0; i < ladderOps; i++ {
			o := ops[i%len(ops)]
			if class == "rule" {
				o.rule = i % len(sg.ruleQ)
				o.query = sg.ruleQ[o.rule]
			}
			minU, minT, minCur, minRun := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
			runtime.GC()
			var records [][]any
			for k := 0; k < ladderRepeats; k++ {
				seq++
				v := -seq
				outU := exec(cu, o, v)
				outT := exec(ct, o, v)
				r.check(ref.valid(outU) && ref.valid(outT), fmt.Sprintf("ladder %s op returned a wrong result", class))
				if outU.err != nil || outT.err != nil {
					return fmt.Errorf("ladder %s: %v / %v", class, outU.err, outT.err)
				}
				minU = math.Min(minU, ms(outU.latency))
				minT = math.Min(minT, ms(outT.latency))
				records = outT.records
				eng := map[string]graph.Value{}
				for key, p := range o.params(v) {
					eng[key] = graph.Of(p)
				}
				d, err := cursorOp(ctx, ex, o, eng)
				if err != nil {
					return fmt.Errorf("ladder %s cursor: %w", class, err)
				}
				minCur = math.Min(minCur, d)
				start := time.Now()
				res, err := ex.RunCtx(ctx, o.query, eng)
				minRun = math.Min(minRun, ms(time.Since(start)))
				if err != nil {
					return fmt.Errorf("ladder %s run: %w", class, err)
				}
				if k == 0 {
					scanned += res.Exec.RowsScanned
					rows += max(res.Len(), 1)
				}
				if class == "write" {
					// Two Bolt transactions, the cursor's and RunCtx's.
					t.ladderWrites += 4
					start := time.Now()
					sg.g.Snapshot()
					snapMs = append(snapMs, ms(time.Since(start)))
					// Commit one more epoch so the next repeat's
					// transactions also begin on an uncached snapshot.
					if _, err := ex.RunCtx(ctx, o.query, eng); err != nil {
						return fmt.Errorf("ladder %s run: %w", class, err)
					}
					t.ladderWrites++
				}
			}
			e, d, err := codec(records)
			if err != nil {
				return fmt.Errorf("ladder %s codec: %w", class, err)
			}
			rtU, rtT, cur, run = append(rtU, minU), append(rtT, minT), append(cur, minCur), append(run, minRun)
			enc, dec = append(enc, e), append(dec, d)
			wires = append(wires, minT-minCur-e-d)
		}
		// wire is the mean of the per-op remainders. Where the true wire
		// time is a small part of a heavy query, host noise can push the
		// estimate a little below zero; only a remainder more than two
		// standard errors below zero means a layer was over-charged.
		wire := mean(wires)
		r.check(wire >= -2*stdErr(wires), fmt.Sprintf("bolt.wire_ms.%s is negative (%.4f ms, standard error %.4f)", class, wire, stdErr(wires)))
		t.vals["serve.roundtrip_ms."+class] = mean(rtT)
		t.vals["cypher.cursor_ms."+class] = mean(cur)
		t.vals["cypher.run_ms."+class] = mean(run)
		t.vals["cypher.rows_scanned_per_row."+class] = ratio(scanned, rows)
		t.vals["bolt.encode_ms."+class] = mean(enc)
		t.vals["bolt.decode_ms."+class] = mean(dec)
		t.vals["bolt.wire_ms."+class] = wire
		e2e += mean(rtT)
		untraced += mean(rtU)
	}
	t.vals["graph.snapshot_ms"] = median(snapMs)
	t.vals["trace.e2e_ms"] = e2e
	t.vals["trace.untraced_ms"] = untraced
	t.vals["trace.overhead_pct"] = 100 * (e2e/untraced - 1)
	return nil
}

// cursorOp runs an op through an in-process session and drains its
// cursor, inside an explicit transaction for a write.
func cursorOp(ctx context.Context, ex *cypher.Executor, o op, params map[string]graph.Value) (float64, error) {
	start := time.Now()
	sess := ex.OpenSession()
	defer sess.Close()
	if o.class == "write" {
		if err := sess.Begin(ctx); err != nil {
			return 0, err
		}
	}
	c, err := sess.Run(ctx, o.query, params)
	if err != nil {
		return 0, err
	}
	for c.Next() {
	}
	if _, err := c.Summary(); err != nil {
		return 0, err
	}
	if o.class == "write" {
		if err := sess.Commit(); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(start)), nil
}

// codec times packstream over an op's records: encoding each as a RECORD
// message, then decoding them back.
func codec(records [][]any) (encMs, decMs float64, err error) {
	var e bolt.Encoder
	start := time.Now()
	for _, rec := range records {
		if err := e.AppendStructure(boltRecordTag, rec); err != nil {
			return 0, 0, err
		}
	}
	encMs = ms(time.Since(start))
	b := e.Bytes()
	start = time.Now()
	for len(b) > 0 {
		if _, b, err = bolt.Decode(b); err != nil {
			return 0, 0, err
		}
	}
	return encMs, ms(time.Since(start)), nil
}

// report sets the serve per-layer figures. sink is read after the WAL
// closed, so its counts include the final flush.
func (t *serveTrace) report(r *result, passS, allocMB []float64, sink *countingSink) {
	for k, v := range t.vals {
		r.set(k, v)
	}
	r.set("serve.ops_per_s", float64(opsPerRound)/median(passS))
	r.prov.TailSamples = map[string]int{}
	for class, p := range tailPercentile {
		r.set("serve."+class+"_p50_ms", median(t.lat[class]))
		r.set("serve."+class+"_tail_ms", quantile(t.lat[class], p))
		r.prov.TailSamples[class] = len(t.lat[class])
	}
	r.set("serve.scan_records_per_s", median(t.scanRate))
	r.set("serve.alloc_kb_per_op", median(allocMB)*1024/float64(opsPerRound))
	r.set("go.gc_cycles", mean(t.gc))
	r.set("go.gc_pause_ms", mean(t.pause))

	// Every write transaction of the run: the warm-up round's, the
	// mix's, the ladder's and the reconcile's final one on each of the
	// two stacks.
	writes := float64(sessions*writesPerBlock() + t.mixWrites + t.ladderWrites + 2)
	r.set("storage.wal_bytes_per_tx", float64(sink.bytes)/writes)
	r.set("storage.wal_writes_per_tx", float64(sink.writes)/writes)
	r.set("storage.fsyncs_per_tx", float64(len(sink.syncMs))/writes)
	r.set("storage.fsync_ms_p50", median(sink.syncMs))
	r.set("storage.fsync_ms_p99", quantile(sink.syncMs, 0.99))
}

func writesPerBlock() int {
	for _, m := range opMix {
		if m.class == "write" {
			return m.n
		}
	}
	return 0
}
