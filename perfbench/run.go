package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lbr "repro"
	"repro/internal/algebra"
	"repro/internal/results"
	"repro/internal/server"
	"repro/internal/sparql"
)

// clients is the closed loop's client count: 2, one per CPU of the 2-CPU
// machine the benchmark is sized for, and never more than the CPUs there are.
var clients = min(2, runtime.NumCPU())

// setups is how many times a run sets the system up; setup_s is their
// median. The last instance answers the checks and serves the timed phase.
const setups = 3

// warmup runs the closed loop untimed before the measured phase, so the
// clients, the server and the Go runtime reach their steady state.
const warmup = 1500 * time.Millisecond

// compactThreshold is mixed-rw's Options.CompactThreshold: small enough
// that several background compactions complete in every run, large enough
// that the compactor idles between them. At 20 it ran back to back, the
// delta outgrew the threshold while it ran, and a slower host then slowed
// reads more than in proportion.
const compactThreshold = 100

// overlayWrites is how many more updates each mixed-rw client applies after
// the timed phase, once the delta is compacted: at most 5 delta entries
// each, so together they stay below compactThreshold and remain in the
// overlay for the final checks.
const overlayWrites = 2

var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: clients,
	// Uncompressed bodies: the workloads measure the serializer, not gzip.
	DisableCompression: true,
}}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func (c config) overHTTP() bool { return c.workload != "mixed-rw" }

func (c config) options() lbr.Options {
	if c.workload == "mixed-rw" {
		return lbr.Options{CompactThreshold: compactThreshold}
	}
	return lbr.Options{}
}

// instance is one set-up system: a built store, plus the HTTP server in
// front of it for the HTTP workloads, plus its WAL for mixed-rw.
type instance struct {
	store   *lbr.Store
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	walPath string
}

type setupTime struct {
	load, build, total time.Duration
	heapBytes          int64 // live heap the instance added
}

// setUp loads and builds a store from the dataset's N-Triples and, where
// the workload needs them, opens its WAL and starts its server. The timed
// part ends when the first query can run.
func setUp(cfg config, d *dataset, n int) (*instance, setupTime, error) {
	var st setupTime
	runtime.GC()
	debug.FreeOSMemory()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	store := lbr.NewStoreWithOptions(cfg.options())
	if _, err := store.LoadNTriples(bytes.NewReader(d.nt)); err != nil {
		return nil, st, fmt.Errorf("load: %w", err)
	}
	t1 := time.Now()
	if err := store.Build(); err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	inst := &instance{store: store}
	if cfg.workload == "mixed-rw" {
		inst.walPath = filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d-%d.log", os.Getpid(), n))
		if _, err := store.OpenWAL(inst.walPath); err != nil {
			return nil, st, err
		}
	}
	if cfg.overHTTP() {
		scfg := server.Config{Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }}
		if cfg.workload == "bulk-optional" {
			scfg.ResultCacheBudget = -1
		}
		inst.srv = server.New(store, scfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, st, fmt.Errorf("listen: %w", err)
		}
		inst.hs = &http.Server{Handler: inst.srv.Handler()}
		inst.served = make(chan error, 1)
		go func() { inst.served <- inst.hs.Serve(ln) }()
		inst.base = "http://" + ln.Addr().String()
		resp, err := httpClient.Get(inst.base + "/healthz")
		if err != nil {
			inst.close()
			return nil, st, fmt.Errorf("healthz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inst.close()
			return nil, st, fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	t3 := time.Now()
	st.load, st.build, st.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t0)

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	st.heapBytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	return inst, st, nil
}

// close stops the server and waits for it to exit, then detaches the WAL
// and removes its file.
func (inst *instance) close() error {
	var errs []string
	if inst.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := inst.hs.Shutdown(ctx); err != nil {
			errs = append(errs, err.Error())
		}
		if err := <-inst.served; err != nil && err != http.ErrServerClosed {
			errs = append(errs, err.Error())
		}
		inst.hs = nil
		httpClient.CloseIdleConnections()
	}
	if err := inst.store.CloseWAL(); err != nil {
		errs = append(errs, err.Error())
	}
	if inst.walPath != "" {
		if err := os.Remove(inst.walPath); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("close instance: %s", strings.Join(errs, "; "))
	}
	return nil
}

// httpQuery runs one SELECT over /sparql and returns the JSON body and
// whether the server's result cache answered it.
func httpQuery(base, q string) ([]byte, bool, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(q), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("query: status %d: %.200s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache") == "hit", nil
}

// checkReport summarizes the pre-run answer checks.
type checkReport struct {
	distinct, refChecked, baselineChecked, mismatches int
}

// checkAnswers runs every distinct read of the workload once against
// inst, from `clients` goroutines, and compares its row multiset with the
// oracle's. For the HTTP workloads it returns the response-body hash of
// each query; timed responses must match it. A query whose check fails
// stays in the workload, and every timed run of it counts as wrong.
func checkAnswers(cfg config, d *dataset, inst *instance) (map[string][32]byte, checkReport, error) {
	qs := universe(d, cfg.workload)
	hashes := make([][32]byte, len(qs))
	ok := make([]bool, len(qs))
	oracles := make([]*oracle, clients)
	errs := make([]error, clients)
	refLeft := &atomic.Int64{}
	refLeft.Store(int64(refTimeBudget))
	var wg sync.WaitGroup
	for w := range oracles {
		o := &oracle{graph: d.graph, store: inst.store, overBudget: map[string]bool{}, refLeft: refLeft}
		oracles[w] = o
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += clients {
				q := qs[i]
				var got []string
				var body []byte
				var err error
				if cfg.overHTTP() {
					body, _, err = httpQuery(inst.base, q.text)
					if err == nil {
						got, err = jsonRows(body)
					}
				} else {
					var res *lbr.Result
					res, err = inst.store.QueryContext(context.Background(), q.text)
					if err == nil {
						got = resultRows(res)
					}
				}
				want, oerr := o.rows(q)
				if oerr != nil {
					errs[w] = fmt.Errorf("oracle: %w", oerr)
					return
				}
				if err != nil || !slices.Equal(got, want) {
					fmt.Fprintf(os.Stderr, "answer check failed (oracle %d rows, got %d, err %v):\n%s\n", len(want), len(got), err, q.text)
					continue
				}
				ok[i] = true
				hashes[i] = sha256.Sum256(body)
			}
		}(w)
	}
	wg.Wait()
	rep := checkReport{distinct: len(qs)}
	for _, o := range oracles {
		rep.refChecked += o.refUsed
		rep.baselineChecked += o.baseUsed
	}
	for _, err := range errs {
		if err != nil {
			return nil, rep, err
		}
	}
	out := map[string][32]byte{}
	for i, q := range qs {
		if !ok[i] {
			rep.mismatches++
		} else if cfg.overHTTP() {
			out[q.text] = hashes[i]
		}
	}
	return out, rep, nil
}

// clientState is one closed-loop client's progress and measurements.
type clientState struct {
	next   int // operations issued so far; numbers the client's ops
	rec    *recorder
	lat    []sample
	ops    int
	failed int
	hits   int  // result-cache hits over HTTP
	acked  []op // mixed-rw writes the store acknowledged
	seen   map[string]bool
	reads  int        // reads issued, for the repeat share
	traced []tracedOp // traced HTTP reads, candidates for the replay

	// Traced-run accumulators.
	tracedReads, tracedWrites  int
	serBytes, rows             int64
	initialTriples, afterPrune int64
	deltaMax                   int
	compactionMS               []float64
	lastCompactions            int64
}

// tracedOp is one traced HTTP read: its client, op id and query, and
// whether the result cache answered it.
type tracedOp struct {
	cs   *clientState
	id   int64
	text string
	hit  bool
}

// replays bounds how many traced HTTP reads are replayed as direct calls.
const replays = 300

// replay attributes traced HTTP reads to layers: after the traced phase,
// with no other load running, it replays an evenly spaced sample of them
// as direct calls under their own op ids. Replaying beside the live
// requests instead would load the CPUs the other client's requests need
// and distort the very latencies being attributed.
func (r *runner) replay() error {
	var all []tracedOp
	for _, cs := range r.cs {
		all = append(all, cs.traced...)
	}
	step := max(1, len(all)/replays)
	for i := 0; i < len(all); i += step {
		if _, err := r.direct(all[i].cs, all[i].id, all[i].text); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// phaseStats is what one phase measured across all clients.
type phaseStats struct {
	elapsed   time.Duration
	ops, hits int
	lat       []sample
}

type runner struct {
	cfg     config
	inst    *instance
	streams []*stream
	hashes  map[string][32]byte
	cs      []*clientState
}

// measure runs one phase and collects what it measured.
func (r *runner) measure(dur time.Duration, traced bool) phaseStats {
	before := make([]clientState, len(r.cs))
	for c, cs := range r.cs {
		before[c] = *cs
	}
	ps := phaseStats{elapsed: r.phase(dur, traced)}
	for c, cs := range r.cs {
		ps.ops += cs.ops - before[c].ops
		ps.hits += cs.hits - before[c].hits
		ps.lat = append(ps.lat, cs.lat[len(before[c].lat):]...)
	}
	return ps
}

// phase runs the closed loop for dur: each client issues its next
// operation as soon as the previous one returns.
func (r *runner) phase(dur time.Duration, traced bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range r.cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := r.cs[c]
			for time.Now().Before(deadline) {
				cs.next++
				r.do(cs, int64(c)<<32|int64(cs.next), r.streams[c].next(), traced)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// do executes one operation and records its latency and outcome.
func (r *runner) do(cs *clientState, id int64, o op, traced bool) {
	cs.ops++
	store := r.inst.store
	if o.kind == opWrite {
		t0 := time.Now()
		_, err := store.ApplyUpdate(o.text)
		t1 := time.Now()
		cs.lat = append(cs.lat, sample{o.class, true, ms(t1.Sub(t0))})
		if err != nil {
			cs.failed++
			fmt.Fprintf(os.Stderr, "update failed: %v\n", err)
			return
		}
		cs.acked = append(cs.acked, o)
		if traced {
			cs.tracedWrites++
			cs.rec.add("store.update", id, -1, t0, t1)
			if n := store.DeltaSize(); n > cs.deltaMax {
				cs.deltaMax = n
			}
			if ws := store.WALStats(); ws.Compactions != cs.lastCompactions {
				cs.lastCompactions = ws.Compactions
				cs.compactionMS = append(cs.compactionMS, ws.CompactionLastMS)
			}
		}
		return
	}
	cs.reads++
	cs.seen[o.text] = true
	if r.cfg.overHTTP() {
		t0 := time.Now()
		body, hit, err := httpQuery(r.inst.base, o.text)
		t1 := time.Now()
		if hit {
			cs.hits++
		}
		cs.lat = append(cs.lat, sample{o.class, false, ms(t1.Sub(t0))})
		if err != nil {
			cs.failed++
			fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
		} else if want, ok := r.hashes[o.text]; !ok || sha256.Sum256(body) != want {
			cs.failed++
		}
		if traced {
			cs.rec.add("http.request", id, -1, t0, t1)
			cs.traced = append(cs.traced, tracedOp{cs, id, o.text, hit})
		}
		return
	}
	var lat time.Duration
	var err error
	if traced {
		lat, err = r.direct(cs, id, o.text)
	} else {
		t0 := time.Now()
		_, err = store.QueryContext(context.Background(), o.text)
		lat = time.Since(t0)
	}
	cs.lat = append(cs.lat, sample{o.class, false, ms(lat)})
	if err != nil {
		cs.failed++
		fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
	}
}

// direct runs one read as direct calls into each layer, each wrapped in a
// span: sparql.Parse, the algebra rewrite (FromQuery, NormalizeUNF and
// BuildGoSN per branch), Store.QueryContext with its engine stages, and a
// JSON serialization of the rows. It returns the query call's latency.
func (r *runner) direct(cs *clientState, id int64, text string) (time.Duration, error) {
	rec := cs.rec
	t0 := time.Now()
	root := rec.add("direct", id, -1, t0, t0)
	q, err := sparql.Parse(text)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	rec.add("sparql.parse", id, root, t0, t1)
	tree, err := algebra.FromQuery(q)
	if err != nil {
		return 0, err
	}
	branches, err := algebra.NormalizeUNF(tree)
	if err != nil {
		return 0, err
	}
	for _, b := range branches {
		if _, err := algebra.BuildGoSN(b.Tree); err != nil {
			return 0, err
		}
	}
	t2 := time.Now()
	rec.add("algebra.rewrite", id, root, t1, t2)
	res, err := r.inst.store.QueryContext(context.Background(), text)
	if err != nil {
		return 0, err
	}
	t3 := time.Now()
	qs := rec.add("store.query", id, root, t2, t3)
	at := t2
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{{"engine.init", res.Stats.Init}, {"engine.prune", res.Stats.Prune}, {"engine.join", res.Stats.Join}, {"engine.merge", res.Stats.Merge}} {
		rec.add(stage.name, id, qs, at, at.Add(stage.d))
		at = at.Add(stage.d)
	}
	cw := &countingWriter{}
	w := results.NewWriter(results.JSON, cw)
	if err := w.Begin(res.Vars); err != nil {
		return 0, err
	}
	for _, row := range res.Rows() {
		if err := w.Row(row); err != nil {
			return 0, err
		}
	}
	if err := w.End(); err != nil {
		return 0, err
	}
	t4 := time.Now()
	rec.add("results.serialize", id, root, t3, t4)
	rec.spans[root].End = int64(t4.Sub(rec.origin))

	cs.tracedReads++
	cs.serBytes += cw.n
	cs.rows += int64(res.Len())
	cs.initialTriples += res.Stats.InitialTriples
	cs.afterPrune += res.Stats.AfterPruning
	return t3.Sub(t2), nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// fillOverlay prepares mixed-rw's final checks. The background compactor
// folds the delta into the base soon after the writes stop, so the checks
// would read only a freshly compacted base. fillOverlay compacts, then
// applies overlayWrites more updates from each client's stream, which stay
// in the overlay: the checks then read through both.
func (r *runner) fillOverlay() error {
	if err := r.inst.store.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	for c, cs := range r.cs {
		for range overlayWrites {
			o := r.streams[c].nextWrite()
			cs.ops++
			if _, err := r.inst.store.ApplyUpdate(o.text); err != nil {
				cs.failed++
				fmt.Fprintf(os.Stderr, "update failed: %v\n", err)
				continue
			}
			cs.acked = append(cs.acked, o)
		}
	}
	return nil
}
