// Command perfbench is the repository's benchmark: one closed-loop run of
// one workload against the LBR store, with answer and durability checks.
// See README.md for the workloads and the metrics, and run.sh for how it
// is built and invoked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var commit string
	flag.StringVar(&cfg.workload, "workload", "", "bulk-optional, lookup-zipf or mixed-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for WAL files and span dumps")
	flag.StringVar(&commit, "commit", "none", "source revision, for provenance")
	flag.Parse()
	cfg.trace = traceFlag == 1
	switch cfg.workload {
	case "bulk-optional", "lookup-zipf", "mixed-rw":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(cfg, commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config, commit string) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	began := time.Now()
	step := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-10s done at %6.2fs\n", what, time.Since(began).Seconds())
	}
	d, err := newDataset()
	if err != nil {
		return nil, err
	}
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(d, cfg.workload, cfg.seed, c)
	}

	out := &result{Metrics: map[string]metric{}}
	show := map[string]metric{} // every metric the run measured, printed by name
	put := func(name, unit string, v float64) { show[name] = metric{v, unit} }

	// Set up `setups` times; the last instance answers the checks and then
	// serves the timed phase, so it starts with its caches primed by every
	// distinct read of the workload.
	var times []setupTime
	var inst *instance
	var indexBytes int64
	for n := 0; n < setups; n++ {
		in, st, err := setUp(cfg, d, n)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, st)
		step(fmt.Sprintf("setup %d (load %.3fs, build %.3fs, total %.3fs)", n, st.load.Seconds(), st.build.Seconds(), st.total.Seconds()))
		if n == setups-1 {
			inst = in
			break
		}
		if n == 0 && cfg.trace {
			sz, err := in.store.IndexSizes()
			if err != nil {
				in.close()
				return nil, err
			}
			indexBytes = sz.HybridBytes()
		}
		if err := in.close(); err != nil {
			return nil, err
		}
	}
	setupPeak := procStatusMB("VmHWM")
	checksBegan := time.Now()
	hashes, rep, err := checkAnswers(cfg, d, inst)
	if err != nil {
		inst.close()
		return nil, err
	}
	checksTime := time.Since(checksBegan)
	step("checks")
	out.Attempted, out.Failed = rep.distinct, rep.mismatches

	r := &runner{cfg: cfg, inst: inst, streams: streams, hashes: hashes, cs: make([]*clientState, clients)}
	origin := time.Now()
	for c := range r.cs {
		r.cs[c] = &clientState{rec: &recorder{origin: origin, client: c}, seen: map[string]bool{}}
	}

	runtime.GC()
	debug.FreeOSMemory()
	sampler := startRSSSampler(20*time.Millisecond, time.Second)
	r.phase(warmup, false)
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		m := r.measure(total, false)
		put("ops_per_s", "1/s", float64(m.ops)/m.elapsed.Seconds())
		putLatencies(put, m.lat)
		fmt.Printf("samples reads=%d updates=%d\n", count(m.lat, false), count(m.lat, true))
	} else {
		if err := r.tracedRun(total, put); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s.jsonl", cfg.workload))
		if err := writeSpans(path, r.recorders()); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	put("peak_rss_mb", "MB", sampler.finish())
	step("measure")

	// Final-state and durability checks.
	if cfg.workload == "mixed-rw" {
		if err := r.fillOverlay(); err != nil {
			return nil, err
		}
		var acked [][]op
		for _, cs := range r.cs {
			acked = append(acked, cs.acked)
		}
		checks, failed, err := checkFinalState(d, inst, acked, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.Attempted += checks
		out.Failed += failed
		step("final")
	}
	for _, cs := range r.cs {
		out.Attempted += cs.ops
		out.Failed += cs.failed
	}
	out.Correct = out.Failed == 0
	put("error_rate", "ratio", float64(out.Failed)/float64(out.Attempted))

	loads, builds, totals := make([]float64, 0, setups), make([]float64, 0, setups), make([]float64, 0, setups)
	heap := make([]float64, 0, setups)
	for _, st := range times {
		loads = append(loads, st.load.Seconds())
		builds = append(builds, st.build.Seconds())
		totals = append(totals, st.total.Seconds())
		heap = append(heap, float64(st.heapBytes))
	}
	put("setup_s", "s", quantile(totals, 0.5))
	put("rdf.load_s", "s", quantile(loads, 0.5))
	put("bitmat.build_s", "s", quantile(builds, 0.5))
	put("heap_bytes_per_triple", "bytes", quantile(heap, 0.5)/float64(d.graph.Len()))
	put("bitmat.index_bytes", "bytes", float64(indexBytes))
	put("setup_peak_rss_mb", "MB", setupPeak)

	// Provenance, then every measured metric by name, then the result.
	prov := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": inst.store.Options().EffectiveWorkers(), "clients": clients,
		"go_version": runtime.Version(), "triples": d.graph.Len(), "universities": universities, "commit": commit,
		"checks_distinct_queries": rep.distinct, "checks_ref": rep.refChecked, "checks_baseline": rep.baselineChecked,
		"checks_s": checksTime.Seconds(), "repeat_share": r.repeatShare(),
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	names := make([]string, 0, len(show))
	for n := range show {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6f %s\n", n, show[n].Value, show[n].Unit)
	}
	keep := endToEnd
	if cfg.trace {
		keep = perLayer
	}
	for _, n := range keep {
		m, ok := show[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	if err := inst.close(); err != nil {
		return nil, err
	}
	return out, nil
}
