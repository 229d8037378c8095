package main

import (
	"os"
	"runtime"
	"time"
)

// endToEnd and perLayer name the metrics the result line carries with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var endToEnd = []string{
	"setup_s", "ops_per_s", "read_p50_ms", "read_p90_ms", "peak_rss_mb",
}

var perLayer = []string{
	"rdf.load_s", "bitmat.build_s", "bitmat.index_bytes", "heap_bytes_per_triple", "setup_peak_rss_mb",
	"sparql.parse_us", "algebra.rewrite_us",
	"engine.init_ms", "engine.prune_ms", "engine.join_ms", "engine.merge_ms",
	"engine.prune_keep_ratio", "engine.rows_per_op",
	"matcache.hit_ratio", "matcache.evictions", "matcache.invalidations", "matcache.bytes_used",
	"results.serialize_ms", "results.bytes_per_op",
	"server.overhead_ms", "server.result_cache_hit_ratio", "server.rejected", "server.stage_engine_ms",
	"update_p50_ms", "update_p90_ms",
	"store.update_ms", "store.delta_size_max", "wal.bytes_per_update", "store.compactions", "store.compaction_ms",
	"gc.pause_ms_per_op", "alloc_bytes_per_op", "allocs_per_op",
	"unattributed_ms", "trace.overhead_pct", "error_rate",
}

// serverCounters are the server-side counters a traced run reads at the
// edges of its windows: the rejection count and the stage histograms'
// engine time (init+prune+join+merge), which cross-checks the engine
// time the direct calls measure.
type serverCounters struct {
	rejected   int64
	engineMS   float64
	stageCount int64
}

func readServerCounters(inst *instance) serverCounters {
	if inst.srv == nil {
		return serverCounters{}
	}
	snap := inst.srv.Metrics().Snapshot()
	sc := serverCounters{rejected: snap.Rejected}
	for _, st := range snap.StageLatency {
		switch st.Stage {
		case "init", "prune", "join", "merge":
			sc.engineMS += st.SumMS
			sc.stageCount = st.Count
		}
	}
	return sc
}

// tracedRun measures the per-layer metrics: half the run untraced (the
// baseline for trace.overhead_pct and the window for the update latencies
// and the runtime, cache and server counters), half traced (the spans),
// then, for the HTTP workloads, the replay of a sample of the traced
// requests.
func (r *runner) tracedRun(total time.Duration, put func(name, unit string, v float64)) error {
	inst := r.inst
	half := total / 2

	var m0, m1 runtime.MemStats
	c0, s0 := inst.store.CacheStats(), readServerCounters(inst)
	runtime.ReadMemStats(&m0)
	u := r.measure(half, false)
	runtime.ReadMemStats(&m1)
	c1, s1 := inst.store.CacheStats(), readServerCounters(inst)

	putLatencies(put, u.lat)
	ops := float64(max(u.ops, 1))
	put("gc.pause_ms_per_op", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/ops)
	put("alloc_bytes_per_op", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	put("allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/ops)
	lookups := c1.Hits - c0.Hits + c1.Misses - c0.Misses
	put("matcache.hit_ratio", "ratio", float64(c1.Hits-c0.Hits)/float64(max(lookups, 1)))
	put("matcache.evictions", "count", float64(c1.Evictions-c0.Evictions))
	put("matcache.invalidations", "count", float64(c1.Invalidations-c0.Invalidations))
	put("matcache.bytes_used", "bytes", float64(c1.BytesUsed))
	put("server.result_cache_hit_ratio", "ratio", 0)
	if r.cfg.overHTTP() {
		put("server.result_cache_hit_ratio", "ratio", float64(u.hits)/float64(max(count(u.lat, false), 1)))
	}
	put("server.stage_engine_ms", "ms", 0)
	if n := s1.stageCount - s0.stageCount; n > 0 {
		put("server.stage_engine_ms", "ms", (s1.engineMS-s0.engineMS)/float64(n))
	}

	walSize0 := fileSize(inst.walPath)
	comp0 := inst.store.WALStats().Compactions
	t := r.measure(total-half, true)
	if err := r.replay(); err != nil {
		return err
	}
	s2 := readServerCounters(inst)
	put("server.rejected", "count", float64(s2.rejected-s0.rejected))
	put("store.compactions", "count", float64(inst.store.WALStats().Compactions-comp0))

	var agg clientState
	hitOps := map[int64]bool{}
	var spans []span
	for _, cs := range r.cs {
		spans = append(spans, cs.rec.spans...)
		agg.tracedReads += cs.tracedReads
		agg.tracedWrites += cs.tracedWrites
		agg.serBytes += cs.serBytes
		agg.rows += cs.rows
		agg.initialTriples += cs.initialTriples
		agg.afterPrune += cs.afterPrune
		agg.deltaMax = max(agg.deltaMax, cs.deltaMax)
		agg.compactionMS = append(agg.compactionMS, cs.compactionMS...)
		for _, t := range cs.traced {
			hitOps[t.id] = t.hit
		}
	}
	put("store.delta_size_max", "count", float64(agg.deltaMax))
	put("store.compaction_ms", "ms", mean(agg.compactionMS))
	put("wal.bytes_per_update", "bytes", 0)
	if agg.tracedWrites > 0 {
		put("wal.bytes_per_update", "bytes", float64(fileSize(inst.walPath)-walSize0)/float64(agg.tracedWrites))
	}
	// Throughput lost to tracing: the untraced half's ops_per_s over the
	// traced half's. The HTTP replay runs after both halves and is not in
	// it; drift between the halves is.
	untraced := float64(u.ops) / u.elapsed.Seconds()
	traced := float64(t.ops) / t.elapsed.Seconds()
	put("trace.overhead_pct", "%", 100*(untraced/traced-1))
	spanMetrics(put, spans, hitOps, &agg)
	return nil
}

// spanMetrics turns the traced half's spans into per-operation layer
// times. Layer times are means per traced read (per traced update for
// store.update_ms), so they add up to the mean operation.
func spanMetrics(put func(name, unit string, v float64), spans []span, hitOps map[int64]bool, agg *clientState) {
	self := selfTimes(spans)
	reads := float64(max(agg.tracedReads, 1))
	perRead := func(name string) float64 { return ms(self[name]) / reads }
	put("sparql.parse_us", "us", perRead("sparql.parse")*1000)
	put("algebra.rewrite_us", "us", perRead("algebra.rewrite")*1000)
	for _, st := range []string{"init", "prune", "join", "merge"} {
		put("engine."+st+"_ms", "ms", perRead("engine."+st))
	}
	put("engine.prune_keep_ratio", "ratio", float64(agg.afterPrune)/float64(max(agg.initialTriples, 1)))
	put("engine.rows_per_op", "rows", float64(agg.rows)/reads)
	put("results.serialize_ms", "ms", perRead("results.serialize"))
	put("results.bytes_per_op", "bytes", float64(agg.serBytes)/reads)
	put("store.update_ms", "ms", ms(self["store.update"])/float64(max(agg.tracedWrites, 1)))
	// The direct pipeline's own time and the query call's time outside
	// the engine stages (its internal parse, rewrite, planning and row
	// materialization) are covered by no layer span.
	put("unattributed_ms", "ms", perRead("direct")+perRead("store.query"))

	// server.overhead_ms: HTTP latency minus the engine and serializer
	// time the server spent on the request, estimated by the direct
	// calls; a result-cache replay spent none.
	type parts struct {
		http, query, ser time.Duration
		replayed         bool
	}
	byOp := map[int64]*parts{}
	for _, s := range spans {
		switch s.Name {
		case "http.request", "direct", "store.query", "results.serialize":
		default:
			continue
		}
		p := byOp[s.Op]
		if p == nil {
			p = &parts{}
			byOp[s.Op] = p
		}
		switch {
		case s.Name == "http.request":
			p.http = s.dur()
		case s.Name == "direct":
			p.replayed = true
		case hitOps[s.Op]:
		case s.Name == "store.query":
			p.query = s.dur()
		default:
			p.ser = s.dur()
		}
	}
	var over []float64
	for _, p := range byOp {
		if p.http > 0 && p.replayed {
			over = append(over, ms(p.http-p.query-p.ser))
		}
	}
	put("server.overhead_ms", "ms", mean(over))
}

func (r *runner) recorders() []*recorder {
	out := make([]*recorder, len(r.cs))
	for c, cs := range r.cs {
		out[c] = cs.rec
	}
	return out
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// repeatShare is the share of the run's reads that repeated a query some
// client had already issued: the Zipf repeats the caches can serve.
func (r *runner) repeatShare() float64 {
	seen := map[string]bool{}
	reads := 0
	for _, cs := range r.cs {
		reads += cs.reads
		for q := range cs.seen {
			seen[q] = true
		}
	}
	return 1 - float64(len(seen))/float64(max(reads, 1))
}
