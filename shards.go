package lbr

import (
	"context"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// In-process store sharding. With Options.Shards = N >= 2 the store owns,
// next to the merged base index every existing path runs against, N
// subject-hash shard indexes built over the same global dictionary. A
// query whose shape the planner proves shardable (a subject-star: every
// triple pattern, OPTIONAL slaves included, shares one subject variable)
// executes independently on every shard and the per-shard results
// concatenate in shard order — the same deterministic merge discipline as
// the UNION branch merge — before the solution modifiers are applied once
// over the merged rows. Everything else (non-shardable joins, EXPLAIN,
// the relational baseline, SaveIndex) falls back to the merged index,
// which is byte-identical to what an unsharded store builds, so the
// fallback preserves today's semantics and row order exactly.
//
// Updates route through the store's net delta as before; each shard
// lazily overlays the slice of the delta its subject hash owns, so a
// mutation invalidates the per-shard snapshots wholesale and the next
// shardable query rebuilds N small overlays instead of one big one.

// shardState holds the per-shard half of a sharded store. All fields are
// guarded by the Store mutex; srcs/engs are immutable snapshots once
// installed (valid == true) and are retired wholesale whenever the store
// starts a new generation.
type shardState struct {
	n      int
	caches []*engine.MatCache // one per shard, live for the store's lifetime
	bases  []*bitmat.Index    // per-shard compacted bases over the global dict
	srcs   []bitmat.Source    // per-shard snapshots (base or base+delta overlay)
	engs   []*engine.Engine
	valid  bool // srcs/engs cover the current generation
}

func newShardState(opts Options) *shardState {
	n := opts.EffectiveShards()
	if n < 2 {
		return nil
	}
	sh := &shardState{n: n, caches: make([]*engine.MatCache, n)}
	per := opts.EffectiveCacheBudget() / int64(n)
	for i := range sh.caches {
		sh.caches[i] = engine.NewMatCache(per)
	}
	return sh
}

// invalidateShardsLocked retires the per-shard snapshots so the next
// shardable query rebuilds them from the current base + delta. The caller
// holds mu. installSourceLocked does this on every generation change; the
// explicit call sites are the error paths that drop the merged snapshot
// without starting a new generation.
func (s *Store) invalidateShardsLocked() {
	if s.shards != nil {
		s.shards.srcs, s.shards.engs, s.shards.valid = nil, nil, false
	}
}

// shardEngineOptions is the per-shard engine configuration: the ablation
// switches pass through, and the worker budget is the store pool divided
// across the shards that run concurrently, so a scatter-gather query never
// oversubscribes Options.Workers.
func (s *Store) shardEngineOptions() engine.Options {
	eo := s.opts.engineOptions()
	w := eo.EffectiveWorkers()
	conc := s.shards.n
	if conc > w {
		conc = w
	}
	inner := w / conc
	if inner < 1 {
		inner = 1
	}
	eo.Workers = inner
	return eo
}

// buildShardedLocked is the sharded Build: one global dictionary over the
// whole graph, one index per subject-hash partition, and the k-way merged
// index — deeply identical to an unsharded build — installed as the base
// every fallback path queries. The caller holds mu.
func (s *Store) buildShardedLocked() error {
	merged, bases, err := buildShardedState(s.graph.Triples(), s.shards.n, s.opts.EffectiveWorkers())
	if err != nil {
		return err
	}
	s.shards.bases = bases
	s.installIndexLocked(merged)
	return nil
}

// buildShardedState builds the per-shard indexes and their merged view for
// one triple snapshot. It runs without the store lock (compaction calls it
// in the background).
func buildShardedState(triples []Triple, nShards, workers int) (*bitmat.Index, []*bitmat.Index, error) {
	dict := rdf.BuildDictionaryParallel(triples, workers)
	parts := rdf.PartitionBySubject(triples, nShards)
	bases := make([]*bitmat.Index, len(parts))
	for i, part := range parts {
		idx, err := bitmat.BuildParallelWithDictionary(part, dict, workers)
		if err != nil {
			return nil, nil, err
		}
		bases[i] = idx
	}
	merged, err := bitmat.MergeIndexes(dict, bases)
	if err != nil {
		return nil, nil, err
	}
	return merged, bases, nil
}

// ensureShardEnginesLocked returns one engine per shard covering the
// current generation, (re)building the per-shard delta overlays when a
// mutation invalidated them. The caller holds mu.
func (s *Store) ensureShardEnginesLocked() ([]*engine.Engine, error) {
	if _, _, err := s.ensureSnapshotLocked(); err != nil {
		return nil, err
	}
	sh := s.shards
	if sh.valid {
		return sh.engs, nil
	}
	if sh.bases == nil {
		// The store was loaded from a merged snapshot (OpenIndex) — derive
		// the shard bases from the base index once, over its dictionary.
		bases, err := shardBases(s.base, sh.n, s.opts.EffectiveWorkers())
		if err != nil {
			return nil, err
		}
		sh.bases = bases
	}
	insParts := rdf.PartitionBySubject(sortedTriples(s.ins), sh.n)
	delParts := rdf.PartitionBySubject(sortedTriples(s.del), sh.n)
	srcs := make([]bitmat.Source, sh.n)
	engs := make([]*engine.Engine, sh.n)
	eo := s.shardEngineOptions()
	for i, base := range sh.bases {
		var src bitmat.Source = base
		if len(insParts[i]) > 0 || len(delParts[i]) > 0 {
			ov, err := bitmat.NewOverlay(base, insParts[i], delParts[i])
			if err != nil {
				return nil, err
			}
			src = ov
		}
		srcs[i] = src
		engs[i] = engine.NewWithCache(src, eo, sh.caches[i].Advance(s.gen))
	}
	sh.srcs, sh.engs, sh.valid = srcs, engs, true
	return engs, nil
}

// ensureShardEngines is ensureShardEnginesLocked behind the fast path of
// an already-valid snapshot.
func (s *Store) ensureShardEngines() ([]*engine.Engine, error) {
	s.mu.RLock()
	if s.shards.valid {
		engs := s.shards.engs
		s.mu.RUnlock()
		return engs, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureShardEnginesLocked()
}

// shardBases partitions the triples of a built index into per-shard
// indexes over the index's own dictionary (the OpenIndex path, where no
// raw triple snapshot exists).
func shardBases(base *bitmat.Index, nShards, workers int) ([]*bitmat.Index, error) {
	parts := rdf.PartitionBySubject(indexTriples(base), nShards)
	bases := make([]*bitmat.Index, len(parts))
	for i, part := range parts {
		idx, err := bitmat.BuildParallelWithDictionary(part, base.Dictionary(), workers)
		if err != nil {
			return nil, err
		}
		bases[i] = idx
	}
	return bases, nil
}

// indexTriples decodes every triple a built index holds, in per-predicate
// (S,O) order.
func indexTriples(idx *bitmat.Index) []Triple {
	dict := idx.Dictionary()
	out := make([]Triple, 0, idx.NumTriples())
	for p := 1; p <= dict.NumPredicates(); p++ {
		pred, err := dict.Predicate(rdf.ID(p))
		if err != nil {
			continue
		}
		for _, pair := range idx.SOPairs(rdf.ID(p)) {
			sTerm, err := dict.Subject(rdf.ID(pair.A))
			if err != nil {
				continue
			}
			oTerm, err := dict.Object(rdf.ID(pair.B))
			if err != nil {
				continue
			}
			out = append(out, Triple{S: sTerm, P: pred, O: oTerm})
		}
	}
	return out
}

// shardableQuery reports whether the parsed query is a subject-star the
// scatter-gather path may execute per shard (see planner.Shardable). A
// query it rejects — or one whose normalization errors — takes the merged
// fallback path, which also surfaces the error the engine would report.
func shardableQuery(q *sparql.Query) bool {
	tree, err := algebra.FromQuery(q)
	if err != nil {
		return false
	}
	branches, err := algebra.NormalizeUNF(tree)
	if err != nil {
		return false
	}
	_, ok := planner.Shardable(branches)
	return ok
}

// ShardableQuery reports whether the query text is a subject-star that a
// sharded store executes per shard via scatter-gather (false for queries
// that fall back to the merged index, and for unparseable input). It is a
// pure function of the query — the store's shard count does not enter.
func ShardableQuery(src string) bool {
	q, err := sparql.Parse(src)
	if err != nil {
		return false
	}
	return shardableQuery(q)
}

// stripModifiers returns a copy of q with the solution modifiers removed:
// the per-shard runs must produce full, unprojected bindings so the
// coordinator can apply ORDER BY / projection / DISTINCT / LIMIT / OFFSET
// once over the merged rows.
func stripModifiers(q *sparql.Query) *sparql.Query {
	probe := *q
	probe.Select = nil // SELECT *
	probe.Distinct = false
	probe.OrderBy = nil
	probe.Limit, probe.Offset = -1, -1
	return &probe
}

// runPerShard runs fn(i) for every shard, at most conc at a time. The
// first error by shard order wins, matching sequential execution. A
// panicking fn is recovered on its worker goroutine; the other shards
// still run, and after all have finished the first panic's value is
// panicked again on the calling goroutine, so a shard fault cannot crash
// the process from a goroutine no caller can recover.
func runPerShard(n, conc int, fn func(i int) error) error {
	errs := make([]error, n)
	if conc < 2 || n < 2 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		sem := make(chan struct{}, conc)
		var (
			wg        sync.WaitGroup
			panicOnce sync.Once
			panicVal  any
		)
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicVal = r })
					}
				}()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryShardedContext executes a shardable query per shard and merges the
// results in shard order. handled reports whether the scatter path applied;
// when false the caller must fall back to the merged engine.
//
// sp, when non-nil, receives the scatter-gather span tree: a
// "shard-engines" child timing the per-shard snapshot (re)build — the
// overlay merge cost a mutation leaves behind — one "shard" child per
// shard (created in shard order before dispatch, so its duration is the
// scatter latency the coordinator observes, queue wait included), and a
// "merge" child covering the shard-order concatenation plus the solution
// modifiers.
func (s *Store) queryShardedContext(ctx context.Context, q *sparql.Query, sp *trace.Span) (*engine.Result, bool, error) {
	if s.shards == nil || !shardableQuery(q) {
		return nil, false, nil
	}
	var esp *trace.Span
	if sp != nil {
		sp.Set("sharded", true)
		sp.Set("shards", s.shards.n)
		esp = sp.Child("shard-engines")
	}
	engs, err := s.ensureShardEngines()
	esp.End()
	if err != nil {
		return nil, true, err
	}
	probe := stripModifiers(q)
	results := make([]*engine.Result, len(engs))
	spans := make([]*trace.Span, len(engs))
	if sp != nil {
		for i := range spans {
			spans[i] = sp.Child("shard")
			spans[i].Set("shard", i)
		}
	}
	conc := len(engs)
	if w := s.opts.EffectiveWorkers(); conc > w {
		conc = w
	}
	err = runPerShard(len(engs), conc, func(i int) error {
		r, err := engs[i].ExecuteTraceContext(ctx, probe, spans[i])
		results[i] = r
		if ssp := spans[i]; ssp != nil {
			if r != nil {
				ssp.Set("rows", len(r.Rows))
			}
			ssp.End()
		}
		return err
	})
	if err != nil {
		return nil, true, err
	}
	// Deterministic scatter-gather merge: shard-order concatenation, the
	// same discipline as the UNION branch merge. The column set is a pure
	// function of the query (the sorted branch variable union), so every
	// shard agrees on it.
	tMerge := time.Now()
	var msp *trace.Span
	if sp != nil {
		msp = sp.Child("merge")
	}
	merged := &engine.Result{Vars: results[0].Vars}
	for _, r := range results {
		merged.Rows = append(merged.Rows, r.Rows...)
		merged.Stats.Init += r.Stats.Init
		merged.Stats.Prune += r.Stats.Prune
		merged.Stats.Join += r.Stats.Join
		merged.Stats.Merge += r.Stats.Merge
		merged.Stats.Total += r.Stats.Total
		merged.Stats.InitialTriples += r.Stats.InitialTriples
		merged.Stats.AfterPruning += r.Stats.AfterPruning
		merged.Stats.BestMatch = merged.Stats.BestMatch || r.Stats.BestMatch
		merged.Stats.EmptyShortcut = merged.Stats.EmptyShortcut || r.Stats.EmptyShortcut
	}
	merged.Stats.NullResults = 0
	for _, r := range merged.Rows {
		if r.NullCount() > 0 {
			merged.Stats.NullResults++
		}
	}
	merged.ApplyModifiers(q)
	merged.Stats.Merge += time.Since(tMerge)
	if msp != nil {
		msp.Set("rows", len(merged.Rows))
		msp.End()
	}
	return merged, true, nil
}

// askShardedContext evaluates an ASK per shard with early stop. handled
// reports whether the scatter path applied.
func (s *Store) askShardedContext(ctx context.Context, q *sparql.Query) (found, handled bool, err error) {
	if s.shards == nil || !shardableQuery(q) {
		return false, false, nil
	}
	engs, err := s.ensureShardEngines()
	if err != nil {
		return false, true, err
	}
	for _, eng := range engs {
		ok, err := eng.AskContext(ctx, q)
		if err != nil {
			return false, true, err
		}
		if ok {
			return true, true, nil
		}
	}
	return false, true, nil
}

// streamShardedContext streams a shardable query shard by shard, in shard
// order, applying LIMIT/OFFSET inline at the coordinator. It applies only
// when the coordinator-level modifiers permit streaming (SELECT *, no
// DISTINCT, no ORDER BY — mirroring the engine's own streamable test);
// handled reports whether it ran. The per-shard enumerations may
// internally materialize (best-match shapes); their replay order is
// deterministic either way.
//
// st, when non-nil, accumulates the per-shard stage timings (Total sums
// the shard wall clocks; the caller owns the end-to-end wall clock). sp,
// when non-nil, grows one sequential "shard" child per shard streamed.
func (s *Store) streamShardedContext(ctx context.Context, q *sparql.Query, header func([]sparql.Var) bool, fn func([]sparql.Var, engine.Row) bool, st *engine.Stats, sp *trace.Span) (bool, error) {
	if s.shards == nil || !q.SelectAll() || q.Distinct || len(q.OrderBy) > 0 || !shardableQuery(q) {
		return false, nil
	}
	var esp *trace.Span
	if sp != nil {
		sp.Set("sharded", true)
		sp.Set("shards", s.shards.n)
		sp.Set("streamed", true)
		esp = sp.Child("shard-engines")
	}
	engs, err := s.ensureShardEngines()
	esp.End()
	if err != nil {
		return true, err
	}
	probe := stripModifiers(q)
	skip := q.Offset
	remaining := q.Limit // negative = unlimited
	stopped := false
	wrapped := func(vs []sparql.Var, row engine.Row) bool {
		if skip > 0 {
			skip--
			return true
		}
		if remaining == 0 {
			stopped = true
			return false
		}
		if !fn(vs, row) {
			stopped = true
			return false
		}
		if remaining > 0 {
			if remaining--; remaining == 0 {
				stopped = true
				return false
			}
		}
		return true
	}
	for i, eng := range engs {
		var ssp *trace.Span
		if sp != nil {
			ssp = sp.Child("shard")
			ssp.Set("shard", i)
		}
		var shardStats engine.Stats
		var pst *engine.Stats
		if st != nil {
			pst = &shardStats
		}
		hdr := (func([]sparql.Var) bool)(nil)
		headerOK := true
		if i == 0 && header != nil {
			hdr = func(vs []sparql.Var) bool {
				headerOK = header(vs)
				return headerOK
			}
		}
		err := eng.ExecuteStreamObserved(ctx, probe, hdr, wrapped, pst, ssp)
		if st != nil {
			accumulateStats(st, &shardStats)
		}
		ssp.End()
		if !headerOK || err != nil {
			return true, err
		}
		if stopped {
			return true, nil
		}
		if err := ctx.Err(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// accumulateStats folds one shard's stage timings and counters into the
// coordinator's aggregate, the same discipline as the scatter-gather merge
// above (Total sums shard wall clocks; the caller overwrites it with the
// end-to-end wall clock when it owns one).
func accumulateStats(dst, src *engine.Stats) {
	dst.Init += src.Init
	dst.Prune += src.Prune
	dst.Join += src.Join
	dst.Merge += src.Merge
	dst.Total += src.Total
	dst.InitialTriples += src.InitialTriples
	dst.AfterPruning += src.AfterPruning
	dst.Results += src.Results
	dst.NullResults += src.NullResults
	dst.BestMatch = dst.BestMatch || src.BestMatch
	dst.EmptyShortcut = dst.EmptyShortcut || src.EmptyShortcut
}

// ShardInfo describes one shard for operators (the /metrics "shards"
// section): its triple count, the snapshot generation its current engine
// covers, and its materialization-cache counters. Skewed Triples across
// shards signal a partition imbalance.
type ShardInfo struct {
	Shard      int        `json:"shard"`
	Triples    int64      `json:"triples"`
	Generation uint64     `json:"generation"`
	Cache      CacheStats `json:"cache"`
}

// ShardStats reports per-shard statistics without forcing a build: shards
// whose snapshot is not yet (re)materialized report the triples of their
// last compacted base. It returns nil for an unsharded store.
func (s *Store) ShardStats() []ShardInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.shards == nil {
		return nil
	}
	out := make([]ShardInfo, s.shards.n)
	for i := range out {
		out[i] = ShardInfo{Shard: i, Cache: s.shards.caches[i].Stats()}
		if s.shards.valid {
			out[i].Triples = s.shards.srcs[i].NumTriples()
			out[i].Generation = s.gen
		} else if s.shards.bases != nil {
			out[i].Triples = s.shards.bases[i].NumTriples()
		}
	}
	return out
}

// Shards reports the shard count the store runs with (1 = unsharded).
func (s *Store) Shards() int {
	if s.shards == nil {
		return 1
	}
	return s.shards.n
}
