package lbr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
)

// shardTestTriples is the dataset of the store-level shard differential
// suite: enough distinct subjects that every shard of a 4-way partition is
// non-empty, with per-subject stars (type/linked/email/phone) for the
// scatter-gather path and cross-subject links for the fallback path.
func shardTestTriples() []Triple {
	var ts []Triple
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("s%d", i)
		ts = append(ts,
			TripleIRI(s, "type", fmt.Sprintf("class%d", i%3)),
			TripleIRI(s, "linked", fmt.Sprintf("s%d", (i+1)%40)))
		if i%2 == 0 {
			ts = append(ts, TripleIRI(s, "email", fmt.Sprintf("m%d", i)))
		}
		if i%3 == 0 {
			ts = append(ts, TripleIRI(s, "phone", fmt.Sprintf("t%d", i)))
		}
	}
	return ts
}

// shardProbes covers both execution paths of a sharded store. Shardable
// probes run scatter-gather (row order is shard-concatenation order, so
// they compare as multisets unless a total ORDER BY pins it); the rest
// take the merged-index fallback, which must be byte-identical to the
// unsharded store, row order included.
var shardProbes = []struct {
	id        string
	q         string
	shardable bool
	// exactOrder marks probes whose row order must match the unsharded
	// store exactly: every fallback probe, plus shardable probes whose
	// ORDER BY covers all projected columns.
	exactOrder bool
}{
	{id: "star", q: `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t }`, shardable: true},
	{id: "star-optional", q: `SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } }`, shardable: true},
	{id: "star-nested-optional", q: `SELECT * WHERE { ?s <linked> ?t . OPTIONAL { ?s <email> ?e . OPTIONAL { ?s <phone> ?p } } }`, shardable: true},
	{id: "star-filter", q: `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t . FILTER (?c != <class0>) }`, shardable: true},
	{id: "star-varpred", q: `SELECT * WHERE { ?s ?p <class0> }`, shardable: true},
	{id: "star-distinct", q: `SELECT DISTINCT ?c WHERE { ?s <type> ?c . ?s <email> ?e }`, shardable: true},
	{id: "star-orderby", q: `SELECT ?s ?e WHERE { ?s <email> ?e . ?s <type> <class0> } ORDER BY ?s ?e`, shardable: true, exactOrder: true},
	{id: "star-slice", q: `SELECT ?s ?c WHERE { ?s <type> ?c } ORDER BY ?s ?c OFFSET 5 LIMIT 10`, shardable: true, exactOrder: true},
	{id: "chain", q: `SELECT * WHERE { ?s <linked> ?t . ?t <email> ?e }`, exactOrder: true},
	{id: "scan", q: `SELECT * WHERE { ?s ?p ?o }`, exactOrder: true},
	{id: "const-subject", q: `SELECT * WHERE { <s0> ?p ?o }`, exactOrder: true},
	{id: "union", q: `SELECT * WHERE { { ?s <email> ?e } UNION { ?s <phone> ?e } }`, exactOrder: true},
}

func newShardTestStore(t *testing.T, shards, workers int) *Store {
	t.Helper()
	s := NewStoreWithOptions(Options{Shards: shards, Workers: workers})
	s.AddAll(shardTestTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunPerShardRepanicsOnCaller pins that a panicking shard fn surfaces
// as a panic on the calling goroutine, with the same value, only after
// every other shard fn has run to completion.
func TestRunPerShardRepanicsOnCaller(t *testing.T) {
	type boom struct{ shard int }
	for _, conc := range []int{2, 3, 8} {
		var done atomic.Int64
		panicked := make(chan struct{})
		fn := func(i int) error {
			if i == 1 {
				close(panicked)
				panic(boom{shard: i})
			}
			// Hold every other shard until the panic has happened, so
			// some are in flight while it unwinds.
			<-panicked
			done.Add(1)
			return nil
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = runPerShard(6, conc, fn)
			return nil
		}()
		if got != (boom{shard: 1}) {
			t.Fatalf("conc %d: recovered %v, want boom{1}", conc, got)
		}
		if n := done.Load(); n != 5 {
			t.Fatalf("conc %d: %d of 5 other shards finished before the re-panic", conc, n)
		}
	}
}

// TestShardQueryDifferential sweeps shard counts {1,2,4} x worker counts
// {1,2,4} over the probe workload, asserting every sharded store returns
// the unsharded store's row multiset — and its exact row order on the
// fallback path and under a total ORDER BY.
func TestShardQueryDifferential(t *testing.T) {
	base := newShardTestStore(t, 0, 2)
	for _, p := range shardProbes {
		if got := ShardableQuery(p.q); got != p.shardable {
			t.Errorf("probe %s: ShardableQuery=%v, want %v", p.id, got, p.shardable)
		}
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				s := newShardTestStore(t, shards, workers)
				for _, p := range shardProbes {
					got := sortedQueryRows(t, s, p.q)
					want := sortedQueryRows(t, base, p.q)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("probe %s: row multiset differs\n got %v\nwant %v", p.id, got, want)
					}
					if p.exactOrder {
						rs, err := s.Query(p.q)
						if err != nil {
							t.Fatal(err)
						}
						rb, err := base.Query(p.q)
						if err != nil {
							t.Fatal(err)
						}
						if rs.String() != rb.String() {
							t.Errorf("probe %s: row order differs\n got %s\nwant %s", p.id, rs.String(), rb.String())
						}
					}
				}
			})
		}
	}
}

// TestShardAskDifferential checks ASK agreement, including the early-stop
// per-shard probe on shardable shapes.
func TestShardAskDifferential(t *testing.T) {
	asks := []string{
		`ASK { ?s <type> <class1> }`,
		`ASK { ?s <email> ?e . ?s <phone> ?p }`,
		`ASK { ?s <type> <nosuch> }`,
		`ASK { ?s <linked> ?t . ?t <email> ?e }`,
		`ASK { <s3> <type> ?c }`,
	}
	base := newShardTestStore(t, 0, 2)
	for _, shards := range []int{1, 2, 4} {
		s := newShardTestStore(t, shards, 2)
		for _, q := range asks {
			want, err := base.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("shards=%d %s: got %v want %v", shards, q, got, want)
			}
		}
	}
}

// TestShardStreamingDifferential checks the scatter streaming path: the
// streamed rows of a sharded store must replay its own materialized result
// exactly (same scatter order), carry the header, and honor LIMIT/OFFSET
// applied at the coordinator.
func TestShardStreamingDifferential(t *testing.T) {
	queries := []string{
		`SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } }`,
		`SELECT * WHERE { ?s <type> ?c } OFFSET 3 LIMIT 7`,
		`SELECT * WHERE { ?s <linked> ?t . ?t <email> ?e }`, // fallback streaming
	}
	for _, shards := range []int{1, 2, 4} {
		s := newShardTestStore(t, shards, 2)
		for _, q := range queries {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var streamed [][]Term
			headers := 0
			err = s.QueryStreamRows(t.Context(), q, func(vars []string, row []Term) bool {
				if row == nil {
					headers++
					if len(vars) == 0 {
						t.Fatalf("shards=%d %s: empty header", shards, q)
					}
					return true
				}
				streamed = append(streamed, append([]Term(nil), row...))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if headers != 1 {
				t.Fatalf("shards=%d %s: %d header calls", shards, q, headers)
			}
			if len(streamed) != res.Len() {
				t.Fatalf("shards=%d %s: streamed %d rows, materialized %d", shards, q, len(streamed), res.Len())
			}
			for i, row := range streamed {
				want := res.Row(i)
				if len(row) != len(want) {
					t.Fatalf("shards=%d %s row %d: width %d vs %d", shards, q, i, len(row), len(want))
				}
				for k := range row {
					if row[k] != want[k] {
						t.Fatalf("shards=%d %s row %d col %d: %s vs %s", shards, q, i, k, row[k].String(), want[k].String())
					}
				}
			}
		}
	}
}

// TestShardUpdateDifferential drives one update stream through stores at
// shard counts {1,2,4} and the unsharded reference, comparing probe
// results after every op, across compaction, and after a save/load round
// trip of the compacted state.
func TestShardUpdateDifferential(t *testing.T) {
	ops := []string{
		`INSERT DATA { <s41> <type> <class0> . <s41> <email> <m41> }`,
		`DELETE DATA { <s0> <type> <class0> }`,
		`DELETE { ?s <email> ?e } INSERT { ?s <phone> ?e } WHERE { ?s <email> ?e . ?s <type> <class1> }`,
		`INSERT { ?s <knows> ?t } WHERE { ?s <linked> ?t }`,
		`DELETE WHERE { ?s <phone> ?o }`,
	}
	probes := []string{
		`SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } }`,
		`SELECT * WHERE { ?s <knows> ?t }`,
		`SELECT * WHERE { ?s ?p ?o }`,
	}
	for _, shards := range []int{1, 2, 4} {
		base := newShardTestStore(t, 0, 2)
		s := newShardTestStore(t, shards, 2)
		for i, op := range ops {
			if _, err := base.ApplyUpdate(op); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ApplyUpdate(op); err != nil {
				t.Fatal(err)
			}
			for _, q := range probes {
				got, want := sortedQueryRows(t, s, q), sortedQueryRows(t, base, q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("shards=%d op %d %q probe %s:\n got %v\nwant %v", shards, i, op, q, got, want)
				}
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		for _, q := range probes {
			got, want := sortedQueryRows(t, s, q), sortedQueryRows(t, base, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shards=%d post-compact probe %s:\n got %v\nwant %v", shards, q, got, want)
			}
		}
		// The compacted sharded store must persist byte-identically to the
		// unsharded one: the merged index is shard-count-independent.
		var bs, bb bytes.Buffer
		if err := s.SaveIndex(&bs); err != nil {
			t.Fatal(err)
		}
		if err := base.SaveIndex(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bb.Bytes()) {
			t.Fatalf("shards=%d: SaveIndex bytes differ from unsharded store", shards)
		}
		re, err := OpenIndexWithOptions(bytes.NewReader(bs.Bytes()), Options{Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range probes {
			got, want := sortedQueryRows(t, re, q), sortedQueryRows(t, base, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shards=%d reloaded probe %s:\n got %v\nwant %v", shards, q, got, want)
			}
		}
	}
}

// TestSaveShardsRoundTrip writes the sharded snapshot directory at shard
// counts {1,2,4}, asserts the per-shard file layout, and reloads it —
// checking byte-identical SaveIndex output and probe results against the
// original.
func TestSaveShardsRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newShardTestStore(t, shards, 2)
			dir := t.TempDir()
			if err := s.SaveShards(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			n := s.Shards()
			if len(entries) != n+1 {
				t.Fatalf("got %d directory entries, want %d shard files + manifest", len(entries), n)
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("shard-%03d.lbr", i)
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("missing shard file %s: %v", name, err)
				}
				if fi.Size() == 0 {
					t.Fatalf("shard file %s is empty", name)
				}
			}
			re, err := OpenShardsWithOptions(dir, Options{Shards: shards, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var orig, loaded bytes.Buffer
			if err := s.SaveIndex(&orig); err != nil {
				t.Fatal(err)
			}
			if err := re.SaveIndex(&loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig.Bytes(), loaded.Bytes()) {
				t.Fatal("reloaded sharded snapshot saves different index bytes")
			}
			for _, p := range shardProbes {
				got, want := sortedQueryRows(t, re, p.q), sortedQueryRows(t, s, p.q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("probe %s after round trip:\n got %v\nwant %v", p.id, got, want)
				}
			}
			// A different shard count (including unsharded) must load the
			// same logical store: the merged index is partition-independent.
			other, err := OpenShards(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range shardProbes {
				got, want := sortedQueryRows(t, other, p.q), sortedQueryRows(t, s, p.q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("probe %s via unsharded reload:\n got %v\nwant %v", p.id, got, want)
				}
			}
		})
	}
}

// TestOpenShardsRejectsMisplacedTriple corrupts a two-shard snapshot by
// swapping the shard files; the loader must detect triples outside the
// shard their subject hash owns.
func TestOpenShardsRejectsMisplacedTriple(t *testing.T) {
	s := newShardTestStore(t, 2, 2)
	dir := t.TempDir()
	if err := s.SaveShards(dir); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "shard-000.lbr"), filepath.Join(dir, "shard-001.lbr")
	tmp := filepath.Join(dir, "swap.tmp")
	if err := os.Rename(a, tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(b, a); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, b); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShards(dir); err == nil {
		t.Fatal("swapped shard files must fail placement verification")
	}
}

// TestShardStats checks the operator surface: one entry per shard, triple
// counts summing to the store size, and generations advancing with writes.
func TestShardStats(t *testing.T) {
	s := newShardTestStore(t, 4, 2)
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	if unsharded := newShardTestStore(t, 0, 2); unsharded.ShardStats() != nil {
		t.Fatal("unsharded store must report nil shard stats")
	}
	// Run a shardable query so the per-shard engines materialize.
	if _, err := s.Query(`SELECT * WHERE { ?s <type> ?c }`); err != nil {
		t.Fatal(err)
	}
	infos := s.ShardStats()
	if len(infos) != 4 {
		t.Fatalf("got %d shard infos", len(infos))
	}
	var total int64
	for i, info := range infos {
		if info.Shard != i {
			t.Fatalf("info %d has shard %d", i, info.Shard)
		}
		if info.Triples == 0 {
			t.Errorf("shard %d reports zero triples (partition imbalance in the test data?)", i)
		}
		if info.Generation == 0 {
			t.Errorf("shard %d reports zero generation after a query", i)
		}
		total += info.Triples
	}
	if total != int64(s.Len()) {
		t.Fatalf("shard triples sum to %d, store holds %d", total, s.Len())
	}
}

// TestShardPartitionAlignment pins the subject-placement invariant the
// per-shard overlays rely on: every triple of shard i's base hashes to i.
func TestShardPartitionAlignment(t *testing.T) {
	parts := rdf.PartitionBySubject(shardTestTriples(), 4)
	for i, part := range parts {
		for _, tr := range part {
			if got := rdf.SubjectShard(tr.S, 4); got != i {
				t.Fatalf("triple %s in partition %d, subject hashes to %d", tr, i, got)
			}
		}
	}
}

// FuzzShardDifferential fuzzes raw SPARQL query text through sharded
// stores (2 and 4 shards) and the unsharded store over the same graph,
// requiring identical accept/reject behavior and identical row multisets.
// Queries either side rejects as unsupported (size caps, unsafe filters)
// are skipped only when the rejection is of that known class.
func FuzzShardDifferential(f *testing.F) {
	for _, p := range shardProbes {
		f.Add(p.q)
	}
	f.Add(`ASK { ?s <type> ?c . ?s <email> ?e }`)
	f.Add(`SELECT DISTINCT ?s WHERE { ?s <type> ?c . OPTIONAL { ?s <phone> ?p . FILTER (?p != <t0>) } } ORDER BY ?s LIMIT 9`)

	mk := func(shards int) *Store {
		s := NewStoreWithOptions(Options{Shards: shards, Workers: 2})
		s.AddAll(shardTestTriples())
		if err := s.Build(); err != nil {
			f.Fatal(err)
		}
		return s
	}
	base := mk(0)
	sharded := []*Store{mk(2), mk(4)}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		want, refErr := base.Query(src)
		for i, st := range sharded {
			got, err := st.Query(src)
			if (refErr == nil) != (err == nil) {
				for _, e := range []error{refErr, err} {
					if e != nil && isUnsupportedNative(e) {
						return
					}
				}
				t.Fatalf("%q: unsharded err=%v, %d-shard err=%v", src, refErr, 2<<i, err)
			}
			if refErr != nil {
				return
			}
			g := sortedQueryRows(t, st, src)
			w := sortedQueryRows(t, base, src)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%q at %d shards:\n got %v\nwant %v", src, 2<<i, g, w)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%q at %d shards: %d rows vs %d", src, 2<<i, got.Len(), want.Len())
			}
		}
	})
}
