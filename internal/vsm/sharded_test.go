package vsm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/doc"
	"repro/internal/obs"
)

// The one index type satisfies the Retriever contract the advisor builds on.
var (
	_ Retriever = (*Index)(nil)
)

func TestShardOf(t *testing.T) {
	// identity-keyed assignment is a pure function of (id, nShards)
	for _, id := range []doc.SentenceID{"a", "b", "sent-000001", "x/y#3"} {
		for _, n := range []int{1, 2, 3, 8} {
			got := shardOf(id, 99, n)
			if got < 0 || got >= n {
				t.Fatalf("shardOf(%q, 99, %d) = %d out of range", id, n, got)
			}
			if again := shardOf(id, 0, n); again != got {
				t.Fatalf("shardOf(%q) depends on ordinal: %d vs %d", id, got, again)
			}
		}
	}
	// a missing identity falls back to round-robin on the ordinal
	for ord := 0; ord < 10; ord++ {
		if got := shardOf("", ord, 4); got != ord%4 {
			t.Fatalf("shardOf(\"\", %d, 4) = %d, want %d", ord, got, ord%4)
		}
	}
	// single shard short-circuits
	if got := shardOf("anything", 7, 1); got != 0 {
		t.Fatalf("shardOf with 1 shard = %d, want 0", got)
	}
}

func TestShardSizesSumToLen(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gen := 0
	termLists := randomTermLists(rng, 37)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 5)
	sizes := sh.ShardSizes()
	if len(sizes) != 5 {
		t.Fatalf("ShardSizes len = %d, want 5", len(sizes))
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != sh.Len() || sh.Len() != 37 {
		t.Fatalf("sizes sum %d, Len %d, want 37", sum, sh.Len())
	}
	if sh.ShardCount() != 5 {
		t.Fatalf("ShardCount = %d, want 5", sh.ShardCount())
	}
}

func TestBuildShardedNilIDsFallsBack(t *testing.T) {
	// nil or misaligned ids must not panic: every doc lands via round-robin
	lists := [][]string{{"a"}, {"b"}, {"c"}, {"d"}}
	sh := BuildShardedFromTerms(lists, nil, 2)
	if sh.Len() != 4 {
		t.Fatalf("Len = %d, want 4", sh.Len())
	}
	sizes := sh.ShardSizes()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("round-robin sizes = %v, want [2 2]", sizes)
	}
}

func TestMergeMatchesEdges(t *testing.T) {
	m := func(idx int, score float64) Match { return Match{Index: idx, Score: score} }
	cases := []struct {
		name  string
		lists [][]Match
		k     int
		want  []Match
	}{
		{"empty", nil, 0, nil},
		{"all empty lists", [][]Match{nil, {}, nil}, 0, nil},
		{"single list passthrough", [][]Match{{m(0, 0.9), m(2, 0.5)}}, 0, []Match{m(0, 0.9), m(2, 0.5)}},
		{"interleave", [][]Match{{m(1, 0.8), m(3, 0.2)}, {m(0, 0.9), m(2, 0.5)}}, 0,
			[]Match{m(0, 0.9), m(1, 0.8), m(2, 0.5), m(3, 0.2)}},
		{"tie resolves by index", [][]Match{{m(5, 0.7)}, {m(2, 0.7)}}, 0,
			[]Match{m(2, 0.7), m(5, 0.7)}},
		{"k truncates", [][]Match{{m(1, 0.8)}, {m(0, 0.9), m(2, 0.5)}}, 2,
			[]Match{m(0, 0.9), m(1, 0.8)}},
		{"k larger than total", [][]Match{{m(1, 0.8)}}, 10, []Match{m(1, 0.8)}},
	}
	for _, tc := range cases {
		got := mergeMatches(tc.lists, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d matches, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: match %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestTopMatchesVecEqualsSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for round := 0; round < 30; round++ {
		ix := BuildFromTerms(randomTermLists(rng, 5+rng.Intn(30)))
		q := diffQueries[round%len(diffQueries)]
		qv := ix.QueryVector(q)
		for _, threshold := range []float64{0, 0.01, DefaultThreshold} {
			full := selectMatches(ix.vsm[0], qv, threshold, 0, ix.n)
			for _, k := range []int{1, 2, 5, 100} {
				want := full
				if k < len(want) {
					want = want[:k]
				}
				got := selectMatches(ix.vsm[0], qv, threshold, k, ix.n)
				if len(got) != len(want) {
					t.Fatalf("round %d k=%d th=%v: %d matches, want %d", round, k, threshold, len(got), len(want))
				}
				for i := range want {
					if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("round %d k=%d th=%v match %d: %+v vs %+v", round, k, threshold, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestShardedQueryEmptyAndUnknownTerms(t *testing.T) {
	gen := 0
	lists := [][]string{{"alpha", "beta"}, {"gamma"}}
	sh := BuildShardedFromTerms(lists, idsFor(2, &gen), 2)
	if got := sh.Query("", DefaultThreshold); got != nil {
		t.Fatalf("empty query: %v, want nil", got)
	}
	if got := sh.TopK("zzz", 5, DefaultThreshold); got != nil {
		t.Fatalf("out-of-vocab TopK: %v, want nil", got)
	}
	scores := sh.QueryAll("zzz")
	for i, s := range scores {
		if s != 0 {
			t.Fatalf("out-of-vocab score[%d] = %v, want 0", i, s)
		}
	}
}

func TestShardedScorerBackends(t *testing.T) {
	gen := 0
	sh := BuildShardedFromTerms([][]string{{"a"}, {"b"}}, idsFor(2, &gen), 2)
	vs, err := sh.Scorer(BackendVSM)
	if err != nil || vs.Backend() != BackendVSM {
		t.Fatalf("vsm scorer: %v backend %q", err, vs.Backend())
	}
	bm, err := sh.Scorer(BackendBM25)
	if err != nil || bm.Backend() != BackendBM25 {
		t.Fatalf("bm25 scorer: %v backend %q", err, bm.Backend())
	}
	if _, err := sh.Scorer("tfidf2"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
}

func TestShardOutcomeNilSafe(t *testing.T) {
	var o *ShardOutcome
	if o.Total() != 0 || o.Failed() != 0 || o.Err() != nil {
		t.Fatal("nil ShardOutcome accessors must be zero-valued")
	}
	// a context without an outcome or fault yields nil hooks
	ctx := t.Context()
	if shardOutcomeFrom(ctx) != nil {
		t.Fatal("shardOutcomeFrom on bare context should be nil")
	}
	if shardFaultFrom(ctx) != nil {
		t.Fatal("shardFaultFrom on bare context should be nil")
	}
}

func TestShardFaultPartialAndTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	gen := 0
	termLists := randomTermLists(rng, 24)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 4)
	terms := []string{"term03", "term17", "common"}
	healthy := sh.QueryAllTerms(terms)

	// fail exactly the first shard execution; serial scoring makes that
	// deterministically shard 0
	boom := errors.New("boom")
	var mu sync.Mutex
	calls := 0
	ctx := WithSerialScoring(t.Context())
	ctx, outcome := WithShardOutcome(ctx)
	ctx = WithShardFault(ctx, func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})
	partial := sh.QueryAllTermsCtx(ctx, terms)
	if outcome.Total() != 4 || outcome.Failed() != 1 {
		t.Fatalf("outcome total %d failed %d, want 4 and 1", outcome.Total(), outcome.Failed())
	}
	if !errors.Is(outcome.Err(), boom) {
		t.Fatalf("outcome err = %v, want boom", outcome.Err())
	}
	// failed shard's docs score zero; every other doc is bit-identical
	zeroed := map[int32]bool{}
	for _, g := range sh.docs[0] {
		zeroed[g] = true
	}
	for i := range healthy {
		if zeroed[int32(i)] {
			if partial[i] != 0 {
				t.Fatalf("failed-shard doc %d scored %v, want 0", i, partial[i])
			}
		} else if math.Float64bits(partial[i]) != math.Float64bits(healthy[i]) {
			t.Fatalf("healthy doc %d: %x vs %x", i, partial[i], healthy[i])
		}
	}

	// all shards failing is still a scored-zero slice, never a panic
	actx, all := WithShardOutcome(WithSerialScoring(t.Context()))
	actx = WithShardFault(actx, func() error { return boom })
	dead := sh.QueryAllTermsCtx(actx, terms)
	if all.Failed() != all.Total() || all.Total() != 4 {
		t.Fatalf("all-fail outcome: failed %d total %d", all.Failed(), all.Total())
	}
	for i, s := range dead {
		if s != 0 {
			t.Fatalf("all-fail score[%d] = %v, want 0", i, s)
		}
	}

	// faults also gate the BM25 fan-out
	bctx, bo := WithShardOutcome(WithSerialScoring(t.Context()))
	bctx = WithShardFault(bctx, func() error { return boom })
	bdead := sh.BM25().ScoreTermsCtx(bctx, terms)
	if bo.Failed() != 4 {
		t.Fatalf("bm25 all-fail: failed %d, want 4", bo.Failed())
	}
	for i, s := range bdead {
		if s != 0 {
			t.Fatalf("bm25 all-fail score[%d] = %v, want 0", i, s)
		}
	}
}

func TestShardedRebuildRetrieverKeepsLayout(t *testing.T) {
	gen := 0
	lists := [][]string{{"a"}, {"b"}, {"c"}}
	ids := idsFor(3, &gen)
	var r Retriever = BuildShardedFromTerms(lists, ids, 3)
	next, err := r.RebuildRetriever(
		[]doc.Kept{{Old: 0, New: 0}, {Old: 2, New: 1}},
		[]AddedDoc{{Pos: 2, Terms: []string{"d"}, ID: doc.SentenceID(fmt.Sprintf("sent-%06d", gen))}})
	if err != nil {
		t.Fatal(err)
	}
	if next.ShardCount() != 3 || next.Len() != 3 {
		t.Fatalf("ShardCount %d Len %d, want 3 and 3", next.ShardCount(), next.Len())
	}
}

func TestShardedAccessorsAndTracedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	gen := 0
	termLists := randomTermLists(rng, 20)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 3)
	mono := BuildFromTerms(termLists)

	if sh.VocabSize() != mono.VocabSize() {
		t.Fatalf("VocabSize %d vs %d", sh.VocabSize(), mono.VocabSize())
	}
	if got, want := sh.IDF("common"), mono.IDF("common"); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("IDF(common) %x vs %x", got, want)
	}
	if sh.IDF("nosuchterm") != 0 {
		t.Fatal("IDF of unknown term must be 0")
	}
	if !ValidBackend(BackendBM25) || ValidBackend("nope") {
		t.Fatal("ValidBackend broken")
	}
	if mono.BM25().Backend() != BackendBM25 {
		t.Fatal("monolithic BM25 backend name")
	}

	// the monolithic index is a Retriever too: single shard, Rebuild adapter
	var r Retriever = mono
	if r.ShardCount() != 1 {
		t.Fatalf("monolithic ShardCount = %d", r.ShardCount())
	}
	if _, err := r.RebuildRetriever(nil, []AddedDoc{{Pos: 0, Terms: []string{"x"}}}); err != nil {
		t.Fatal(err)
	}

	// WithShardFault with a nil draw is a no-op context
	ctx := t.Context()
	if WithShardFault(ctx, nil) != ctx {
		t.Fatal("nil draw must return the context unchanged")
	}

	// traced scoring: both backends, sharded and monolithic, under a real
	// recorded span — covers the StartChild branches
	tracer := obs.NewTracer(1.0, obs.NewTraceStore(obs.DefaultTraceCapacity))
	terms := []string{"term03", "term17", "common"}
	sctx, root := tracer.Start(t.Context(), "test.query")
	for _, ix := range []Retriever{sh, mono} {
		for _, backend := range Backends() {
			sc, err := ix.Scorer(backend)
			if err != nil {
				t.Fatal(err)
			}
			got := sc.ScoreTermsCtx(sctx, terms)
			want := mustScorer(t, mono, backend).ScoreTermsCtx(context.Background(), terms)
			sameScores(t, "traced "+backend, got, want)
		}
	}
	root.Finish()
}

func mustScorer(t *testing.T, ix Retriever, backend string) Scorer {
	t.Helper()
	sc, err := ix.Scorer(backend)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestShardedParallelFanOut forces the multi-worker pool (GOMAXPROCS is 1
// on the CI container, which would otherwise keep the fan-out serial) and
// checks the parallel scatter is bit-identical to the serial one.
func TestShardedParallelFanOut(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(79))
	gen := 0
	termLists := randomTermLists(rng, 60)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 4)
	terms := []string{"term03", "term17", "common", "term29"}
	ser := sh.QueryAllTermsCtx(WithSerialScoring(t.Context()), terms)
	par := sh.QueryAllTerms(terms)
	sameScores(t, "parallel fan-out", par, ser)
	bser := sh.BM25().ScoreTermsCtx(WithSerialScoring(t.Context()), terms)
	bpar := sh.BM25().ScoreTerms(terms)
	sameScores(t, "parallel bm25 fan-out", bpar, bser)

	// partial failure under the parallel pool: exactly one shard's draw
	// fails; the failed-shard docs are zero and the rest bit-identical
	boom := errors.New("boom")
	var mu sync.Mutex
	calls := 0
	ctx, outcome := WithShardOutcome(t.Context())
	ctx = WithShardFault(ctx, func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})
	partial := sh.QueryAllTermsCtx(ctx, terms)
	if outcome.Failed() != 1 || outcome.Total() != 4 {
		t.Fatalf("outcome failed %d total %d, want 1 and 4", outcome.Failed(), outcome.Total())
	}
	mismatched := map[int]bool{}
	for i := range ser {
		if math.Float64bits(partial[i]) != math.Float64bits(ser[i]) {
			if partial[i] != 0 {
				t.Fatalf("doc %d diverged to nonzero %v", i, partial[i])
			}
			mismatched[i] = true
		}
	}
	// every mismatch must belong to a single shard's document set
	for shd := range sh.docs {
		inShard := 0
		for _, g := range sh.docs[shd] {
			if mismatched[int(g)] {
				inShard++
			}
		}
		if inShard > 0 && inShard != len(mismatched) {
			t.Fatalf("zeroed docs span shards: %d of %d in shard %d", inShard, len(mismatched), shd)
		}
	}
}

// TestMatchesTermsSpan: under a sampled trace, MatchesTermsCtx records one
// "vsm.score" span carrying exactly the query and layout sizes, with one
// "vsm.shard" child per shard, and answers exactly as it does untraced.
func TestMatchesTermsSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	gen := 0
	termLists := randomTermLists(rng, 40)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 3)
	terms := []string{"term03", "term17", "common"}
	store := obs.NewTraceStore(obs.DefaultTraceCapacity)
	ctx, root := obs.NewTracer(1.0, store).Start(t.Context(), "test.query")
	got := sh.MatchesTermsCtx(ctx, terms, DefaultThreshold)
	root.Finish()
	sameMatches(t, "traced", got, sh.MatchesTermsCtx(context.Background(), terms, DefaultThreshold))

	tr, ok := store.Get(obs.TraceID(ctx))
	if !ok || len(tr.Root.Children) != 1 || tr.Root.Children[0].Name != "vsm.score" {
		t.Fatalf("trace %+v: want one vsm.score child under the root", tr.Root)
	}
	score := tr.Root.Children[0]
	want := map[string]string{"query_terms": "3", "docs": fmt.Sprint(sh.Len()), "shards": "3"}
	if len(score.Attrs) != len(want) {
		t.Errorf("vsm.score attrs %+v, want exactly %v", score.Attrs, want)
	}
	for _, a := range score.Attrs {
		if want[a.Key] != a.Value {
			t.Errorf("vsm.score attr %s=%s, want %v", a.Key, a.Value, want)
		}
	}
	if len(score.Children) != 3 {
		t.Fatalf("vsm.score has %d children, want one vsm.shard per shard", len(score.Children))
	}
	for _, c := range score.Children {
		if c.Name != "vsm.shard" {
			t.Errorf("vsm.score child %q, want vsm.shard", c.Name)
		}
	}
}
