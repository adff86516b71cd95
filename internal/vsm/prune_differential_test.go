package vsm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// The selection differential suite: bounded and sharded selection must be
// Float64bits-identical to the monolithic exhaustive lists — same indices,
// same score bits, same order — for both backends, across k values,
// thresholds, duplicate-score ties, and chained Rebuilds. Every comparison
// goes through sameMatches (math.Float64bits); "close" is not equivalence.

// pruneQueriesFor exercises single-term, multi-term, zero-IDF, repeated,
// and out-of-vocabulary queries, plus wide queries touching many terms.
var pruneQueriesFor = append([]string{
	"term03 term17 common",
	"term00",
	"common term29 term29",
	"nosuchterm",
	"term01 term04 term09 term16 term25 term28",
	"term00 term01 term02 term03 term04 term05 term06 term07 common",
}, diffQueries...)

// prunedCorpus builds a random corpus with a few duplicated documents
// forcing exact score ties at distinct indices.
func prunedCorpus(rng *rand.Rand, n int) [][]string {
	termLists := randomTermLists(rng, n)
	for d := 0; d < 4 && len(termLists) > 0; d++ {
		termLists = append(termLists, termLists[rng.Intn(len(termLists))])
	}
	return termLists
}

// smallCorpus splits the suite's corpus sizes: odd rounds stay under it,
// even rounds start at it.
const smallCorpus = 32

// TestPruneDifferential is the heart of the suite: 100 random corpora —
// tiny and larger ones alternating — where bounded TopK must equal Query
// truncated to k, and sharded (1/4/8) TopK and Query must reproduce the
// monolithic lists exactly, for VSM and BM25, across k in {1, 3, n, 2n}
// (plus k <= 0 returning nothing) and thresholds including <= 0.
func TestPruneDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gen := 0
	for round := 0; round < 100; round++ {
		size := 3 + rng.Intn(24)
		if round%2 == 0 {
			size = smallCorpus + rng.Intn(120)
		}
		termLists := prunedCorpus(rng, size)
		ids := idsFor(len(termLists), &gen)
		mono := BuildFromTerms(termLists)
		n := mono.Len()
		q := pruneQueriesFor[round%len(pruneQueriesFor)]
		ks := []int{0, 1, 3, n, 2 * n}
		for _, threshold := range []float64{DefaultThreshold, 0.01, 0.6, 0, -1} {
			label := fmt.Sprintf("round %d %q thr %v", round, q, threshold)
			wantQ := mono.QueryCtx(context.Background(), q, threshold)
			for _, k := range ks {
				wantK := wantQ[:max(0, min(k, len(wantQ)))]
				sameMatches(t, fmt.Sprintf("%s mono TopK k=%d", label, k),
					mono.TopKCtx(context.Background(), q, k, threshold), wantK)
			}
		}
		bm := mono.BM25()
		for _, nShards := range []int{1, 4, 8} {
			sh := BuildShardedFromTerms(termLists, ids, nShards)
			for _, threshold := range []float64{DefaultThreshold, 0, -1} {
				label := fmt.Sprintf("round %d shards %d %q thr %v", round, nShards, q, threshold)
				wantQ := mono.QueryCtx(context.Background(), q, threshold)
				sameMatches(t, label+" Query", sh.QueryCtx(context.Background(), q, threshold), wantQ)
				for _, k := range ks {
					wantK := mono.TopKCtx(context.Background(), q, k, threshold)
					sameMatches(t, fmt.Sprintf("%s TopK k=%d", label, k),
						sh.TopKCtx(context.Background(), q, k, threshold), wantK)
				}
			}
			shb := sh.BM25()
			for _, k := range ks {
				wantK := bm.TopKCtx(context.Background(), q, k)
				sameMatches(t, fmt.Sprintf("round %d shards %d %q bm25 TopK k=%d", round, nShards, q, k),
					shb.TopKCtx(context.Background(), q, k), wantK)
			}
		}
	}
}

// TestPruneMatchesTermsParity pins the serving-path form: MatchesTermsCtx
// (monolithic and sharded) must equal filtering the full score slice at the
// threshold — including the empty-query and threshold <= 0 edge where
// every document scores 0 and is admitted.
func TestPruneMatchesTermsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	gen := 0
	termLists := prunedCorpus(rng, smallCorpus+40)
	ids := idsFor(len(termLists), &gen)
	mono := BuildFromTerms(termLists)
	sh := BuildShardedFromTerms(termLists, ids, 4)
	queries := append([]string{"", "common", "nosuchterm"}, pruneQueriesFor...)
	for _, q := range queries {
		terms := splitTerms(q)
		scores := mono.QueryAllTerms(terms)
		for _, threshold := range []float64{DefaultThreshold, 0.01, 0} {
			var want []Match
			for i, s := range scores {
				if s >= threshold {
					want = append(want, Match{Index: i, Score: s})
				}
			}
			sortMatches(want)
			label := fmt.Sprintf("MatchesTerms %q thr %v", q, threshold)
			sameMatches(t, label+" mono", mono.MatchesTermsCtx(context.Background(), terms, threshold), want)
			sameMatches(t, label+" sharded", sh.MatchesTermsCtx(context.Background(), terms, threshold), want)
		}
	}
}

// TestPruneAcrossRebuilds chains random edits through Rebuild and checks
// that the sharded successor keeps retrieval bit-identical to the
// monolithic one, for both backends.
func TestPruneAcrossRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	gen := 0
	termLists := prunedCorpus(rng, smallCorpus+60)
	ids := idsFor(len(termLists), &gen)
	mono := BuildFromTerms(termLists)
	sh := BuildShardedFromTerms(termLists, ids, 4)
	for step := 0; step < 5; step++ {
		next, nextIDs, kept, added := shardedEdit(rng, termLists, ids, &gen)
		var err error
		if mono, err = mono.Rebuild(kept, added); err != nil {
			t.Fatalf("step %d: mono Rebuild: %v", step, err)
		}
		if sh, err = sh.Rebuild(kept, added); err != nil {
			t.Fatalf("step %d: sharded Rebuild: %v", step, err)
		}
		n := mono.Len()
		for _, q := range pruneQueriesFor {
			for _, k := range []int{1, 3, n} {
				label := fmt.Sprintf("step %d %q k=%d", step, q, k)
				want := mono.TopKCtx(context.Background(), q, k, DefaultThreshold)
				sameMatches(t, label+" sharded", sh.TopKCtx(context.Background(), q, k, DefaultThreshold), want)
				wantB := mono.BM25().TopKCtx(context.Background(), q, k)
				sameMatches(t, label+" bm25 sharded", sh.BM25().TopKCtx(context.Background(), q, k), wantB)
			}
		}
		termLists, ids = next, nextIDs
	}
}
