package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// Differential tests between the two scoring backends: properties that must
// hold regardless of backend (zero-overlap queries score zero everywhere),
// bit-exactness of the Scorer indirection against the direct VSM path, and
// agreement of the shared-postings BM25 with a from-scratch reference
// implementation.

var diffSentences = []string{
	"Use shared memory to reduce global memory traffic.",
	"Avoid bank conflicts when accessing shared memory banks.",
	"Coalesce global memory accesses for maximum bandwidth.",
	"Minimize divergent branches within a warp.",
	"Overlap data transfers with kernel execution using streams.",
	"Prefer single precision arithmetic when accuracy permits.",
	"Occupancy depends on registers and shared memory per block.",
}

func TestBackendsAgreeOnZeroOverlap(t *testing.T) {
	ix := Build(diffSentences)
	terms := textproc.NormalizeTerms("quantum chromodynamics lattice pasta")
	for _, backend := range Backends() {
		scorer, err := ix.Scorer(backend)
		if err != nil {
			t.Fatal(err)
		}
		for d, s := range scorer.ScoreTermsCtx(context.Background(), terms) {
			if s != 0 {
				t.Errorf("%s: zero-overlap query scored doc %d at %v, want 0", backend, d, s)
			}
		}
	}
}

// TestScorerVSMBitIdentical pins the refactoring invariant of the Scorer
// interface: scoring through ix.Scorer("vsm") (and its "" default spelling)
// is bit-for-bit the same as the direct Index path, and every Query match
// score equals the corresponding dense score exactly.
func TestScorerVSMBitIdentical(t *testing.T) {
	ix := Build(diffSentences)
	queries := []string{
		"shared memory bank conflicts",
		"global memory bandwidth",
		"divergent warp execution",
		"transfer overlap streams",
	}
	for _, q := range queries {
		terms := textproc.NormalizeTerms(q)
		direct := ix.QueryAllTerms(terms)
		for _, spelling := range []string{"", BackendVSM} {
			scorer, err := ix.Scorer(spelling)
			if err != nil {
				t.Fatal(err)
			}
			viaScorer := scorer.ScoreTermsCtx(context.Background(), terms)
			for d := range direct {
				if math.Float64bits(direct[d]) != math.Float64bits(viaScorer[d]) {
					t.Fatalf("q=%q spelling=%q doc %d: direct %x via-scorer %x",
						q, spelling, d, math.Float64bits(direct[d]), math.Float64bits(viaScorer[d]))
				}
			}
		}
		for _, m := range ix.Query(q, DefaultThreshold) {
			if math.Float64bits(m.Score) != math.Float64bits(direct[m.Index]) {
				t.Fatalf("q=%q: Query score %v != dense score %v at doc %d", q, m.Score, direct[m.Index], m.Index)
			}
		}
	}
}

// TestSerialScoringBitIdentical: the batch executor's serial-scoring hint
// must not change a single bit of any score.
func TestSerialScoringBitIdentical(t *testing.T) {
	ix := Build(diffSentences)
	terms := textproc.NormalizeTerms("shared memory global bandwidth warp")
	par := ix.QueryAllTermsCtx(context.Background(), terms)
	ser := ix.QueryAllTermsCtx(WithSerialScoring(context.Background()), terms)
	for d := range par {
		if math.Float64bits(par[d]) != math.Float64bits(ser[d]) {
			t.Fatalf("doc %d: parallel %x serial %x", d, math.Float64bits(par[d]), math.Float64bits(ser[d]))
		}
	}
}

// naiveBM25 recomputes Okapi BM25 from the raw sentences with none of the
// index's machinery — its own tokenization pass, df counts and length table
// — as an independent reference for the shared-postings implementation.
func naiveBM25(sentences []string, query string, k1, b float64) []float64 {
	docTerms := make([][]string, len(sentences))
	lens := make([]float64, len(sentences))
	var total float64
	for i, s := range sentences {
		docTerms[i] = textproc.NormalizeTerms(s)
		lens[i] = float64(len(docTerms[i]))
		total += lens[i]
	}
	avg := total / float64(len(sentences))
	df := map[string]int{}
	for _, terms := range docTerms {
		seen := map[string]bool{}
		for _, t := range terms {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(sentences))
	qset := map[string]bool{}
	var qterms []string
	for _, t := range textproc.NormalizeTerms(query) {
		if !qset[t] && df[t] > 0 {
			qset[t] = true
			qterms = append(qterms, t)
		}
	}
	sort.Strings(qterms)
	out := make([]float64, len(sentences))
	for _, qt := range qterms {
		idf := math.Log((n-float64(df[qt])+0.5)/(float64(df[qt])+0.5) + 1)
		for d, terms := range docTerms {
			tf := 0.0
			for _, t := range terms {
				if t == qt {
					tf++
				}
			}
			if tf == 0 {
				continue
			}
			norm := k1 * (1 - b + b*lens[d]/avg)
			out[d] += idf * tf * (k1 + 1) / (tf + norm)
		}
	}
	return out
}

func TestBM25MatchesNaiveReference(t *testing.T) {
	ix := Build(diffSentences)
	bm := ix.BM25()
	for _, q := range []string{
		"shared memory bank conflicts",
		"global memory coalescing bandwidth",
		"warp divergence",
		"memory memory memory", // duplicate query terms count once
	} {
		got := bm.Scores(q)
		want := naiveBM25(diffSentences, q, bm25K1, bm25B)
		for d := range want {
			if math.Abs(got[d]-want[d]) > 1e-12 {
				t.Errorf("q=%q doc %d: shared-postings %v, naive reference %v", q, d, got[d], want[d])
			}
		}
	}
}

// TestBM25NaiveBitExactAcrossShards pins the precomputed BM25
// contributions to the formula: over seeded random corpora, the served
// scoring path (Scorer("bm25").ScoreTermsCtx, summing per-posting
// contributions from the weight tables) must equal the from-scratch
// reference bit for bit at every shard count.
func TestBM25NaiveBitExactAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for round := 0; round < 50; round++ {
		sentences := randomCorpus(rng, 5+rng.Intn(60))
		terms := make([][]string, len(sentences))
		for i, s := range sentences {
			terms[i] = textproc.NormalizeTerms(s)
		}
		queries := randomCorpus(rng, 5)
		for _, nShards := range []int{1, 2, 5} {
			bm, err := BuildShardedFromTerms(terms, nil, nShards).Scorer(BackendBM25)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				got := bm.ScoreTermsCtx(context.Background(), textproc.NormalizeTerms(q))
				want := naiveBM25(sentences, q, bm25K1, bm25B)
				sameScores(t, fmt.Sprintf("round %d shards %d q=%q", round, nShards, q), got, want)
			}
		}
	}
}

// TestUniversalTermBackendSplit pins the zero-weight-postings design: a term
// in every document has IDF 0 under TF-IDF (invisible to cosine) but a
// small positive Okapi IDF, so only BM25 can rank by it.
func TestUniversalTermBackendSplit(t *testing.T) {
	docs := []string{
		"memory memory tiling",
		"memory layout",
		"memory prefetch distance",
	}
	ix := Build(docs)
	if scores := ix.QueryAllTerms([]string{"memori"}); anyPositive(scores) {
		t.Errorf("VSM scored a df==N term: %v", scores)
	}
	bm := ix.BM25().ScoreTerms([]string{"memori"})
	if !anyPositive(bm) {
		t.Errorf("BM25 ignored a df==N term: %v", bm)
	}
	// doc 0 has tf=2 for the term: BM25's tf saturation must still rank it
	// at least as high as the tf=1 docs of similar length
	if bm[0] <= 0 || bm[0] < bm[1]*0.99 {
		t.Errorf("BM25 tf weighting off: %v", bm)
	}
}

func anyPositive(s []float64) bool {
	for _, v := range s {
		if v > 0 {
			return true
		}
	}
	return false
}

// TestTopKEdgeCases drives both backends' TopK through the boundary cases a
// caller can hit: non-positive k, k past the match count, and score ties.
func TestTopKEdgeCases(t *testing.T) {
	ix := Build(diffSentences)
	bm := ix.BM25()
	const q = "shared memory"
	cases := []struct {
		name string
		k    int
		want func(n int) bool // accepts the returned length
	}{
		{"k negative", -3, func(n int) bool { return n == 0 }},
		{"k zero", 0, func(n int) bool { return n == 0 }},
		{"k one", 1, func(n int) bool { return n == 1 }},
		{"k huge", 1000, func(n int) bool { return n >= 1 && n <= len(diffSentences) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ix.TopK(q, tc.k, 0); !tc.want(len(got)) {
				t.Errorf("vsm TopK(k=%d) returned %d matches", tc.k, len(got))
			}
			if got := bm.TopK(q, tc.k); !tc.want(len(got)) {
				t.Errorf("bm25 TopK(k=%d) returned %d matches", tc.k, len(got))
			}
		})
	}
	// ties break by ascending index, and results are sorted best-first
	for _, matches := range [][]Match{ix.TopK(q, 100, 0), bm.TopK(q, 100)} {
		for i := 1; i < len(matches); i++ {
			prev, cur := matches[i-1], matches[i]
			if cur.Score > prev.Score {
				t.Fatalf("not sorted: %v", matches)
			}
			if cur.Score == prev.Score && cur.Index < prev.Index {
				t.Fatalf("tie not broken by index: %v", matches)
			}
		}
	}
	// identical duplicate docs are an exact tie; order must be by index
	dup := Build([]string{"tune the block size", "tune the block size", "unrelated text"})
	m := dup.TopK("block size", 2, 0)
	if len(m) != 2 || m[0].Index != 0 || m[1].Index != 1 {
		t.Errorf("duplicate-doc tie order: %v", m)
	}
	if m[0].Score != m[1].Score {
		t.Errorf("identical docs scored differently: %v vs %v", m[0].Score, m[1].Score)
	}
}
