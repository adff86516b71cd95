package vsm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// FuzzTopKParity fuzzes the bounded TopK against the sort-of-QueryAll
// reference: score every document, filter at the threshold, sort under the
// total match order, truncate to k. Retrieval — monolithic and sharded, VSM
// and BM25 — must reproduce that list Float64bits-exactly for arbitrary
// corpora, queries, k, thresholds (including NaN, infinities, and <= 0),
// and shard counts.
// Seeds live in testdata/fuzz/FuzzTopKParity (guide sentences × guide
// queries; regenerate with `go run ./tools/fuzzseed`).
func FuzzTopKParity(f *testing.F) {
	f.Add("alpha beta\nbeta gamma\ngamma delta beta\nalpha alpha", "alpha gamma", 3, 0.15, 2)
	f.Add("", "anything", 1, 0.15, 1)
	f.Add("same words here\nsame words here\nsame words here", "same words", 2, 0.0, 4)
	f.Add("tuning threads\nwarp divergence\nmemory coalescing", "warp memory", 10, -1.0, 8)
	f.Add("a b c\nb c d\nc d e\nd e f", "c", 0, 0.5, 3)

	f.Fuzz(func(t *testing.T, blob, query string, k int, threshold float64, nShards int) {
		if len(blob) > 1<<16 || len(query) > 1<<10 {
			return
		}
		sentences := strings.Split(blob, "\n")
		if len(sentences) > 96 {
			sentences = sentences[:96]
		}
		n := len(sentences)
		if k > 2*n+4 {
			k = k % (2*n + 5)
		}
		sh := nShards % 9
		if sh < 0 {
			sh = -sh
		}

		ix := Build(sentences)
		termLists := make([][]string, n)
		for i, s := range sentences {
			termLists[i] = textproc.NormalizeTerms(s)
		}
		sharded := BuildShardedFromTerms(termLists, nil, sh)

		// the sort-of-QueryAll reference for the cosine backend, mirroring
		// Query's empty-vector contract (no query terms in vocab: no matches)
		var want []Match
		if len(ix.QueryVector(query)) > 0 && k > 0 {
			for i, s := range ix.QueryAll(query) {
				if s >= threshold {
					want = append(want, Match{Index: i, Score: s})
				}
			}
			sortMatches(want)
			if len(want) > k {
				want = want[:k]
			}
		}
		sameMatches(t, "mono", ix.TopKCtx(context.Background(), query, k, threshold), want)
		sameMatches(t, "sharded", sharded.TopKCtx(context.Background(), query, k, threshold), want)

		// the BM25 reference: positive scores only, no threshold parameter
		var wantB []Match
		if k > 0 {
			for i, s := range ix.BM25().ScoreTerms(textproc.NormalizeTerms(query)) {
				if s > 0 {
					wantB = append(wantB, Match{Index: i, Score: s})
				}
			}
			sortMatches(wantB)
			if len(wantB) > k {
				wantB = wantB[:k]
			}
		}
		sameMatches(t, "bm25 mono", ix.BM25().TopKCtx(context.Background(), query, k), wantB)
		sameMatches(t, "bm25 sharded", sharded.BM25().TopKCtx(context.Background(), query, k), wantB)
	})
}
