package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// randomCorpus builds n pseudo-sentences over a small shared vocabulary so
// that queries overlap some, but not all, documents.
func randomCorpus(rng *rand.Rand, n int) []string {
	vocab := []string{
		"memory", "thread", "warp", "kernel", "latency", "bandwidth",
		"cache", "register", "occupancy", "divergence", "coalescing",
		"vector", "loop", "unroll", "block", "shared", "global", "atomic",
		"prefetch", "alignment", "throughput", "instruction", "barrier",
		"stream", "transfer", "optimize", "reduce", "avoid", "performance",
	}
	out := make([]string, n)
	for i := range out {
		k := 3 + rng.Intn(9)
		words := make([]string, k)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestInvertedMatchesDenseScan checks that the inverted-index fast path of
// Query returns exactly the dense scan's Match set — same documents, same
// order, bit-identical scores — on random corpora and queries.
func TestInvertedMatchesDenseScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomCorpus(rng, 50+rng.Intn(200))
		ix := Build(docs)
		for trial := 0; trial < 25; trial++ {
			q := randomCorpus(rng, 1)[0]
			for _, threshold := range []float64{DefaultThreshold, 0.01, 0.5} {
				fast := ix.Query(q, threshold)
				dense := ix.QueryDense(q, threshold)
				if !matchesEqual(fast, dense) {
					t.Fatalf("seed %d trial %d threshold %v: inverted %v != dense %v (query %q)",
						seed, trial, threshold, fast, dense, q)
				}
			}
		}
	}
}

// TestInvertedThresholdZeroFallsBackToDense: a non-positive threshold admits
// zero-score documents, which only the dense scan can enumerate.
func TestInvertedThresholdZeroFallsBackToDense(t *testing.T) {
	docs := []string{
		"avoid shared memory bank conflicts",
		"unroll the innermost loop",
		"completely unrelated botany sentence about flowers",
	}
	ix := Build(docs)
	got := ix.Query("shared memory", 0)
	if len(got) != len(docs) {
		t.Fatalf("threshold 0 should score all %d documents, got %d: %v", len(docs), len(got), got)
	}
}

// TestInvertedTopK: TopK rides the same fast path and must agree with a
// truncated dense scan.
func TestInvertedTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomCorpus(rng, 120)
	ix := Build(docs)
	for trial := 0; trial < 10; trial++ {
		q := randomCorpus(rng, 1)[0]
		fast := ix.TopK(q, 5, DefaultThreshold)
		dense := ix.QueryDense(q, DefaultThreshold)
		if len(dense) > 5 {
			dense = dense[:5]
		}
		if !matchesEqual(fast, dense) {
			t.Fatalf("trial %d: TopK %v != dense[:5] %v (query %q)", trial, fast, dense, q)
		}
	}
}

// TestPostingsCoverVectors: at every shard count, every nonzero component
// of every recomputed document vector appears in its term's weight list of
// the document's shard with the same weight bits, and lists are in
// strictly ascending document order.
func TestPostingsCoverVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := randomCorpus(rng, 80)
	// verbatim duplicates tie on every weight
	docs = append(docs, docs[5], docs[17], docs[17])
	terms := make([][]string, len(docs))
	for i, d := range docs {
		terms[i] = textproc.NormalizeTerms(d)
	}
	for _, nShards := range []int{1, 3} {
		ix := BuildShardedFromTerms(terms, nil, nShards)
		var nPostings int
		for sh, tab := range ix.vsm {
			for term, pl := range tab {
				last := int32(-1)
				for i, d := range pl.docs {
					if d <= last {
						t.Fatalf("shards %d: term %d postings not strictly ascending", nShards, term)
					}
					last = d
					nPostings++
					found := false
					for _, e := range ix.docVec(int(ix.docs[sh][d])) {
						if e.term == term {
							found = math.Float64bits(e.weight) == math.Float64bits(pl.w[i])
							break
						}
					}
					if !found {
						t.Fatalf("shards %d: posting (term %d, doc %d, w %v) missing from vector", nShards, term, d, pl.w[i])
					}
				}
			}
		}
		var nEntries int
		for i := 0; i < ix.Len(); i++ {
			for _, e := range ix.docVec(i) {
				if e.weight != 0 {
					nEntries++
				}
			}
		}
		if nPostings != nEntries {
			t.Fatalf("shards %d: postings %d != vector entries %d", nShards, nPostings, nEntries)
		}
	}
}

func ExampleIndex_Query_invertedEquivalence() {
	ix := Build([]string{
		"minimize data transfers between host and device",
		"use shared memory to reduce global memory traffic",
		"unrelated sentence about gardening",
	})
	fast := ix.Query("reduce memory transfers", DefaultThreshold)
	dense := ix.QueryDense("reduce memory transfers", DefaultThreshold)
	fmt.Println(len(fast) == len(dense))
	// Output: true
}
