package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/doc"
)

// The sharded differential suite: metamorphic properties pinning
// ShardedIndex to the monolithic Index bit-for-bit. Every comparison is on
// math.Float64bits — "close" is not equivalence.

// idsFor stamps deterministic unique identities for a term-list corpus.
func idsFor(n int, gen *int) []doc.SentenceID {
	ids := make([]doc.SentenceID, n)
	for i := range ids {
		ids[i] = doc.SentenceID(fmt.Sprintf("sent-%06d", *gen))
		*gen++
	}
	return ids
}

// diffQueries exercises in-vocab, out-of-vocab, zero-IDF ("common" is in
// every generated document), and repeated terms.
var diffQueries = []string{
	"term03 term17 common",
	"term00",
	"common term29 term29",
	"term34 term05",
	"nosuchterm",
}

func sameScores(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: score lengths %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: doc %d: %x vs %x", label, i, got[i], want[i])
		}
	}
}

// TestShardedBitIdenticalAcrossShardCounts is the heart of the suite: 100
// random corpora, each indexed monolithically and at every shard count in
// 1..8, must produce Float64bits-identical score slices for both backends.
func TestShardedBitIdenticalAcrossShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gen := 0
	for round := 0; round < 100; round++ {
		termLists := randomTermLists(rng, 3+rng.Intn(40))
		ids := idsFor(len(termLists), &gen)
		mono := BuildFromTerms(termLists)
		q := diffQueries[round%len(diffQueries)]
		wantVSM := mono.QueryAll(q)
		wantBM25 := mono.BM25().Scores(q)
		for nShards := 1; nShards <= 8; nShards++ {
			sh := BuildShardedFromTerms(termLists, ids, nShards)
			if sh.Len() != mono.Len() {
				t.Fatalf("round %d shards %d: Len %d vs %d", round, nShards, sh.Len(), mono.Len())
			}
			label := fmt.Sprintf("round %d shards %d query %q", round, nShards, q)
			sameScores(t, label+" vsm", sh.QueryAll(q), wantVSM)
			sameScores(t, label+" bm25", sh.BM25().Scores(q), wantBM25)
		}
	}
}

// TestShardedPermutationInvariance: permuting the document order (identities
// riding along) permutes the score slice and nothing else — scores stay
// bit-identical per document, at several shard counts.
func TestShardedPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	gen := 0
	for round := 0; round < 25; round++ {
		termLists := randomTermLists(rng, 5+rng.Intn(30))
		ids := idsFor(len(termLists), &gen)
		perm := rng.Perm(len(termLists))
		permLists := make([][]string, len(termLists))
		permIDs := make([]doc.SentenceID, len(ids))
		for newPos, oldPos := range perm {
			permLists[newPos] = termLists[oldPos]
			permIDs[newPos] = ids[oldPos]
		}
		for _, nShards := range []int{1, 2, 3, 5, 8} {
			orig := BuildShardedFromTerms(termLists, ids, nShards)
			shuf := BuildShardedFromTerms(permLists, permIDs, nShards)
			for _, q := range diffQueries {
				os, ss := orig.QueryAll(q), shuf.QueryAll(q)
				for newPos, oldPos := range perm {
					if math.Float64bits(ss[newPos]) != math.Float64bits(os[oldPos]) {
						t.Fatalf("round %d shards %d %q: permuted doc %d (was %d): %x vs %x",
							round, nShards, q, newPos, oldPos, ss[newPos], os[oldPos])
					}
				}
				ob, sb := orig.BM25().Scores(q), shuf.BM25().Scores(q)
				for newPos, oldPos := range perm {
					if math.Float64bits(sb[newPos]) != math.Float64bits(ob[oldPos]) {
						t.Fatalf("round %d shards %d bm25 %q: permuted doc %d (was %d): %x vs %x",
							round, nShards, q, newPos, oldPos, sb[newPos], ob[oldPos])
					}
				}
			}
		}
	}
}

// TestShardedQueryAndTopKMatchMonolithic pins the match-list paths: Query
// (threshold filter, full sort) and TopK (per-shard bounded selection +
// k-way merge) must reproduce the monolithic lists exactly — same indices,
// same score bits, same order. Duplicated documents force score ties, so
// this also pins tie stability: ties resolve by ascending global index in
// both layouts.
func TestShardedQueryAndTopKMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gen := 0
	for round := 0; round < 40; round++ {
		termLists := randomTermLists(rng, 4+rng.Intn(24))
		// duplicate a few documents verbatim: identical term lists score
		// identically, producing exact ties at distinct indices
		for d := 0; d < 3 && len(termLists) > 0; d++ {
			termLists = append(termLists, termLists[rng.Intn(len(termLists))])
		}
		ids := idsFor(len(termLists), &gen)
		mono := BuildFromTerms(termLists)
		for _, nShards := range []int{1, 2, 4, 7, 8} {
			sh := BuildShardedFromTerms(termLists, ids, nShards)
			for _, q := range diffQueries {
				for _, threshold := range []float64{DefaultThreshold, 0.01, 0} {
					want := mono.Query(q, threshold)
					got := sh.Query(q, threshold)
					sameMatches(t, fmt.Sprintf("round %d shards %d Query(%q,%v)", round, nShards, q, threshold), got, want)
					for _, k := range []int{0, 1, 3, 10, 1000} {
						wantK := mono.TopK(q, k, threshold)
						gotK := sh.TopK(q, k, threshold)
						sameMatches(t, fmt.Sprintf("round %d shards %d TopK(%q,%d,%v)", round, nShards, q, k, threshold), gotK, wantK)
					}
				}
			}
		}
	}
}

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: match %d: (%d, %x) vs (%d, %x)",
				label, i, got[i].Index, got[i].Score, want[i].Index, want[i].Score)
		}
	}
}

// shardedEdit extends randomEdit with identity bookkeeping: kept sentences
// carry their IDs forward (so they stay in their shard), added sentences
// get fresh ones.
func shardedEdit(rng *rand.Rand, termLists [][]string, ids []doc.SentenceID, gen *int) ([][]string, []doc.SentenceID, []doc.Kept, []AddedDoc) {
	next, kept, added := randomEdit(rng, termLists)
	nextIDs := make([]doc.SentenceID, len(next))
	for _, k := range kept {
		nextIDs[k.New] = ids[k.Old]
	}
	for i := range added {
		id := doc.SentenceID(fmt.Sprintf("sent-%06d", *gen))
		*gen++
		added[i].ID = id
		nextIDs[added[i].Pos] = id
	}
	return next, nextIDs, kept, added
}

// sameShardedIndex compares two sharded indexes exhaustively; sameIndex
// already covers the shard layout (document maps, identities, per-shard
// tables).
func sameShardedIndex(t *testing.T, got, want *Index) {
	t.Helper()
	sameIndex(t, got, want)
}

// TestShardedRebuildEqualsColdBuild: a sharded Rebuild over a random edit
// script is bit-identical to a cold sharded build of the successor corpus —
// including the shard assignment of every kept sentence — and both stay
// bit-identical to the monolithic index. The chain runs 6 steps, covering
// the acceptance criterion of >= 3 chained incremental rebuilds.
func TestShardedRebuildEqualsColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	gen := 0
	for _, nShards := range []int{2, 4, 8} {
		termLists := randomTermLists(rng, 20)
		ids := idsFor(len(termLists), &gen)
		sh := BuildShardedFromTerms(termLists, ids, nShards)
		for step := 0; step < 6; step++ {
			next, nextIDs, kept, added := shardedEdit(rng, termLists, ids, &gen)
			got, err := sh.Rebuild(kept, added)
			if err != nil {
				t.Fatalf("shards %d step %d: Rebuild: %v", nShards, step, err)
			}
			cold := BuildShardedFromTerms(next, nextIDs, nShards)
			sameShardedIndex(t, got, cold)
			mono := BuildFromTerms(next)
			for _, q := range diffQueries {
				sameScores(t, fmt.Sprintf("shards %d step %d vsm %q", nShards, step, q), got.QueryAll(q), mono.QueryAll(q))
				sameScores(t, fmt.Sprintf("shards %d step %d bm25 %q", nShards, step, q), got.BM25().Scores(q), mono.BM25().Scores(q))
			}
			sh, termLists, ids = got, next, nextIDs
		}
	}
}

// TestShardedRebuildValidation: the sharded Rebuild enforces the same tiling
// contract as the monolithic one.
func TestShardedRebuildValidation(t *testing.T) {
	gen := 0
	lists := [][]string{{"a"}, {"b"}}
	sh := BuildShardedFromTerms(lists, idsFor(2, &gen), 2)
	if _, err := sh.Rebuild([]doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 2, Terms: []string{"c"}, ID: "x"}}); err == nil {
		t.Error("gap: want error, got nil")
	}
	if _, err := sh.Rebuild([]doc.Kept{{Old: 0, New: 0}, {Old: 1, New: 0}}, nil); err == nil {
		t.Error("double assignment: want error, got nil")
	}
	if _, err := sh.Rebuild([]doc.Kept{{Old: 5, New: 0}}, nil); err == nil {
		t.Error("old out of range: want error, got nil")
	}
	next, err := sh.Rebuild(nil, nil)
	if err != nil {
		t.Fatalf("empty successor: %v", err)
	}
	if next.Len() != 0 || next.ShardCount() != 2 {
		t.Fatalf("empty successor: Len %d ShardCount %d, want 0 and 2", next.Len(), next.ShardCount())
	}
}

// TestShardedSerialScoringBitIdentical: WithSerialScoring keeps the fan-out
// on one goroutine and must not change a single bit.
func TestShardedSerialScoringBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	gen := 0
	termLists := randomTermLists(rng, 50)
	sh := BuildShardedFromTerms(termLists, idsFor(len(termLists), &gen), 4)
	for _, q := range diffQueries {
		terms := splitTerms(q)
		par := sh.QueryAllTerms(terms)
		ser := sh.QueryAllTermsCtx(WithSerialScoring(t.Context()), terms)
		sameScores(t, "serial vs parallel "+q, ser, par)
	}
}

func splitTerms(q string) []string {
	var out []string
	cur := ""
	for _, r := range q + " " {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	return out
}
