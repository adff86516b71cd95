package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/doc"
)

// randomTermLists generates documents over a small shared vocabulary so that
// document frequencies, zero-IDF terms, and repeated terms all occur.
func randomTermLists(rng *rand.Rand, n int) [][]string {
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	lists := make([][]string, n)
	for i := range lists {
		m := 1 + rng.Intn(12)
		terms := make([]string, m)
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		// "common" appears in every document → IDF 0 → zero-weight entries
		lists[i] = append(terms, "common")
	}
	return lists
}

// randomEdit derives a successor document from termLists: each old document
// is kept (possibly at a shifted position) or dropped, and new documents are
// spliced in. Returns the successor's full term lists plus the kept pairs
// and added docs that describe it for Rebuild.
func randomEdit(rng *rand.Rand, termLists [][]string) ([][]string, []doc.Kept, []AddedDoc) {
	var next [][]string
	var kept []doc.Kept
	var added []AddedDoc
	addNew := func() {
		m := 1 + rng.Intn(8)
		terms := make([]string, m)
		for j := range terms {
			terms[j] = fmt.Sprintf("term%02d", rng.Intn(35)) // may extend the vocab
		}
		added = append(added, AddedDoc{Pos: len(next), Terms: terms})
		next = append(next, terms)
	}
	for i, terms := range termLists {
		for rng.Intn(4) == 0 {
			addNew()
		}
		if rng.Intn(5) == 0 {
			continue // removed
		}
		kept = append(kept, doc.Kept{Old: i, New: len(next)})
		next = append(next, terms)
	}
	for rng.Intn(3) == 0 {
		addNew()
	}
	return next, kept, added
}

// sameIndex compares two indexes exhaustively: global statistics bitwise,
// per-document counted statistics and identities, the shard layout's
// local-to-global document maps, and both backends' weight tables in both
// orders.
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.n != want.n || len(got.docs) != len(want.docs) {
		t.Fatalf("shape: n %d vs %d, shards %d vs %d", got.n, want.n, len(got.docs), len(want.docs))
	}
	if len(got.vocab) != len(want.vocab) {
		t.Fatalf("vocab size: %d vs %d", len(got.vocab), len(want.vocab))
	}
	for term, id := range want.vocab {
		if got.vocab[term] != id {
			t.Fatalf("vocab[%q]: %d vs %d", term, got.vocab[term], id)
		}
	}
	for id := range want.idf {
		if math.Float64bits(got.idf[id]) != math.Float64bits(want.idf[id]) {
			t.Fatalf("idf[%d]: %x vs %x", id, got.idf[id], want.idf[id])
		}
	}
	for i, w := range want.counted {
		g := got.counted[i]
		if g.total != w.total || len(g.terms) != len(w.terms) {
			t.Fatalf("counted[%d]: total %d vs %d, %d terms vs %d", i, g.total, w.total, len(g.terms), len(w.terms))
		}
		for j := range w.terms {
			if g.terms[j] != w.terms[j] || math.Float64bits(g.counts[j]) != math.Float64bits(w.counts[j]) {
				t.Fatalf("counted[%d][%d]: %q/%v vs %q/%v", i, j, g.terms[j], g.counts[j], w.terms[j], w.counts[j])
			}
		}
		if got.ids[i] != want.ids[i] {
			t.Fatalf("ids[%d]: %q vs %q", i, got.ids[i], want.ids[i])
		}
	}
	for sh := range want.docs {
		if len(got.docs[sh]) != len(want.docs[sh]) {
			t.Fatalf("shard %d: %d docs vs %d", sh, len(got.docs[sh]), len(want.docs[sh]))
		}
		for i := range want.docs[sh] {
			if got.docs[sh][i] != want.docs[sh][i] {
				t.Fatalf("shard %d doc map[%d]: %d vs %d", sh, i, got.docs[sh][i], want.docs[sh][i])
			}
		}
		sameTable(t, fmt.Sprintf("shard %d vsm", sh), got.vsm[sh], want.vsm[sh])
		sameTable(t, fmt.Sprintf("shard %d bm25", sh), got.BM25().w[sh], want.BM25().w[sh])
	}
}

// sameTable compares two weight tables term by term in document order,
// every weight by Float64bits.
func sameTable(t *testing.T, label string, got, want []weightList) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d terms vs %d", label, len(got), len(want))
	}
	bitsEq := func(a, b []float64) bool {
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	idsEq := func(a, b []int32) bool {
		for i := range b {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for id := range want {
		g, w := &got[id], &want[id]
		if len(g.docs) != len(w.docs) || len(g.w) != len(w.w) {
			t.Fatalf("%s term %d: list lengths differ", label, id)
		}
		if !idsEq(g.docs, w.docs) || !bitsEq(g.w, w.w) {
			t.Fatalf("%s term %d: document order %v/%v vs %v/%v", label, id, g.docs, g.w, w.docs, w.w)
		}
	}
}

// TestRebuildBitIdentical is the incremental≡full oracle at the index layer:
// for random corpora and random edits, Rebuild over (kept, added) must equal
// a from-scratch BuildFromTerms of the successor's full term lists — every
// IDF, vector weight, posting, and query score Float64bits-identical.
func TestRebuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []string{
		"term03 term17 common", "term00", "common term29 term29", "term34 term05",
	}
	for round := 0; round < 60; round++ {
		termLists := randomTermLists(rng, 3+rng.Intn(40))
		ix := BuildFromTerms(termLists)
		next, kept, added := randomEdit(rng, termLists)

		got, err := ix.Rebuild(kept, added)
		if err != nil {
			t.Fatalf("round %d: Rebuild: %v", round, err)
		}
		want := BuildFromTerms(next)
		sameIndex(t, got, want)

		for _, q := range queries {
			gs, ws := got.QueryAll(q), want.QueryAll(q)
			for i := range ws {
				if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
					t.Fatalf("round %d: query %q doc %d: %x vs %x", round, q, i, gs[i], ws[i])
				}
			}
			gb, wb := got.BM25().Scores(q), want.BM25().Scores(q)
			for i := range wb {
				if math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
					t.Fatalf("round %d: bm25 %q doc %d: %x vs %x", round, q, i, gb[i], wb[i])
				}
			}
		}
	}
}

// TestRebuildChained checks that Rebuild composes: an index produced by
// Rebuild can itself be rebuilt, and the chain stays bit-identical to
// rebuilding from scratch at every step.
func TestRebuildChained(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	termLists := randomTermLists(rng, 20)
	ix := BuildFromTerms(termLists)
	for step := 0; step < 10; step++ {
		next, kept, added := randomEdit(rng, termLists)
		got, err := ix.Rebuild(kept, added)
		if err != nil {
			t.Fatalf("step %d: Rebuild: %v", step, err)
		}
		sameIndex(t, got, BuildFromTerms(next))
		ix, termLists = got, next
	}
}

func TestRebuildValidation(t *testing.T) {
	ix := BuildFromTerms([][]string{{"a"}, {"b"}})
	cases := []struct {
		name  string
		kept  []doc.Kept
		added []AddedDoc
	}{
		{"gap", []doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 2, Terms: []string{"c"}}}},
		{"double", []doc.Kept{{Old: 0, New: 0}, {Old: 1, New: 0}}, nil},
		{"old out of range", []doc.Kept{{Old: 5, New: 0}}, nil},
		{"new negative", []doc.Kept{{Old: 0, New: -1}}, nil},
		{"added collides", []doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 0, Terms: []string{"c"}}}},
	}
	for _, tc := range cases {
		if _, err := ix.Rebuild(tc.kept, tc.added); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// a full tiling succeeds, including the empty successor
	if _, err := ix.Rebuild(nil, nil); err != nil {
		t.Errorf("empty successor: %v", err)
	}
	if _, err := ix.Rebuild([]doc.Kept{{Old: 1, New: 0}}, []AddedDoc{{Pos: 1, Terms: []string{"c"}}}); err != nil {
		t.Errorf("valid tiling: %v", err)
	}
}
