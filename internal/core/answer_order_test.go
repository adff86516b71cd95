package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// seededQueries returns the paper's Table-6 queries plus n seeded queries
// over g's sentences in the served workload's shapes: narrow (a 2–4 word
// fragment) and broad (a Table-6 query followed by two 6–10 word fragments).
func seededQueries(g *corpus.Guide, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	table6 := corpus.CUDAQueries()
	var out []string
	for _, q := range table6 {
		out = append(out, q.Text)
	}
	fragment := func(minWords, maxWords int) string {
		for {
			words := strings.Fields(g.Sentences[rng.Intn(len(g.Sentences))].Text)
			if len(words) < minWords {
				continue
			}
			k := minWords + rng.Intn(maxWords-minWords+1)
			if k > len(words) {
				k = len(words)
			}
			start := rng.Intn(len(words) - k + 1)
			return strings.Join(words[start:start+k], " ")
		}
	}
	for i := 0; i < n; i++ {
		if i%5 < 2 {
			out = append(out, fragment(2, 4))
		} else {
			out = append(out, table6[i%len(table6)].Text+" "+fragment(6, 10)+". "+fragment(6, 10)+".")
		}
	}
	return out
}

// TestQueryAnswersInOrder: the VSM path returns answers in (score desc,
// index asc) order without sorting them itself — the index's matches come
// in that order and the advising filter keeps it — on seeded 10k-sentence
// guides at 1 and 2 shards.
func TestQueryAnswersInOrder(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 10000, 0.15, 5)
	queries := seededQueries(g, 100, 5)
	mono := New().BuildFromSentences(g.Doc, g.Sentences)
	sharded := New(WithShards(2)).BuildFromSentences(g.Doc, g.Sentences)
	if sharded.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", sharded.ShardCount())
	}
	answered := 0
	for _, a := range []*Advisor{mono, sharded} {
		for _, q := range queries {
			got := a.Query(q)
			if len(got) > 1 {
				answered++
			}
			for i := 1; i < len(got); i++ {
				prev, cur := got[i-1], got[i]
				if prev.Score < cur.Score || (prev.Score == cur.Score && prev.Sentence.Index >= cur.Sentence.Index) {
					t.Fatalf("%d shards, %q: answer %d (%d, %v) before answer %d (%d, %v)",
						a.ShardCount(), q, i-1, prev.Sentence.Index, prev.Score, i, cur.Sentence.Index, cur.Score)
				}
			}
		}
	}
	if answered < len(queries) {
		t.Fatalf("only %d of %d queries returned more than one answer", answered, 2*len(queries))
	}
}
