package vsm

import (
	"context"
	"runtime"
	"testing"

	gen "repro/internal/corpus"
	"repro/internal/nvvp"
	"repro/internal/textproc"
)

// TestMatchesTermsAllocs guards the pooled per-shard score buffer: once
// warm, a 10k-document single-shard MatchesTermsCtx on a broad query (a
// profiler issue text, as reports send) must allocate less than the 8·n
// bytes a fresh dense score slice would cost.
func TestMatchesTermsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := gen.GenerateSized(gen.CUDA, 10000, 0.15, 1)
	texts := g.Texts()
	terms := make([][]string, len(texts))
	for i, s := range texts {
		terms[i] = textproc.NormalizeTerms(s)
	}
	ix := BuildFromTerms(terms)
	limit := uint64(8 * ix.Len())
	ctx := context.Background()
	for _, prog := range nvvp.Programs() {
		text, err := nvvp.Synthesize(prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := nvvp.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, issue := range rep.Issues() {
			q := textproc.NormalizeTerms(issue.Query())
			if len(ix.MatchesTermsCtx(ctx, q, DefaultThreshold)) == 0 {
				t.Fatalf("%s %q: no matches, not a broad query", prog, issue.Title)
			}
			const runs = 50
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				ix.MatchesTermsCtx(ctx, q, DefaultThreshold)
			}
			runtime.ReadMemStats(&m1)
			if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= limit {
				t.Errorf("%s %q (%d terms): %d bytes per call, want < %d", prog, issue.Title, len(q), per, limit)
			}
		}
	}
}
