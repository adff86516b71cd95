package vsm

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Backend names understood by Index.Scorer.
const (
	// BackendVSM is the paper's Stage-II model: TF-IDF weights with cosine
	// similarity (Eqs. 1-2) and the 0.15 recommendation threshold. It is the
	// default backend everywhere a backend is selectable.
	BackendVSM = "vsm"
	// BackendBM25 is Okapi BM25 over the same index — the lexical
	// retrieval ablation, selectable per query.
	BackendBM25 = "bm25"
)

// ErrUnknownBackend reports a backend name Index.Scorer does not know.
var ErrUnknownBackend = errors.New("vsm: unknown scoring backend")

// Scorer is a pluggable Stage-II scoring backend over the sentences of one
// Index. ScoreTermsCtx returns one score per sentence for a pre-normalized
// query term list; scores are comparable only within a single backend (a
// cosine similarity and a BM25 score live on different scales).
type Scorer interface {
	// Backend names the scoring model ("vsm", "bm25").
	Backend() string
	// ScoreTermsCtx scores every sentence for the query terms, recording a
	// child span when ctx carries a sampled trace.
	ScoreTermsCtx(ctx context.Context, terms []string) []float64
}

// Backends lists the scoring backends every Index offers, default first.
func Backends() []string { return []string{BackendVSM, BackendBM25} }

// ValidBackend reports whether name selects a known backend; the empty
// string selects the default (VSM) and is valid.
func ValidBackend(name string) bool {
	return name == "" || name == BackendVSM || name == BackendBM25
}

// Backend implements Scorer: the Index itself is the TF-IDF/cosine backend.
func (ix *Index) Backend() string { return BackendVSM }

// ScoreTermsCtx implements Scorer by delegating to QueryAllTermsCtx, so
// scoring through the Scorer interface is bit-identical to the direct path
// (pinned by TestScorerVSMBitIdentical).
func (ix *Index) ScoreTermsCtx(ctx context.Context, terms []string) []float64 {
	return ix.QueryAllTermsCtx(ctx, terms)
}

// Scorer returns the named scoring backend over this index. The empty
// string and "vsm" return the index itself (the paper-faithful default);
// "bm25" returns the BM25 view over the same index. Anything else is
// ErrUnknownBackend.
func (ix *Index) Scorer(backend string) (Scorer, error) {
	switch backend {
	case "", BackendVSM:
		return ix, nil
	case BackendBM25:
		return ix.BM25(), nil
	}
	return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownBackend, backend, strings.Join(Backends(), ", "))
}

// serialScoringKey marks a context whose Stage-II scoring must stay on the
// calling goroutine.
type serialScoringKey struct{}

// WithSerialScoring marks ctx so scoring under it runs on the calling
// goroutine instead of fanning out across shards in GOMAXPROCS workers. A
// batch executor that is already parallel across queries uses this to
// avoid nested parallelism: P workers scoring serially beat P×GOMAXPROCS
// goroutines contending for the same cores. Scores are bit-identical to
// the parallel pass (each shard owns a disjoint set of documents).
func WithSerialScoring(ctx context.Context) context.Context {
	return context.WithValue(ctx, serialScoringKey{}, true)
}

// SerialScoring reports whether ctx carries the WithSerialScoring mark.
func SerialScoring(ctx context.Context) bool {
	v, _ := ctx.Value(serialScoringKey{}).(bool)
	return v
}
