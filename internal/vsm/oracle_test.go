package vsm

import "repro/internal/textproc"

// The dense reference oracle: document vectors recomputed from each
// document's counted statistics, scored by a sparse dot product — none of
// the weight tables, accumulator or selection machinery the index serves
// from. The differential suites compare the served paths against it.

// BuildFromTokens constructs an index over pre-tokenized sentences,
// normalizing each token list without re-tokenizing.
func BuildFromTokens(tokenLists [][]string) *Index {
	terms := make([][]string, len(tokenLists))
	for i, toks := range tokenLists {
		terms[i] = textproc.NormalizeWords(toks)
	}
	return BuildFromTerms(terms)
}

// dot computes the dot product of two sparse vectors sorted by term id.
func dot(a, b []entry) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].term == b[j].term:
			s += a[i].weight * b[j].weight
			i++
			j++
		case a[i].term < b[j].term:
			i++
		default:
			j++
		}
	}
	return s
}

// QueryVector builds the normalized query vector for raw query text.
func (ix *Index) QueryVector(query string) []entry {
	return ix.vectorize(textproc.NormalizeTerms(query))
}

// docVec recomputes document i's normalized TF-IDF vector.
func (ix *Index) docVec(i int) []entry { return ix.vectorizeCounted(ix.counted[i]) }

// Similarity returns the cosine similarity between sentence i and the query.
func (ix *Index) Similarity(i int, query string) float64 {
	if i < 0 || i >= ix.n {
		return 0
	}
	return dot(ix.docVec(i), ix.QueryVector(query))
}

// QuerySerial scores every document against the query by dot product.
func (ix *Index) QuerySerial(query string) []float64 {
	qv := ix.QueryVector(query)
	scores := make([]float64, ix.n)
	if len(qv) == 0 {
		return scores
	}
	for i := range scores {
		scores[i] = dot(ix.docVec(i), qv)
	}
	return scores
}

// QueryDense is Query by dense scan: every document scored by dot product,
// filtered at threshold and sorted best first.
func (ix *Index) QueryDense(query string, threshold float64) []Match {
	if len(ix.QueryVector(query)) == 0 {
		return nil
	}
	var out []Match
	for i, s := range ix.QuerySerial(query) {
		if s >= threshold {
			out = append(out, Match{Index: i, Score: s})
		}
	}
	sortMatches(out)
	return out
}

// Cosine computes the cosine similarity of two raw texts under this index's
// TF-IDF weights.
func (ix *Index) Cosine(a, b string) float64 {
	return dot(ix.QueryVector(a), ix.QueryVector(b))
}
