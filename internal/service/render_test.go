package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/selectors"
)

var (
	guide10kOnce sync.Once
	guide10k     *corpus.Guide
	advisor10k   *core.Advisor
)

// tenKAdvisor builds one 10k-sentence CUDA advisor (the cold-10k scale) for
// the whole test package.
func tenKAdvisor(t testing.TB) (*corpus.Guide, *core.Advisor) {
	t.Helper()
	guide10kOnce.Do(func() {
		guide10k = corpus.GenerateSized(corpus.CUDA, 10000, 0.15, 3)
		advisor10k = core.New().BuildFromSentences(guide10k.Doc, guide10k.Sentences)
	})
	return guide10k, advisor10k
}

// broadQuery returns the query of renderQueries with the most answers on
// the 10k advisor, and its answers.
func broadQuery(t testing.TB) (string, []core.Answer) {
	t.Helper()
	g, adv := tenKAdvisor(t)
	var best string
	var most []core.Answer
	for _, q := range renderQueries(g, 20, 3) {
		if as := adv.Query(q); len(as) > len(most) {
			best, most = q, as
		}
	}
	if len(most) < 100 {
		t.Fatalf("fixture: broadest query has %d answers", len(most))
	}
	return best, most
}

// renderQueries returns the paper's Table-6 queries plus n seeded queries
// over g's sentences, narrow (2–4 words) and broad (a Table-6 query plus
// two 6–10 word fragments), the shapes of the served benchmark.
func renderQueries(g *corpus.Guide, n int, seed int64) []string {
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
			k := min(minWords+rng.Intn(maxWords-minWords+1), len(words))
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

// encodeJSON is the oracle: what writeJSON sends for v.
func encodeJSON(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// rendered runs one bodyWriter render into a fresh buffer.
func rendered(render func(bodyWriter) error) ([]byte, error) {
	var buf bytes.Buffer
	err := render(bodyWriter{buf: &buf, enc: newEncoder(&buf)})
	return buf.Bytes(), err
}

// sameBody fails unless the renderer and encoding/json agree: both error,
// or neither does and the bytes are equal.
func sameBody(t testing.TB, label string, render func(bodyWriter) error, wire any) {
	t.Helper()
	want, werr := encodeJSON(t, wire)
	got, gerr := rendered(render)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: render error %v, encoding/json error %v", label, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: rendered body differs from encoding/json\n got %q\nwant %q", label, got, want)
	}
}

func withAnswers(r QueryResponse, answers []core.Answer) QueryResponse {
	r.Answers = toAnswers(answers)
	return r
}

// TestRenderQueryMatchesEncodingJSON: over the Table-6 and seeded queries,
// on paper-scale cuda/opencl/xeon advisors and a 10k CUDA guide at 1 and 2
// shards, with both backends, the rendered query body is byte-identical to
// encoding/json of its QueryResponse — and every answer came from the
// fragment table, not the on-the-spot fallback.
func TestRenderQueryMatchesEncodingJSON(t *testing.T) {
	type subject struct {
		name string
		g    *corpus.Guide
		adv  *core.Advisor
	}
	var subjects []subject
	for name, reg := range map[string]corpus.Register{"cuda": corpus.CUDA, "opencl": corpus.OpenCL, "xeon": corpus.XeonPhi} {
		g, adv := experiments.BuildAdvisor(reg)
		subjects = append(subjects, subject{name, g, adv})
	}
	g10k, adv10k := tenKAdvisor(t)
	subjects = append(subjects,
		subject{"cuda-10k", g10k, adv10k},
		subject{"cuda-10k-2shards", g10k, core.New(core.WithShards(2)).BuildFromSentences(g10k.Doc, g10k.Sentences)},
	)
	ctx := context.Background()
	for _, s := range subjects {
		frags := newRuleFrags(s.adv.Rules())
		var empty, answered int
		for qi, q := range renderQueries(s.g, 40, 17) {
			for _, backend := range []string{"", "bm25"} {
				answers, err := s.adv.QueryTermsBackendCtx(ctx, backend, nlp.QueryTerms(q))
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range answers {
					if frags.lookup(a.Sentence) == nil {
						t.Fatalf("%s: answer %d has no fragment", s.name, a.Sentence.Index)
					}
				}
				if len(answers) == 0 {
					empty++
				} else {
					answered++
				}
				resp := QueryResponse{Advisor: s.name, Query: q, Backend: backend, Count: len(answers)}
				if qi%3 == 1 {
					resp.TraceID = fmt.Sprintf("%016x", qi)
				}
				if qi%4 == 2 {
					resp.ShardsFailed = 1
				}
				sameBody(t, s.name+" "+q, func(b bodyWriter) error { return b.query(frags, &resp, answers) }, withAnswers(resp, answers))
			}
		}
		if answered == 0 {
			t.Errorf("%s: no query answered", s.name)
		}
		t.Logf("%s: %d answered, %d empty answer lists", s.name, answered, empty)
	}
}

// hostile are strings encoding/json escapes: quotes and backslashes, control
// bytes, invalid UTF-8, U+2028/U+2029, and HTML's <&> (left unescaped, as
// writeJSON's SetEscapeHTML(false) leaves them).
var hostile = []string{
	"",
	`say "hi" \ there`,
	"tab\tnl\nnul\x00 esc\x1b del\x7f",
	"bad utf8 \xff\xfe\xc3",
	"line sep \u2028 para sep \u2029",
	"<script>a && b</script>",
	"unicode 漢字 and emoji \U0001F600",
}

// hostileAnswers builds answers over sentences carrying the hostile strings
// as text and section, with scores in every encoding/json float format.
func hostileAnswers() ([]core.AdvisingSentence, []core.Answer) {
	scores := []float64{0.9, 0.15, 1, 0, math.Copysign(0, -1), 1e-7, 5e-324, 1e21, 123456789.125, 1e20, 1.5e-6}
	var rules []core.AdvisingSentence
	var answers []core.Answer
	for i, text := range hostile {
		s := core.AdvisingSentence{
			Index:    3 * i,
			Text:     text,
			Section:  hostile[(i+1)%len(hostile)],
			Selector: selectors.SelectorID(i % 7),
		}
		rules = append(rules, s)
		answers = append(answers, core.Answer{Sentence: s, Score: scores[i%len(scores)]})
	}
	for i, sc := range scores {
		answers = append(answers, core.Answer{Sentence: rules[i%len(rules)], Score: sc})
	}
	return rules, answers
}

// TestRenderEdgeCases: every body shape the wire structs allow, with
// hostile strings in rules and envelopes — empty answer lists, a report
// with no issues, failed batch items, shards_failed, trace_id present and
// absent, and NaN/Inf scores failing like encoding/json does.
func TestRenderEdgeCases(t *testing.T) {
	rules, answers := hostileAnswers()
	frags := newRuleFrags(rules)
	for i, str := range hostile {
		for _, fr := range []*ruleFrags{frags, nil} {
			for _, as := range [][]core.Answer{nil, answers[:1], answers} {
				q := QueryResponse{Advisor: str, Query: hostile[(i+2)%len(hostile)], Backend: str, Count: len(as), ShardsFailed: i % 2, TraceID: str}
				sameBody(t, "query", func(b bodyWriter) error { return b.query(fr, &q, as) }, withAnswers(q, as))

				rep := ReportResponse{Advisor: str, Program: str, TraceID: str}
				sameBody(t, "report without issues", func(b bodyWriter) error { return b.report(fr, &rep, nil) }, rep)
				repAnswers := [][]core.Answer{as, nil}
				rep.Issues = []IssueAnswers{
					{Title: str, Section: str, Count: len(as)},
					{Title: hostile[(i+1)%len(hostile)], Count: 0},
				}
				wire := rep
				wire.Issues = append([]IssueAnswers(nil), rep.Issues...)
				for j := range wire.Issues {
					wire.Issues[j].Answers = toAnswers(repAnswers[j])
				}
				sameBody(t, "report", func(b bodyWriter) error { return b.report(fr, &rep, repAnswers) }, wire)

				batchAnswers := [][]core.Answer{as, nil, nil, nil}
				br := BatchResponse{Count: 4, Errors: 2, TraceID: str, Results: []BatchItemResult{
					{Advisor: str, Query: str, Backend: str, Count: len(as), Cache: "miss", TraceID: str},
					{Advisor: "cuda", Query: "no answers", Count: 0, Cache: "hit", TraceID: "t1"},
					{Advisor: str, Query: "", Error: "empty query", TraceID: str},
					{Advisor: "nope", Query: str, Backend: "bm25", Error: str},
				}}
				bwire := br
				bwire.Results = append([]BatchItemResult(nil), br.Results...)
				for j := range bwire.Results {
					if bwire.Results[j].Error == "" {
						bwire.Results[j].Answers = toAnswers(batchAnswers[j])
					}
				}
				lookup := func(string) *ruleFrags { return fr }
				sameBody(t, "batch", func(b bodyWriter) error { return b.batch(lookup, &br, batchAnswers) }, bwire)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		as := []core.Answer{answers[0], {Sentence: rules[1], Score: bad}}
		q := QueryResponse{Advisor: "cuda", Query: "q", Count: 2}
		sameBody(t, fmt.Sprint(bad), func(b bodyWriter) error { return b.query(frags, &q, as) }, withAnswers(q, as))
		rec := httptest.NewRecorder()
		writeRendered(rec, http.StatusOK, func(b bodyWriter) error { return b.query(frags, &q, as) })
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `{"error":"encode response"}`) {
			t.Errorf("%v score: status %d body %q, want writeJSON's 500", bad, rec.Code, rec.Body.String())
		}
	}
}

// TestRenderHandlersCanonical: the bodies the query, batch and report
// handlers serve decode into their wire structs and re-encode through
// encoding/json to the same bytes — each is exactly encoding/json's
// rendering of what it says.
func TestRenderHandlersCanonical(t *testing.T) {
	_, ts := newTestService(t, Options{})
	check := func(label string, body []byte, wire any) {
		t.Helper()
		if err := json.Unmarshal(body, wire); err != nil {
			t.Fatalf("%s: %v in %s", label, err, body)
		}
		want, err := encodeJSON(t, wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: served body is not encoding/json's\n got %s\nwant %s", label, body, want)
		}
	}
	for _, q := range []string{"memory coalescing", "zyzzyva nothing matches", "use shared memory to avoid bank conflicts", `"quoted" <b>&amp;</b> \x`} {
		for _, backend := range []string{"", "bm25"} {
			u := ts.URL + "/v1/cuda/query?q=" + url.QueryEscape(q)
			if backend != "" {
				u += "&backend=" + backend
			}
			code, body := get(t, u)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d", u, code)
			}
			check(u, body, &QueryResponse{})
		}
	}
	batch := `{"queries":[{"advisor":"cuda","query":"memory coalescing"},` +
		`{"advisor":"cuda","query":"zyzzyva"},{"advisor":"nope","query":"x"},` +
		`{"advisor":"cuda","query":"  "},{"advisor":"cuda","query":"bank conflicts","backend":"bm25"},` +
		`{"advisor":"cuda","query":"q","backend":"nope"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var br BatchResponse
	check("batch", body, &br)
	if br.Errors != 3 {
		t.Fatalf("batch: %d errors, want 3", br.Errors)
	}
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	for label, report := range map[string]string{"report": text, "empty report": "{}"} {
		resp, err := http.Post(ts.URL+"/v1/cuda/report", "text/plain", strings.NewReader(report))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", label, resp.StatusCode, body)
		}
		check(label, body, &ReportResponse{})
	}
}

// TestRenderReloadRace: answers computed on advisor v0 and rendered after
// Replace(v1) — where v1 changed the text at the same sentence index —
// render to v0's encoding/json bytes: the registry's table now holds v1's
// rules, so the changed rule is rendered on the spot from the answer itself.
func TestRenderReloadRace(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 7)
	v0 := core.New().BuildFromSentences(g.Doc, g.Sentences)
	const q = "memory coalescing"
	answers := v0.Query(q)
	if len(answers) == 0 {
		t.Fatal("fixture: v0 does not answer the query")
	}
	changed := answers[0].Sentence.Index
	sents := append(g.Sentences[:0:0], g.Sentences...)
	sents[changed].Text = strings.TrimSuffix(sents[changed].Text, ".") + " in every \"revised\" kernel."
	v1 := core.New().BuildFromSentences(g.Doc, sents)
	var found bool
	for _, r := range v1.Rules() {
		if r.Index == changed {
			found = r.Text != answers[0].Sentence.Text
		}
	}
	if !found {
		t.Fatalf("fixture: v1 has no changed rule at sentence %d", changed)
	}
	reg := NewRegistry()
	reg.Add("cuda", v0)
	svc := New(reg, Options{})
	svc.Reload("cuda", v1)
	resp := QueryResponse{Advisor: "cuda", Query: q, Count: len(answers)}
	frags := reg.fragments("cuda")
	if frags.lookup(answers[0].Sentence) != nil {
		t.Fatal("v1's table claims v0's changed rule")
	}
	sameBody(t, "v0 answers after Replace(v1)", func(b bodyWriter) error { return b.query(frags, &resp, answers) }, withAnswers(resp, answers))
}

// TestQueryContentLength: a broad query's body is sent with a
// Content-Length equal to its length, not chunk-encoded.
func TestQueryContentLength(t *testing.T) {
	_, adv := tenKAdvisor(t)
	q, _ := broadQuery(t)
	reg := NewRegistry()
	reg.Add("cuda", adv)
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %v, want none", resp.TransferEncoding)
	}
}

// TestRenderAllocsPerAnswer guards the fragment path: rendering a broad
// 10k-sentence query response allocates nothing per answer — the whole
// response allocates no more, in count or bytes, than a one-answer one.
func TestRenderAllocsPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	_, adv := tenKAdvisor(t)
	q, answers := broadQuery(t)
	frags := newRuleFrags(adv.Rules())
	w := &discardResponse{h: http.Header{}}
	measure := func(as []core.Answer) (allocs float64, bytes uint64) {
		resp := QueryResponse{Advisor: "cuda", Query: q, Count: len(as), TraceID: "0123456789abcdef"}
		render := func() {
			writeRendered(w, http.StatusOK, func(b bodyWriter) error { return b.query(frags, &resp, as) })
		}
		render()
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			render()
		}
		runtime.ReadMemStats(&m1)
		return testing.AllocsPerRun(runs, render), (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	oneAllocs, oneBytes := measure(answers[:1])
	allAllocs, allBytes := measure(answers)
	if allAllocs > oneAllocs {
		t.Errorf("%d answers: %.0f allocs per render, 1 answer: %.0f", len(answers), allAllocs, oneAllocs)
	}
	if allBytes > oneBytes+uint64(len(answers)) {
		t.Errorf("%d answers: %d bytes per render, 1 answer: %d", len(answers), allBytes, oneBytes)
	}
}

// FuzzRenderAnswers: for arbitrary rule text, section, query and score
// bits, the rendered query body — from the fragment table and from the
// on-the-spot fallback — equals encoding/json's, or both fail (NaN, ±Inf).
// Seeds live in testdata/fuzz/FuzzRenderAnswers (guide sentences and
// Table-6 queries; regenerate with `go run ./tools/fuzzseed`) plus the
// edge cases below.
func FuzzRenderAnswers(f *testing.F) {
	for i, s := range hostile {
		f.Add(s, hostile[(i+1)%len(hostile)], hostile[(i+2)%len(hostile)], math.Float64bits(0.25))
	}
	for _, sc := range []float64{0, 1e-6, 9.99e-7, 1e21, 1e-300, math.NaN(), math.Inf(-1)} {
		f.Add("Use shared memory.", "5.3.2. Device Memory Accesses", "bank conflicts", math.Float64bits(sc))
	}
	f.Fuzz(func(t *testing.T, text, section, query string, scoreBits uint64) {
		s := core.AdvisingSentence{Index: 7, Text: text, Section: section, Selector: selectors.Imperative}
		other := core.AdvisingSentence{Index: 2, Text: section, Section: text, Selector: selectors.Keyword}
		answers := []core.Answer{{Sentence: s, Score: math.Float64frombits(scoreBits)}, {Sentence: other, Score: 0.5}}
		resp := QueryResponse{Advisor: "cuda", Query: query, Count: len(answers), TraceID: query}
		for _, frags := range []*ruleFrags{newRuleFrags([]core.AdvisingSentence{other, s}), nil} {
			sameBody(t, "fuzz", func(b bodyWriter) error { return b.query(frags, &resp, answers) }, withAnswers(resp, answers))
		}
	})
}

// BenchmarkRenderQueryResponse renders one broad 10k-sentence query response
// (the cold-10k shape) into a discarding writer: the fragment path the
// handler uses, and encoding/json of the wire struct (writeJSON) for
// comparison.
func BenchmarkRenderQueryResponse(b *testing.B) {
	_, adv := tenKAdvisor(b)
	q, answers := broadQuery(b)
	frags := newRuleFrags(adv.Rules())
	resp := QueryResponse{Advisor: "cuda", Query: q, Count: len(answers), TraceID: "0123456789abcdef"}
	w := &discardResponse{h: http.Header{}}
	b.Run("fragments", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeRendered(w, http.StatusOK, func(bw bodyWriter) error { return bw.query(frags, &resp, answers) })
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, withAnswers(resp, answers))
		}
	})
}
