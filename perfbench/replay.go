package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/vsm"
)

// The traced run replays a workload's generated inputs in process, in the
// order the served run sent them, and records a span around every public
// call into a layer. Spans live in memory and are written out at the end.
//
// Two services over the same advisors replay the same request sequence, so
// their caches evolve identically: service A answers each request through
// Service.ServeHTTP (the handler time), service B repeats it call by call —
// CachedQueryFull, then on a miss the same retrieval through core and vsm,
// then the JSON encoding — so each layer's cost is measured on the request
// that incurred it. The calls on B are logical children of A's handler
// span: a layer's self time is its span minus its children's spans.

// span is one recorded call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // replayed request index
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// us is a span's duration in microseconds.
func (t *tracer) us(id int) float64 { return float64(t.spans[id].End-t.spans[id].Start) / 1e3 }

// selfUS returns every span's self time: its duration minus its children's.
func (t *tracer) selfUS() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] += t.us(i)
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.us(i)
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayItem is one step of the replay.
type replayItem struct {
	req      request
	measured bool     // false for warm-up requests
	served   *outcome // the served request it mirrors, for service.http_us
}

// layerRun holds the in-process state of one replay.
type layerRun struct {
	fw      *core.Framework
	svcA    *service.Service
	svcB    *service.Service
	advs    map[string]*core.Advisor
	retr    map[string]vsm.Retriever
	bm25    map[string]vsm.Scorer
	tr      *tracer
	version int
	docs    []*htmldoc.Document // cuda versions 1..n
	advList []string
}

// retriever builds an index from the advisor's own terms and identities
// with the served shard count and pruning default, bit-identical to the
// advisor's; scoring it times the vsm layer alone.
func (lr *layerRun) retriever(name string, sens []htmldoc.Sentence, a *core.Advisor, shards int) {
	terms := make([][]string, len(sens))
	for i, s := range sens {
		terms[i] = nlp.QueryTerms(s.Text)
	}
	var r vsm.Retriever
	if shards > 1 {
		r = vsm.BuildShardedFromTerms(terms, a.SentenceIDs(), shards)
	} else {
		r = vsm.BuildFromTerms(terms)
	}
	sc, err := r.Scorer(vsm.BackendBM25)
	if err != nil {
		panic(err) // bm25 is always a valid backend
	}
	// first use builds the lazy pruning and BM25 state, as the warm-up does
	// on the served indexes
	r.MatchesTermsCtx(context.Background(), terms[0], vsm.DefaultThreshold)
	sc.ScoreTermsCtx(context.Background(), terms[0])
	lr.retr[name], lr.bm25[name] = r, sc
}

// layerMetrics runs the traced replay and returns the per-layer metrics it
// measures, plus the span trace.
func layerMetrics(guides []*guide, versions []*htmldoc.Document, shards int, items []replayItem, m map[string]float64) (*tracer, error) {
	lr := &layerRun{
		fw:   newFramework(shards),
		advs: map[string]*core.Advisor{},
		retr: map[string]vsm.Retriever{},
		bm25: map[string]vsm.Scorer{},
		docs: versions,
	}
	regA, regB := service.NewRegistry(), service.NewRegistry()
	var annotate, classify, index time.Duration
	var heap int64
	docs := 0
	for _, g := range guides {
		a := lr.fw.BuildFromSentences(g.doc, g.sens)
		st := a.BuildStats()
		annotate += st.Annotate
		classify += st.Classify
		index += st.Indexing
		lr.advs[g.name] = a
		regA.Add(g.name, a)
		regB.Add(g.name, a)
		before := heapInUse()
		lr.retriever(g.name, g.sens, a, shards)
		heap += heapInUse() - before
		docs += len(g.sens)
		lr.advList = append(lr.advList, g.name)
	}
	m["nlp.annotate_s"] = annotate.Seconds()
	m["selectors.classify_s"] = classify.Seconds()
	m["vsm.index_s"] = index.Seconds()
	m["vsm.index_bytes_per_doc"] = float64(heap) / float64(docs)

	lr.svcA = service.New(regA, service.Options{Metrics: obs.NewRegistry()})
	lr.svcB = service.New(regB, service.Options{Metrics: obs.NewRegistry()})
	lr.tr = &tracer{t0: time.Now()}

	acc := newAccount()
	for i, it := range items {
		if err := lr.replay(i, it, acc); err != nil {
			return lr.tr, fmt.Errorf("replay request %d (%v): %w", i, it.req.kind, err)
		}
	}
	acc.finish(lr.tr, m)
	return lr.tr, nil
}

// heapInUse returns live heap bytes after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// account accumulates the replay's per-layer measurements.
type account struct {
	queries                          []int // handler span per measured query
	missSpans, hitSpans              []int
	asks, batches, reports           []int // handler spans
	legMax                           []float64
	parses                           []int
	issues, termCalls                []float64
	matches                          []float64
	respBytes                        []float64
	updates                          []int
	reuse                            []float64
	handlers                         []int // every measured handler span
	httpDiff                         []float64
	nlpSum, vsmSum, bm25Sum, jsonSum float64
	query                            map[int]bool // handler span ids of queries
}

func newAccount() *account { return &account{query: map[int]bool{}} }

// replay runs one item through both services.
func (lr *layerRun) replay(i int, it replayItem, acc *account) error {
	r := it.req
	ctx := context.Background()
	tr := lr.tr
	if r.kind == kindReload {
		return lr.reload(i, acc)
	}
	method, target, body, err := route(r)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h := tr.start("service.ServeHTTP", -1, i)
	lr.svcA.ServeHTTP(rec, req)
	tr.end(h)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process status %d: %s", rec.Code, rec.Body.String())
	}

	switch r.kind {
	case kindQuery:
		q := strings.TrimSpace(r.text)
		c := tr.start("service.CachedQueryFull", h, i)
		answers, hit, _, err := lr.svcB.CachedQueryFull(ctx, r.advisor, r.backend, q)
		tr.end(c)
		if err != nil {
			return err
		}
		if !it.measured {
			return nil // the warm-up only has to leave both caches as the served run left its own
		}
		n := tr.start("nlp.QueryTerms", c, i)
		terms := nlp.QueryTerms(q)
		tr.end(n)
		if !hit {
			// core's span contains the same scoring the vsm span times on
			// its own; alternating which runs first spreads the cost of
			// waking idle scheduler threads (sharded scoring fans out)
			// evenly over both, so core's self time is not biased
			var a, s int
			var err error
			if i%2 == 0 {
				a, err = lr.scoreCore(ctx, r, terms, c, i)
				s = lr.scoreVSM(ctx, r, terms, i, acc)
			} else {
				s = lr.scoreVSM(ctx, r, terms, i, acc)
				a, err = lr.scoreCore(ctx, r, terms, c, i)
			}
			if err != nil {
				return err
			}
			tr.spans[s].Parent = a
			if r.backend == vsm.BackendBM25 {
				acc.bm25Sum += tr.us(s)
			} else {
				acc.vsmSum += tr.us(s)
			}
		}
		j := tr.start("service.json", h, i)
		size, err := encodeQuery(r, q, answers)
		tr.end(j)
		if err != nil {
			return err
		}
		// repeating the lookup is a guaranteed hit and leaves the LRU order
		// as it was (the entry is already most recent)
		p := tr.start("service.CachedQueryFull.hit", -1, i)
		if _, again, _, err := lr.svcB.CachedQueryFull(ctx, r.advisor, r.backend, q); err != nil || !again {
			return fmt.Errorf("repeated lookup: hit=%v err=%v", again, err)
		}
		tr.end(p)
		acc.query[h] = true
		acc.queries = append(acc.queries, h)
		acc.hitSpans = append(acc.hitSpans, p)
		if !hit {
			acc.missSpans = append(acc.missSpans, c)
		}
		acc.nlpSum += tr.us(n)
		acc.jsonSum += tr.us(j)
		acc.respBytes = append(acc.respBytes, float64(size))
		acc.termCalls = append(acc.termCalls, 1)
		if it.served != nil && it.served.ok() {
			acc.httpDiff = append(acc.httpDiff, float64(it.served.done.Sub(it.served.sent))/1e3-tr.us(h))
		}
	case kindAsk:
		q := strings.TrimSpace(r.text)
		worst := 0.0
		for _, name := range lr.advList {
			l := tr.start("service.CachedQueryBackend", -1, i)
			_, _, err := lr.svcB.CachedQueryBackend(ctx, name, "", q)
			tr.end(l)
			if err != nil {
				return err
			}
			worst = max(worst, tr.us(l))
		}
		if it.measured {
			acc.asks = append(acc.asks, h)
			acc.legMax = append(acc.legMax, worst)
			acc.termCalls = append(acc.termCalls, float64(len(lr.advList)))
		}
	case kindBatch:
		b := tr.start("service.Batch", -1, i)
		lr.svcB.Batch(ctx, r.items)
		tr.end(b)
		if it.measured {
			acc.batches = append(acc.batches, h)
			acc.termCalls = append(acc.termCalls, float64(len(r.items)))
		}
	case kindReport:
		p := tr.start("nvvp.Parse", -1, i)
		rep, err := parseReport(r.body)
		tr.end(p)
		if err != nil {
			return err
		}
		issues := rep.Issues()
		for _, is := range issues {
			l := tr.start("service.CachedQuery", -1, i)
			_, _, err := lr.svcB.CachedQuery(ctx, r.advisor, is.Query())
			tr.end(l)
			if err != nil {
				return err
			}
		}
		if it.measured {
			acc.reports = append(acc.reports, h)
			acc.parses = append(acc.parses, p)
			acc.issues = append(acc.issues, float64(len(issues)))
			acc.termCalls = append(acc.termCalls, float64(len(issues)))
		}
	}
	if it.measured {
		acc.handlers = append(acc.handlers, h)
	}
	return nil
}

// scoreCore times the advisor's own retrieval and answer assembly.
func (lr *layerRun) scoreCore(ctx context.Context, r request, terms []string, parent, i int) (int, error) {
	a := lr.tr.start("core.QueryTermsBackendCtx", parent, i)
	_, err := lr.advs[r.advisor].QueryTermsBackendCtx(ctx, r.backend, terms)
	lr.tr.end(a)
	return a, err
}

// scoreVSM times the same scoring on the layer-only index.
func (lr *layerRun) scoreVSM(ctx context.Context, r request, terms []string, i int, acc *account) int {
	if r.backend == vsm.BackendBM25 {
		s := lr.tr.start("vsm.ScoreTermsCtx", -1, i)
		lr.bm25[r.advisor].ScoreTermsCtx(ctx, terms)
		lr.tr.end(s)
		return s
	}
	s := lr.tr.start("vsm.MatchesTermsCtx", -1, i)
	ms := lr.retr[r.advisor].MatchesTermsCtx(ctx, terms, vsm.DefaultThreshold)
	lr.tr.end(s)
	acc.matches = append(acc.matches, float64(len(ms)))
	return s
}

// reload applies the next edit-script version through the incremental
// update path and swaps it into both services.
func (lr *layerRun) reload(i int, acc *account) error {
	if lr.version >= len(lr.docs) {
		return fmt.Errorf("edit script exhausted after %d versions", lr.version)
	}
	d := lr.docs[lr.version]
	lr.version++
	sens := d.Sentences()
	u := lr.tr.start("core.UpdateFromSentencesCtx", -1, i)
	next, err := lr.fw.UpdateFromSentencesCtx(context.Background(), lr.advs["cuda"], d, sens)
	lr.tr.end(u)
	if err != nil {
		return err
	}
	st := next.BuildStats()
	acc.updates = append(acc.updates, u)
	acc.reuse = append(acc.reuse, ratio(float64(st.Reused), float64(st.Sentences)))
	lr.advs["cuda"] = next
	lr.svcA.Reload("cuda", next)
	lr.svcB.Reload("cuda", next)
	lr.retriever("cuda", sens, next, next.ShardCount())
	return nil
}

// encodeQuery renders a query response the way the handler does (answer
// conversion, then a JSON encoder without HTML escaping) and returns its
// size in bytes.
func encodeQuery(r request, q string, answers []core.Answer) (int, error) {
	resp := service.QueryResponse{Advisor: r.advisor, Query: q, Backend: r.backend, Count: len(answers), Answers: make([]service.Answer, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = service.Answer{
			Rule:  service.Rule{Index: a.Sentence.Index, Text: a.Sentence.Text, Section: a.Sentence.Section, Selector: a.Sentence.Selector.String()},
			Score: a.Score,
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// finish turns the accumulated spans into per-layer metrics.
func (acc *account) finish(tr *tracer, m map[string]float64) {
	self := tr.selfUS()
	meanOf := func(ids []int) float64 {
		xs := make([]float64, len(ids))
		for i, id := range ids {
			xs[i] = tr.us(id)
		}
		return mean(xs)
	}
	nq := float64(len(acc.queries))
	var cacheSelf, coreSelf, residual float64
	for _, s := range tr.spans {
		switch {
		case s.Name == "service.CachedQueryFull" && acc.query[s.Parent]:
			cacheSelf += self[s.ID]
		case s.Name == "core.QueryTermsBackendCtx":
			if c := tr.spans[s.Parent]; acc.query[c.Parent] {
				coreSelf += self[s.ID]
			}
		case s.Name == "service.ServeHTTP" && acc.query[s.ID]:
			residual += self[s.ID]
		}
	}
	m["service.handler_query_us"] = meanOf(acc.queries)
	m["service.handler_ask_us"] = meanOf(acc.asks)
	m["service.handler_batch_us"] = meanOf(acc.batches)
	m["service.handler_report_us"] = meanOf(acc.reports)
	m["service.cached_query_hit_us"] = meanOf(acc.hitSpans)
	m["service.cached_query_miss_us"] = meanOf(acc.missSpans)
	m["service.cache_self_us"] = ratio(cacheSelf, nq)
	m["service.residual_us"] = ratio(residual, nq)
	m["nlp.query_terms_us"] = ratio(acc.nlpSum, nq)
	m["vsm.score_us"] = ratio(acc.vsmSum, nq)
	m["vsm.score_bm25_us"] = ratio(acc.bm25Sum, nq)
	m["core.answer_us"] = ratio(coreSelf, nq)
	m["service.json_us"] = ratio(acc.jsonSum, nq)
	m["service.response_bytes"] = mean(acc.respBytes)
	m["service.ask_leg_max_us"] = mean(acc.legMax)
	m["service.http_us"] = medianOf(acc.httpDiff)
	m["nlp.query_terms_per_request"] = mean(acc.termCalls)
	m["vsm.matches_per_query"] = mean(acc.matches)
	m["nvvp.parse_us"] = meanOf(acc.parses)
	m["nvvp.issues_per_report"] = mean(acc.issues)
	upd := make([]float64, len(acc.updates))
	for i, id := range acc.updates {
		upd[i] = tr.us(id) / 1e3
	}
	m["core.update_ms"] = medianOf(upd)
	m["core.update_reuse_ratio"] = mean(acc.reuse)
	hs := make([]float64, len(acc.handlers))
	for i, id := range acc.handlers {
		hs[i] = tr.us(id) / 1e3
	}
	m["traced.p50_ms"] = medianOf(hs)
}
