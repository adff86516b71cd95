package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/selectors"
	"repro/internal/service"
	"repro/internal/vsm"
)

// newFramework mirrors the framework egeria serve builds with its default
// flags: default keyword configuration, the paper's 0.15 threshold, and the
// given shard count.
func newFramework(shards int) *core.Framework {
	return core.New(core.WithConfig(selectors.DefaultConfig()), core.WithThreshold(vsm.DefaultThreshold), core.WithShards(shards))
}

// oracle answers every request in process, from advisors built from the
// same documents the server reads. It builds monolithic indexes: sharded
// and monolithic retrieval are bit-identical, so the served (sharded)
// answers must match these exactly.
type oracle struct {
	extras map[string]*core.Advisor
	cuda   []*core.Advisor // cuda by document version (0 = the initial guide)
}

func newOracle(guides []*guide, versions []*htmldoc.Document) *oracle {
	fw := newFramework(1)
	o := &oracle{extras: map[string]*core.Advisor{}}
	for _, g := range guides[1:] {
		o.extras[g.name] = fw.BuildFromSentences(g.doc, g.sens)
	}
	o.cuda = append(o.cuda, fw.BuildFromSentences(guides[0].doc, guides[0].sens))
	for _, d := range versions {
		o.cuda = append(o.cuda, fw.BuildFromSentences(d, d.Sentences()))
	}
	return o
}

func (o *oracle) advisor(name string, version int) (*core.Advisor, error) {
	if name == "cuda" {
		if version < 0 || version >= len(o.cuda) {
			return nil, fmt.Errorf("no cuda version %d", version)
		}
		return o.cuda[version], nil
	}
	a, ok := o.extras[name]
	if !ok {
		return nil, fmt.Errorf("unknown advisor %q", name)
	}
	return a, nil
}

// names lists the advisors in registry (sorted) order.
func (o *oracle) names() []string {
	out := []string{"cuda"}
	for n := range o.extras {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (o *oracle) answers(name, backend, q string, version int) ([]core.Answer, error) {
	a, err := o.advisor(name, version)
	if err != nil {
		return nil, err
	}
	return a.QueryTermsBackendCtx(context.Background(), backend, nlp.QueryTerms(q))
}

// sameAnswers compares served answers with the oracle's: count, then rule
// text, sentence index and the exact bits of every score.
func sameAnswers(got []service.Answer, want []core.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Sentence.Index || g.Text != w.Sentence.Text || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("answer %d: got (%d, %x, %q), oracle (%d, %x, %q)", i,
				g.Index, math.Float64bits(g.Score), g.Text, w.Sentence.Index, math.Float64bits(w.Score), w.Sentence.Text)
		}
	}
	return nil
}

// parseReport parses a report body the way the server does: JSON metrics
// when it starts with "{", the NVVP text format otherwise.
func parseReport(body string) (*nvvp.Report, error) {
	trimmed := strings.TrimSpace(body)
	if strings.HasPrefix(trimmed, "{") {
		m, err := nvvp.ParseMetricsJSON([]byte(trimmed))
		if err != nil {
			return nil, err
		}
		return m.Report(), nil
	}
	return nvvp.Parse(body)
}

// check compares one served response with the oracle at the given cuda
// document version.
func (o *oracle) check(r request, version int, body []byte) error {
	switch r.kind {
	case kindQuery:
		var resp service.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want, err := o.answers(r.advisor, r.backend, strings.TrimSpace(r.text), version)
		if err != nil {
			return err
		}
		return sameAnswers(resp.Answers, want)
	case kindBatch:
		var resp service.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Errors != 0 || len(resp.Results) != len(r.items) {
			return fmt.Errorf("batch: %d errors, %d results for %d items", resp.Errors, len(resp.Results), len(r.items))
		}
		for i, it := range r.items {
			want, err := o.answers(it.Advisor, it.Backend, it.Query, version)
			if err != nil {
				return err
			}
			if err := sameAnswers(resp.Results[i].Answers, want); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case kindReport:
		var resp service.ReportResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		rep, err := parseReport(r.body)
		if err != nil {
			return err
		}
		issues := rep.Issues()
		if len(resp.Issues) != len(issues) {
			return fmt.Errorf("report: %d issues, oracle has %d", len(resp.Issues), len(issues))
		}
		for i, is := range issues {
			want, err := o.answers(r.advisor, "", is.Query(), version)
			if err != nil {
				return err
			}
			if resp.Issues[i].Title != is.Title {
				return fmt.Errorf("report issue %d: title %q, oracle %q", i, resp.Issues[i].Title, is.Title)
			}
			if err := sameAnswers(resp.Issues[i].Answers, want); err != nil {
				return fmt.Errorf("report issue %d: %w", i, err)
			}
		}
		return nil
	case kindAsk:
		var resp service.AskResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Errors) > 0 {
			return fmt.Errorf("ask: advisor errors %v", resp.Errors)
		}
		want, err := o.ask(strings.TrimSpace(r.text), version)
		if err != nil {
			return err
		}
		if len(resp.Answers) != len(want) {
			return fmt.Errorf("ask: %d answers, oracle has %d", len(resp.Answers), len(want))
		}
		for i, g := range resp.Answers {
			w := want[i]
			if g.Advisor != w.Advisor || g.Rule.Index != w.Rule.Index || g.Rule.Text != w.Rule.Text ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) || math.Float64bits(g.Norm) != math.Float64bits(w.Norm) {
				return fmt.Errorf("ask answer %d: got %s/%d %x, oracle %s/%d %x", i,
					g.Advisor, g.Rule.Index, math.Float64bits(g.Score), w.Advisor, w.Rule.Index, math.Float64bits(w.Score))
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for %v", r.kind)
}

// ask merges every advisor's best DefaultFederationK answers by normalized
// score, as /v1/ask specifies: norm = score / the advisor's best score,
// ties by advisor name, then rule index.
func (o *oracle) ask(q string, version int) ([]service.FederatedAnswer, error) {
	var merged []service.FederatedAnswer
	for _, name := range o.names() {
		answers, err := o.answers(name, "", q, version)
		if err != nil {
			return nil, err
		}
		if len(answers) > service.DefaultFederationK {
			answers = answers[:service.DefaultFederationK]
		}
		for _, a := range answers {
			norm := 0.0
			if best := answers[0].Score; best > 0 {
				norm = a.Score / best
			}
			merged = append(merged, service.FederatedAnswer{
				Advisor: name,
				Rule:    service.Rule{Index: a.Sentence.Index, Text: a.Sentence.Text},
				Score:   a.Score,
				Norm:    norm,
			})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool {
		x, y := merged[a], merged[b]
		if x.Norm != y.Norm {
			return x.Norm > y.Norm
		}
		if x.Advisor != y.Advisor {
			return x.Advisor < y.Advisor
		}
		return x.Rule.Index < y.Rule.Index
	})
	return merged, nil
}
