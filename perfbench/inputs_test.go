package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
)

// poolBytes serializes a query pool.
func poolBytes(pool []poolEntry) string {
	var b strings.Builder
	for _, e := range pool {
		b.WriteString(e.advisor + "\x00" + e.text + "\n")
	}
	return b.String()
}

func hotMix(t *testing.T) *workload {
	t.Helper()
	w, err := workloadByName("hot-mix")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQueryPoolDeterministic(t *testing.T) {
	w := hotMix(t)
	a := poolBytes(queryPool(makeGuides(w, 1), 1))
	b := poolBytes(queryPool(makeGuides(w, 1), 1))
	c := poolBytes(queryPool(makeGuides(w, 2), 2))
	if a != b {
		t.Fatal("seed 1 gave two different query pools")
	}
	if a == c {
		t.Fatal("seeds 1 and 2 gave the same query pool")
	}
	if n := len(queryPool(makeGuides(w, 1), 1)); n != poolSize {
		t.Fatalf("pool has %d entries, want %d", n, poolSize)
	}
}

func editBytes(t *testing.T, seed int64) string {
	t.Helper()
	w := hotMix(t)
	g := makeGuides(w, seed)[0]
	htmls, _, err := editScript(g.doc, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(htmls, "\x00")
}

func TestEditScriptDeterministic(t *testing.T) {
	a, b, c := editBytes(t, 1), editBytes(t, 1), editBytes(t, 2)
	if a != b {
		t.Fatal("seed 1 gave two different edit scripts")
	}
	if a == c {
		t.Fatal("seeds 1 and 2 gave the same edit script")
	}
}

func TestEditScriptStaysIncremental(t *testing.T) {
	w := hotMix(t)
	g := makeGuides(w, 3)[0]
	_, docs, err := editScript(g.doc, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	prev := g.doc
	for i, d := range docs {
		diff := doc.Diff(htmldoc.IDsOf(prev.Sentences()), htmldoc.IDsOf(d.Sentences()))
		if r := diff.ChangeRatio(); r <= 0 || r >= maxChange {
			t.Fatalf("step %d: change ratio %.3f, want in (0, %.2f)", i+1, r, maxChange)
		}
		if len(diff.Added) == 0 || len(diff.Removed) == 0 {
			t.Fatalf("step %d: %d added, %d removed; the script must modify, insert and delete", i+1, len(diff.Added), len(diff.Removed))
		}
		prev = d
	}
}

func TestStreamIndependentOfAccessOrder(t *testing.T) {
	w := hotMix(t)
	gen := newGenerator(w, makeGuides(w, 5), 5)
	a := newStream(5, saltOpen, gen.mixer())
	a.prefill(200)
	b := newStream(5, saltOpen, gen.mixer())
	for i := 199; i >= 0; i -= 7 {
		b.at(i)
	}
	for i := 0; i < 200; i++ {
		x, y := a.at(i), b.at(i)
		if x.kind != y.kind || x.text != y.text || x.body != y.body || x.backend != y.backend || len(x.items) != len(y.items) {
			t.Fatalf("request %d differs between access orders", i)
		}
	}
}

func TestMixShares(t *testing.T) {
	w := hotMix(t)
	gen := newGenerator(w, makeGuides(w, 1), 1)
	rng := rand.New(rand.NewSource(1))
	draw := gen.mixer()
	var n [numKinds]int
	bm25, queries := 0, 0
	const total = 20000
	for i := 0; i < total; i++ {
		r := draw(rng)
		n[r.kind]++
		if r.kind == kindQuery {
			queries++
			if r.backend == "bm25" {
				bm25++
			}
		}
	}
	for k := kindQuery; k <= kindBatch; k++ {
		if got := float64(n[k]) / total; math.Abs(got-w.mix[k]) > 1e-9 {
			t.Errorf("%v share %.4f, want exactly %.2f", k, got, w.mix[k])
		}
	}
	if got := float64(bm25) / float64(queries); got < 0.08 || got > 0.12 {
		t.Errorf("bm25 share of queries %.3f, want 0.10", got)
	}
}

func TestUniqueQueriesNeverRepeatTerms(t *testing.T) {
	w, err := workloadByName("cold-10k")
	if err != nil {
		t.Fatal(err)
	}
	g := makeGuides(w, 1)
	if len(g[0].sens) != w.cudaSentences {
		t.Fatalf("cold-10k guide has %d sentences, want %d", len(g[0].sens), w.cudaSentences)
	}
	src := newUniqueSource(g[0])
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	narrow := 0
	for i := 0; i < 2000; i++ {
		terms := nlp.QueryTerms(src.next(rng).text)
		key := strings.Join(terms, "\x00")
		if seen[key] {
			t.Fatalf("query %d repeats the terms of an earlier query", i)
		}
		seen[key] = true
		if len(terms) <= 4 {
			narrow++
		}
	}
	if narrow != 800 {
		t.Fatalf("%d of 2000 queries are narrow, want 40%%", narrow)
	}
}

func TestOpenScheduleRate(t *testing.T) {
	w, err := workloadByName("hot-mix")
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator(w, makeGuides(w, 1), 1)
	st := newStream(1, saltOpen, gen.mixer())
	sched := openSchedule(w, st, 1, 20*time.Second)
	for i, s := range sched {
		if i > 0 && s.at < sched[i-1].at {
			t.Fatal("schedule not in time order")
		}
	}
	if n := len(sched); n < int(20*w.rate*0.9) || n > int(20*w.rate*1.1) {
		t.Fatalf("%d arrivals in 20s at %.0f/s", n, w.rate)
	}
}
