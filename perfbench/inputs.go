package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/doc"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/service"
)

// Every input the benchmark sends is generated here from the workload seed;
// the same seed gives byte-identical inputs. Independent streams (documents,
// query pool, open loop, closed loop, edits, sampling) get their own
// sub-seeds so that, say, a longer closed loop does not shift the open
// loop's requests.

const (
	poolSize  = 5000 // Zipf-popular query pool entries
	zipfS     = 1.1  // Zipf exponent of query popularity
	advising  = 0.15 // advising fraction of GenerateSized guides (corpusgen's default)
	maxChange = 0.30 // lifecycle.DefaultIncrementalThreshold: edit steps stay below it
)

// Sub-stream salts.
const (
	saltPool = iota + 1
	saltOpen
	saltClosed
	saltProbe
	saltEdit
	saltSample
	saltSchedule
	saltWarm
)

// subSeed derives an independent seed for one stream (splitmix64 finalizer).
func subSeed(seed int64, salt int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(salt)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// request is one generated request.
type request struct {
	kind    kind
	advisor string // query, report
	text    string // query, ask
	backend string // "" or "bm25" (query)
	items   []service.BatchItem
	body    string // report body: NVVP text or JSON metrics
}

// guide is one served document.
type guide struct {
	name string
	html string            // rendered HTML (doc-served advisors only)
	doc  *htmldoc.Document // what the server parses
	sens []htmldoc.Sentence
}

// makeGuides generates the workload's documents: the CUDA guide (rendered
// to the HTML file the server reads through -doc, then parsed back exactly
// as the server parses it) and the built-in extras the server generates
// itself from the same seed.
func makeGuides(w *workload, seed int64) []*guide {
	var g *corpus.Guide
	if w.cudaSentences > 0 {
		g = corpus.GenerateSized(corpus.CUDA, w.cudaSentences, advising, seed)
	} else {
		g = corpus.Generate(corpus.CUDA, seed)
	}
	html := g.RenderHTML()
	d := htmldoc.Parse(html)
	out := []*guide{{name: "cuda", html: html, doc: d, sens: d.Sentences()}}
	for _, name := range w.extras {
		reg := corpus.OpenCL
		if name == "xeon" {
			reg = corpus.XeonPhi
		}
		e := corpus.Generate(reg, seed)
		out = append(out, &guide{name: name, doc: e.Doc, sens: e.Sentences})
	}
	return out
}

// fragment returns 4–8 consecutive words of a random sentence of g.
func fragment(rng *rand.Rand, g *guide, minWords, maxWords int) string {
	for {
		words := strings.Fields(g.sens[rng.Intn(len(g.sens))].Text)
		if len(words) < minWords {
			continue
		}
		n := minWords + rng.Intn(maxWords-minWords+1)
		if n > len(words) {
			n = len(words)
		}
		start := rng.Intn(len(words) - n + 1)
		return strings.Trim(strings.Join(words[start:start+n], " "), ".,;:!?()\"'")
	}
}

// issueTexts are the CUDA issue queries of the paper's Table 6 plus those
// of every synthesized NVVP report, deduplicated, in a fixed order.
func issueTexts() []string {
	seen := map[string]bool{}
	var out []string
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, q := range corpus.CUDAQueries() {
		add(q.Text)
	}
	for _, p := range nvvp.Programs() {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			panic(err) // Programs lists exactly what Synthesize knows
		}
		r, err := nvvp.Parse(text)
		if err != nil {
			panic(err)
		}
		for _, is := range r.Issues() {
			add(is.Query())
		}
	}
	return out
}

// poolEntry is one query text and the advisor it targets.
type poolEntry struct {
	advisor string
	text    string
}

// queryPool builds the Zipf-popular pool: 4–8-word fragments of the served
// guides plus the Table-6 and NVVP issue texts (answered by cuda). The
// pool's shape is the same for every seed, only its texts differ: rank r
// holds a fragment of 4 + r mod 5 words from the guide whose share of
// fragments so far lags its share of sentences most, and the issue texts
// sit at fixed ranks spread geometrically from the head to the tail. Which
// text lands where is seeded.
func queryPool(guides []*guide, seed int64) []poolEntry {
	rng := rand.New(rand.NewSource(subSeed(seed, saltPool)))
	issues := issueTexts()
	rng.Shuffle(len(issues), func(i, j int) { issues[i], issues[j] = issues[j], issues[i] })
	issueAt := map[int]string{}
	for k, t := range issues {
		issueAt[int(10*math.Pow(1.6, float64(k)))] = t
	}
	total := 0
	for _, g := range guides {
		total += len(g.sens)
	}
	assigned := make([]int, len(guides))
	seen := map[string]bool{}
	pool := make([]poolEntry, 0, poolSize)
	for r := 0; len(pool) < poolSize; r++ {
		if t, ok := issueAt[r]; ok {
			pool = append(pool, poolEntry{"cuda", t})
			continue
		}
		best, lag := 0, math.Inf(-1)
		for gi, g := range guides {
			if d := float64(len(g.sens))/float64(total)*float64(r+1) - float64(assigned[gi]); d > lag {
				best, lag = gi, d
			}
		}
		assigned[best]++
		words := 4 + r%5
		for {
			t := fragment(rng, guides[best], words, words)
			if t != "" && !seen[t] {
				seen[t] = true
				pool = append(pool, poolEntry{guides[best].name, t})
				break
			}
		}
	}
	return pool
}

// reportPrograms are the programs whose NVVP text reports the generator
// sends; JSON metric reports get generated values.
var reportPrograms = nvvp.Programs()

// reportBody returns an NVVP text report or a JSON metrics snapshot.
func reportBody(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		text, err := nvvp.Synthesize(reportPrograms[rng.Intn(len(reportPrograms))])
		if err != nil {
			panic(err)
		}
		return text
	}
	u := func(lo, hi float64) float64 {
		return float64(int((lo+rng.Float64()*(hi-lo))*100)) / 100
	}
	m := nvvp.Metrics{
		Program:                 fmt.Sprintf("kernel%d.cu", rng.Intn(16)),
		Kernel:                  "main",
		WarpExecutionEfficiency: u(0.3, 1),
		Occupancy:               u(0.2, 1),
		GlobalLoadEfficiency:    u(0.3, 1),
		BranchDivergence:        u(0, 0.5),
		DramUtilization:         u(0.3, 1),
		IssueSlotUtilization:    u(0.3, 1),
		LowThroughputInstFrac:   u(0, 0.5),
		TransferComputeRatio:    u(0, 1.5),
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// textSource yields query texts with their advisor.
type textSource interface {
	next(rng *rand.Rand) poolEntry
}

// zipfSource draws from the pool with Zipf popularity.
type zipfSource struct {
	pool []poolEntry
	cdf  []float64
}

func newZipfSource(pool []poolEntry) *zipfSource {
	cdf := make([]float64, len(pool))
	sum := 0.0
	for i := range pool {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSource{pool: pool, cdf: cdf}
}

func (z *zipfSource) next(rng *rand.Rand) poolEntry {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.pool) {
		i = len(z.pool) - 1
	}
	return z.pool[i]
}

// uniqueSource makes every query unique by its normalized terms (the cache
// key), so no lookup can hit. Of every 5 queries 2 are narrow (2, 3, 4
// terms in turn) and 3 are broad (the next Table-6/NVVP issue text in turn
// plus two fragments), so every seed gets the same mix of shapes and the
// median request is a broad one, whose scoring the workload is about.
type uniqueSource struct {
	g      *guide
	issues []string
	mu     sync.Mutex // guards n and seen; streams may draw concurrently
	n      int
	seen   map[string]bool
}

func newUniqueSource(g *guide) *uniqueSource {
	return &uniqueSource{g: g, issues: issueTexts(), seen: map[string]bool{}}
}

func (u *uniqueSource) next(rng *rand.Rand) poolEntry {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := u.n
	u.n++
	for {
		var text string
		var terms []string
		if n%5 < 2 {
			want := 2 + n%3
			text = fragment(rng, u.g, want, want+3)
			terms = nlp.QueryTerms(text)
			if len(terms) != want {
				continue
			}
		} else {
			text = u.issues[(n/5)%len(u.issues)] + " " + fragment(rng, u.g, 6, 10) + ". " + fragment(rng, u.g, 6, 10) + "."
			terms = nlp.QueryTerms(text)
		}
		key := strings.Join(terms, "\x00")
		if !u.seen[key] {
			u.seen[key] = true
			return poolEntry{"cuda", text}
		}
	}
}

// generator turns a text source into requests of the workload's mix.
type generator struct {
	w   *workload
	src textSource
}

// gen draws one request of kind k.
func (g *generator) gen(rng *rand.Rand, k kind) request {
	switch k {
	case kindQuery:
		e := g.src.next(rng)
		return request{kind: k, advisor: e.advisor, text: e.text, backend: g.backend(rng)}
	case kindAsk:
		return request{kind: k, text: g.src.next(rng).text}
	case kindReport:
		return request{kind: k, advisor: "cuda", body: reportBody(rng)}
	case kindBatch:
		items := make([]service.BatchItem, batchItems)
		for i := range items {
			e := g.src.next(rng)
			items[i] = service.BatchItem{Advisor: e.advisor, Query: e.text, Backend: g.backend(rng)}
		}
		return request{kind: k, items: items}
	}
	return request{kind: k, advisor: "cuda"}
}

func (g *generator) backend(rng *rand.Rand) string {
	if rng.Float64() < g.w.bm25 {
		return "bm25"
	}
	return ""
}

// mixer returns a draw function for one stream that deals request kinds
// from seeded shuffles of blocks of 20, so every 20 consecutive requests
// hold exactly the workload's mix.
func (g *generator) mixer() func(*rand.Rand) request {
	var block []kind
	return func(rng *rand.Rand) request {
		if len(block) == 0 {
			for k := kindQuery; k <= kindBatch; k++ {
				for i := 0; i < int(math.Round(g.w.mix[k]*20)); i++ {
					block = append(block, k)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		k := block[0]
		block = block[1:]
		return g.gen(rng, k)
	}
}

// newGenerator builds the workload's request generator over its guides.
func newGenerator(w *workload, guides []*guide, seed int64) *generator {
	g := &generator{w: w}
	if w.unique {
		g.src = newUniqueSource(guides[0])
	} else {
		g.src = newZipfSource(queryPool(guides, seed))
	}
	return g
}

// stream is a deterministic, lazily extended request sequence: request i
// is the same for a given seed no matter which client asks for it or when.
type stream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	draw func(*rand.Rand) request
	reqs []request
}

func newStream(seed int64, salt int, draw func(*rand.Rand) request) *stream {
	return &stream{rng: rand.New(rand.NewSource(subSeed(seed, salt))), draw: draw}
}

// at returns request i, generating up to it if needed.
func (s *stream) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.draw(s.rng))
	}
	return s.reqs[i]
}

// prefill generates the first n requests ahead of timing.
func (s *stream) prefill(n int) {
	if n > 0 {
		s.at(n - 1)
	}
}

// editSuffixes turn a sentence into a modified version of itself.
var editSuffixes = []string{
	", as a rule of thumb.",
	", in most kernels.",
	", on every supported device.",
	", where the profiler confirms it.",
	", unless the data set is small.",
}

// editScript derives steps successive versions of base: each step modifies
// 2%, inserts 1% and deletes 1% of the document's blocks (one sentence
// each in generated guides), so every step's change ratio stays far below
// the incremental-rebuild threshold. Each version is returned as the HTML
// the server will read and the document it parses to.
func editScript(base *htmldoc.Document, seed int64, steps int) ([]string, []*htmldoc.Document, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, saltEdit)))
	htmls := make([]string, 0, steps)
	docs := make([]*htmldoc.Document, 0, steps)
	prev := base
	for step := 0; step < steps; step++ {
		next := &htmldoc.Document{Title: prev.Title, Sections: make([]htmldoc.Section, len(prev.Sections))}
		n := 0
		for i, s := range prev.Sections {
			s.Blocks = append([]string(nil), s.Blocks...)
			next.Sections[i] = s
			n += len(s.Blocks)
		}
		pickBlock := func() (int, int) {
			for {
				si := rng.Intn(len(next.Sections))
				if b := len(next.Sections[si].Blocks); b > 0 {
					return si, rng.Intn(b)
				}
			}
		}
		for i := 0; i < max(1, n*2/100); i++ {
			si, bi := pickBlock()
			t := strings.TrimRight(next.Sections[si].Blocks[bi], ".!? ")
			next.Sections[si].Blocks[bi] = t + editSuffixes[rng.Intn(len(editSuffixes))]
		}
		for i := 0; i < max(1, n/100); i++ {
			si, bi := pickBlock()
			text := next.Sections[si].Blocks[bi]
			ti := rng.Intn(len(next.Sections))
			blocks := next.Sections[ti].Blocks
			at := rng.Intn(len(blocks) + 1)
			blocks = append(blocks[:at], append([]string{text}, blocks[at:]...)...)
			next.Sections[ti].Blocks = blocks
		}
		for i := 0; i < max(1, n/100); i++ {
			si, bi := pickBlock()
			blocks := next.Sections[si].Blocks
			next.Sections[si].Blocks = append(blocks[:bi], blocks[bi+1:]...)
		}
		html := (&corpus.Guide{Doc: next}).RenderHTML()
		parsed := htmldoc.Parse(html)
		d := doc.Diff(htmldoc.IDsOf(prev.Sentences()), htmldoc.IDsOf(parsed.Sentences()))
		if r := d.ChangeRatio(); r >= maxChange {
			return nil, nil, fmt.Errorf("edit step %d changes %.3f of the document, not below %.2f", step+1, r, maxChange)
		}
		htmls = append(htmls, html)
		docs = append(docs, parsed)
		prev = parsed
	}
	return htmls, docs, nil
}
