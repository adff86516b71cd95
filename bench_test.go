// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus the performance ablations of
// DESIGN.md: per-NLP-layer cost, serial vs parallel Stage I and Stage II,
// and document-size scaling.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/depparse"
	"repro/internal/doc"
	"repro/internal/experiments"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/selectors"
	"repro/internal/service"
	"repro/internal/srl"
	"repro/internal/study"
	"repro/internal/textproc"
	"repro/internal/vsm"
)

var (
	setupOnce   sync.Once
	cudaGuide   *corpus.Guide
	cudaAdvisor *core.Advisor
)

func setup(b *testing.B) (*corpus.Guide, *core.Advisor) {
	b.Helper()
	setupOnce.Do(func() {
		cudaGuide, cudaAdvisor = experiments.BuildAdvisor(corpus.CUDA)
	})
	return cudaGuide, cudaAdvisor
}

// --- one benchmark per table / figure -------------------------------------

func BenchmarkTable3_ReportExtraction(b *testing.B) {
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nvvp.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_QueryAnswer(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Query("reduce instruction and memory latency")
	}
}

func BenchmarkTable5_UserStudy(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(adv, study.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_AnswerQuality(b *testing.B) {
	g, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table6(g, adv)
	}
}

func BenchmarkTable7_Compression(b *testing.B) {
	// full Stage-I pipeline over the 558-sentence Xeon guide per iteration
	g := corpus.Generate(corpus.XeonPhi, experiments.Seed)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := fw.BuildFromSentences(g.Doc, g.Sentences)
		_ = adv.CompressionRatio()
	}
}

func BenchmarkTable8_Recognition(b *testing.B) {
	g := corpus.Generate(corpus.CUDA, experiments.Seed)
	texts, _ := g.EvalSentences()
	rec := selectors.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			rec.Classify(s)
		}
	}
}

func BenchmarkFig2_DependencyParse(b *testing.B) {
	sentences := [][]string{
		textproc.Words("Thus, a developer may prefer using buffers instead of images if no sampling operation is needed."),
		textproc.Words("This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions."),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depparse.ParseWords(sentences[i%2])
	}
}

func BenchmarkFig3_SRL(b *testing.B) {
	tree := depparse.ParseText("The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srl.Label(tree)
	}
}

func BenchmarkFig5_KernelModel(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.SurfacedOptimizations(adv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_WebRuleList(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adv.Rules()
		_ = adv.CompressionRatio()
	}
}

// --- NLP layer cost ablation ----------------------------------------------

var layerSentence = "The number of threads per block should be chosen as a multiple of the warp size to avoid wasting computing resources with under-populated warps as much as possible."

func BenchmarkLayer1_Tokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textproc.Words(layerSentence)
	}
}

func BenchmarkLayer2_POSTag(b *testing.B) {
	words := textproc.Words(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postag.Tags(words)
	}
}

func BenchmarkLayer3_DependencyParse(b *testing.B) {
	words := textproc.Words(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depparse.ParseWords(words)
	}
}

func BenchmarkLayer4_SRL(b *testing.B) {
	tree := depparse.ParseText(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srl.Label(tree)
	}
}

func BenchmarkLayer5_Selectors(b *testing.B) {
	rec := selectors.Default()
	tree := depparse.ParseText(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ClassifyParsed(tree)
	}
}

// --- parallelism ablations -------------------------------------------------

func benchStageI(b *testing.B, workers int) {
	g := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 11)
	fw := core.New(core.WithParallelism(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

func BenchmarkStageI_Serial(b *testing.B)   { benchStageI(b, 1) }
func BenchmarkStageI_Parallel(b *testing.B) { benchStageI(b, 0) } // GOMAXPROCS

// benchStageII scores one query against the guide's index split into
// GOMAXPROCS shards: serial keeps the shard fan-out on the calling
// goroutine (the batch executor's hint), otherwise it runs in parallel.
func benchStageII(b *testing.B, serial bool) {
	g, _ := setup(b)
	texts := g.Texts()
	terms := make([][]string, len(texts))
	for i, s := range texts {
		terms[i] = textproc.NormalizeTerms(s)
	}
	ix := vsm.BuildShardedFromTerms(terms, nil, runtime.GOMAXPROCS(0))
	ctx := context.Background()
	if serial {
		ctx = vsm.WithSerialScoring(ctx)
	}
	query := textproc.NormalizeTerms("minimize divergent warps caused by control flow")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryAllTermsCtx(ctx, query)
	}
}

func BenchmarkStageII_QuerySerial(b *testing.B)   { benchStageII(b, true) }
func BenchmarkStageII_QueryParallel(b *testing.B) { benchStageII(b, false) }

// --- retrieval-weighting ablation -------------------------------------------

func BenchmarkRanker_TFIDF(b *testing.B) {
	g, _ := setup(b)
	ix := vsm.Build(g.Texts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query("minimize data transfers with low bandwidth", vsm.DefaultThreshold)
	}
}

func BenchmarkRanker_BM25(b *testing.B) {
	g, _ := setup(b)
	ix := vsm.BuildBM25(g.Texts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK("minimize data transfers with low bandwidth", 25)
	}
}

// --- serving layer -----------------------------------------------------------

func newBenchService(b *testing.B) *service.Service {
	_, adv := setup(b)
	reg := service.NewRegistry()
	reg.Add("cuda", adv)
	return service.New(reg, service.Options{
		CacheSize:   8192,
		MaxInFlight: 64,
		Timeout:     30 * time.Second,
	})
}

// BenchmarkServiceQuery contrasts a cache miss (every query unique, full
// Stage-II retrieval) with a cache hit (same query repeated); the warm path
// should be >= 10x cheaper — the whole point of the serving layer.
func BenchmarkServiceQuery(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		svc := newBenchService(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf("reduce instruction and memory latency variant %d", i)
			if _, _, err := svc.CachedQuery(ctx, "cuda", q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		svc := newBenchService(b)
		ctx := context.Background()
		const q = "reduce instruction and memory latency"
		if _, _, err := svc.CachedQuery(ctx, "cuda", q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := svc.CachedQuery(ctx, "cuda", q); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	// the warm path with every request's span tree recorded (sampling 1.0)
	// — the worst-case tracing cost, for the EXPERIMENTS.md overhead table
	b.Run("warm-traced", func(b *testing.B) {
		svc := newBenchService(b)
		tracer := obs.NewTracer(1.0, obs.NewTraceStore(obs.DefaultTraceCapacity))
		const q = "reduce instruction and memory latency"
		if _, _, err := svc.CachedQuery(context.Background(), "cuda", q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, root := tracer.Start(context.Background(), "bench.query")
			if _, hit, err := svc.CachedQuery(ctx, "cuda", q); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
			root.Finish()
		}
	})
}

// BenchmarkBatchRetrieval contrasts the two ways a client gets N answers
// out of the service: N sequential /v1/{advisor}/query round trips, each
// paying HTTP dispatch, admission, tracing, and a JSON response of its own,
// versus one POST /v1/batch that amortizes all of that across a worker
// pool. Every iteration uses fresh query texts so both paths stay on the
// cache-miss path being measured.
func BenchmarkBatchRetrieval(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("sequential-%d", n), func(b *testing.B) {
			svc := newBenchService(b)
			ts := httptest.NewServer(svc)
			defer ts.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					q := url.QueryEscape(fmt.Sprintf("memory latency seq %d-%d", i, j))
					resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + q)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			svc := newBenchService(b)
			ts := httptest.NewServer(svc)
			defer ts.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sb strings.Builder
				sb.WriteString(`{"queries":[`)
				for j := 0; j < n; j++ {
					if j > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, `{"advisor":"cuda","query":"memory latency batch %d-%d"}`, i, j)
				}
				sb.WriteString(`]}`)
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(sb.String()))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

// BenchmarkFederatedAsk measures one cross-advisor fan-out (three advisors,
// cold then warm) — the /v1/ask hot path.
func BenchmarkFederatedAsk(b *testing.B) {
	_, adv := setup(b)
	reg := service.NewRegistry()
	reg.Add("cuda", adv)
	for i, r := range []corpus.Register{corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.GenerateSized(r, 300, 0.2, int64(23+i))
		reg.Add([]string{"opencl", "xeon"}[i], core.New().BuildFromSentences(g.Doc, g.Sentences))
	}
	svc := service.New(reg, service.Options{CacheSize: 8192, Timeout: 30 * time.Second})
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf("overlap transfers with execution variant %d", i)
			if ans, errs := svc.Ask(ctx, "", q, 3); len(errs) != 0 {
				b.Fatalf("%v (%d answers)", errs, len(ans))
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		const q = "overlap transfers with execution"
		svc.Ask(ctx, "", q, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, errs := svc.Ask(ctx, "", q, 3); len(errs) != 0 {
				b.Fatal(errs)
			}
		}
	})
}

// --- Stage-II index: threshold query over the weight tables ------------------

func BenchmarkVSMInvertedIndex(b *testing.B) {
	g, _ := setup(b)
	ix := vsm.Build(g.Texts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query("minimize divergent warps caused by control flow", vsm.DefaultThreshold)
	}
}

// --- maintenance workflows ---------------------------------------------------

func BenchmarkDiffRules(b *testing.B) {
	g1 := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 71)
	g2 := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 72)
	fw := core.New()
	a1 := fw.BuildFromSentences(g1.Doc, g1.Sentences)
	a2 := fw.BuildFromSentences(g2.Doc, g2.Sentences)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiffRules(a1, a2)
	}
}

// --- build pipeline (trajectory benchmark) ---------------------------------

// BenchmarkBuildAdvisor150 is the fixed-size build benchmark tracked across
// PRs: full advisor synthesis (Stage I + index) over a 150-sentence guide.
func BenchmarkBuildAdvisor150(b *testing.B) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 17)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

// BenchmarkAnnotateOnce measures what the shared-annotation pipeline buys:
// "recompute" runs classification and indexing the pre-refactor way, each
// stage re-deriving tokens/stems/trees from the raw strings; "shared"
// annotates every sentence once and feeds the same annotation to both
// stages. Same corpus, same outputs — only the redundant NLP work differs.
func BenchmarkAnnotateOnce(b *testing.B) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 17)
	texts := g.Texts()
	rec := selectors.Default()

	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range texts {
				rec.ClassifyParsed(depparse.ParseText(s))
			}
			vsm.Build(texts)
		}
	})
	b.Run("shared", func(b *testing.B) {
		ator := nlp.NewAnnotator(nlp.WithParallelism(1)) // serial, like recompute
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			anns := ator.AnnotateAll(texts)
			terms := make([][]string, len(anns))
			for j, ann := range anns {
				rec.ClassifyAnnotated(ann)
				terms[j] = ann.Terms()
			}
			vsm.BuildFromTerms(terms)
		}
	})
}

// --- sharded retrieval scaling ----------------------------------------------

// BenchmarkShardedQuery measures the two Stage-II calls the service makes
// per query — MatchesTermsCtx at the paper's threshold (the default VSM
// backend) and Scorer("bm25").ScoreTermsCtx (the dense BM25 slice) — across
// shard counts and corpus sizes (tracked across PRs). The corpora come from
// the same seeded generator corpusgen exposes, so the numbers are
// reproducible from the (register, size, frac, seed) tuple. Scores are
// bit-identical at every shard count, so this benchmark isolates pure
// orchestration overhead (goroutine fan-out, k-way merge) against whatever
// parallel speedup the host's cores provide.
func BenchmarkShardedQuery(b *testing.B) {
	query := textproc.NormalizeTerms("minimize divergent warps caused by control flow")
	for _, nDocs := range []int{1000, 10000} {
		g := corpus.GenerateSized(corpus.CUDA, nDocs, 0.2, 19)
		texts := g.Texts()
		termLists := make([][]string, len(texts))
		ids := make([]doc.SentenceID, len(texts))
		for i, s := range texts {
			termLists[i] = textproc.NormalizeTerms(s)
			ids[i] = doc.SentenceID(fmt.Sprintf("bench-%d-%d", nDocs, i))
		}
		for _, nShards := range []int{1, 4, 8} {
			ix := vsm.BuildShardedFromTerms(termLists, ids, nShards)
			bm, err := ix.Scorer(vsm.BackendBM25)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.Run(fmt.Sprintf("docs=%d/shards=%d/vsm", nDocs, nShards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ix.MatchesTermsCtx(ctx, query, vsm.DefaultThreshold)
				}
			})
			b.Run(fmt.Sprintf("docs=%d/shards=%d/bm25", nDocs, nShards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bm.ScoreTermsCtx(ctx, query)
				}
			})
		}
	}
}

// --- document-size scaling -------------------------------------------------

func benchScaling(b *testing.B, n int) {
	g := corpus.GenerateSized(corpus.CUDA, n, 0.2, 13)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

func BenchmarkScaling_200Sentences(b *testing.B)  { benchScaling(b, 200) }
func BenchmarkScaling_800Sentences(b *testing.B)  { benchScaling(b, 800) }
func BenchmarkScaling_2000Sentences(b *testing.B) { benchScaling(b, 2000) }
