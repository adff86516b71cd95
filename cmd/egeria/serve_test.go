package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// testSource wraps a small synthetic guide as a lifecycle source, so serve
// tests boot quickly instead of building full-size advisors.
func testSource(t testing.TB, name string, size int, seed int64) lifecycle.Source {
	t.Helper()
	reg, err := corpusRegister(name)
	if err != nil {
		t.Fatal(err)
	}
	return lifecycle.Source{
		Name:        name,
		Fingerprint: func() (string, error) { return fmt.Sprintf("test:%s:%d:%d", name, size, seed), nil },
		Build: func(ctx context.Context) (*core.Advisor, error) {
			g := corpus.GenerateSized(reg, size, 0.3, seed)
			return core.New().BuildFromSentences(g.Doc, g.Sentences), nil
		},
	}
}

// TestServeEndToEnd exercises the full serve stack exactly as `egeria serve`
// assembles it — buildServeHandler on an ephemeral port — under concurrent
// load (run with -race in CI): every /v1/query answer carries a unique trace
// ID, the webui and JSON API share one cache, pprof and /tracez respond, and
// the /metricz request counter equals the number of requests served.
func TestServeEndToEnd(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// a dedicated registry so the reconciliation below counts only this
	// test's requests
	metrics := obs.NewRegistry()
	handler, svc, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		seed:        3,
		cacheSize:   64,
		maxInflight: 16,
		timeout:     10 * time.Second,
		traceSample: 1,
		metrics:     metrics,
		sources:     []lifecycle.Source{testSource(t, "cuda", 120, 3)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	const (
		goroutines = 8
		perG       = 10
	)
	queries := []string{
		"how to reduce global memory latency",
		"avoid divergent warps",
		"improve occupancy",
	}
	var (
		mu       sync.Mutex
		traceIDs = map[string]int{}
	)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := queries[(gi+i)%len(queries)]
				resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + strings.ReplaceAll(q, " ", "+"))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("query %q: %d %s", q, resp.StatusCode, body)
					return
				}
				var qr struct {
					TraceID string `json:"trace_id"`
				}
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Error(err)
					return
				}
				if qr.TraceID == "" || qr.TraceID != resp.Header.Get("X-Trace-Id") {
					t.Errorf("trace_id %q vs header %q", qr.TraceID, resp.Header.Get("X-Trace-Id"))
					return
				}
				mu.Lock()
				traceIDs[qr.TraceID]++
				mu.Unlock()
			}
		}(gi)
	}
	wg.Wait()

	served := goroutines * perG
	if len(traceIDs) != served {
		dups := 0
		for _, n := range traceIDs {
			if n > 1 {
				dups++
			}
		}
		t.Errorf("%d distinct trace IDs over %d requests (%d duplicated)", len(traceIDs), served, dups)
	}

	// the webui must answer through the same stack (and the shared cache)
	for _, path := range []string{"/", "/query?q=reduce+memory+latency", "/doc"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("webui %s: %d", path, resp.StatusCode)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Errorf("webui %s: no X-Trace-Id (tracing middleware not mounted)", path)
		}
	}

	// debug surfaces
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/tracez", "/metricz", "/statsz", "/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
	}

	// a sampled trace is retrievable by ID
	var anyID string
	for id := range traceIDs {
		anyID = id
		break
	}
	resp, err := http.Get(ts.URL + "/tracez?id=" + anyID)
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		// the trace store holds 128 traces and we made 80+ requests, so the
		// sampled tree for this ID may have been evicted only if capacity
		// were exceeded — it is not
		t.Fatalf("tracez?id=%s: %d %s", anyID, resp.StatusCode, tbody)
	}
	var tr obs.TraceJSON
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) == 0 {
		t.Error("sampled trace has no child spans")
	}

	// reconciliation: the service counted exactly the /v1 + health/statsz
	// requests that went through it; its query histogram counted every query
	code, mbody := httpGet(t, ts.URL+"/metricz")
	if code != 200 {
		t.Fatalf("metricz %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	qh, ok := snap.Histograms["service_query_latency_micros"]
	if !ok {
		t.Fatal("metricz missing service_query_latency_micros")
	}
	// exactly the JSON queries: webui queries share CachedQuery but only
	// the /v1 handler records query latency
	if qh.Count != int64(served) {
		t.Errorf("query histogram count %d, want %d", qh.Count, served)
	}
	if got := snap.Counters["service_requests_total"]; got < int64(served) {
		t.Errorf("service_requests_total %d < %d queries served", got, served)
	}
	stats := svc.Stats()
	if snap.Counters["service_cache_hits_total"] != stats.CacheHits {
		t.Errorf("metricz hits %d != statsz hits %d", snap.Counters["service_cache_hits_total"], stats.CacheHits)
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeHTTPServerLimits: the serving http.Server bounds the request
// head and idle keep-alives, and refuses an oversized header block with 431
// before any handler runs, while an ordinary request still goes through.
func TestServeHTTPServerLimits(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	srv := newHTTPServer("", ok)
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("limits: ReadHeaderTimeout %v IdleTimeout %v MaxHeaderBytes %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	ts := httptest.NewUnstartedServer(ok)
	ts.Config = srv
	ts.Start()
	defer ts.Close()
	get := func(pad int) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", strings.Repeat("a", pad))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(1 << 10); code != http.StatusNoContent {
		t.Fatalf("1 KiB header: status %d, want %d", code, http.StatusNoContent)
	}
	if code := get(2 * maxHeaderBytes); code != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want %d", code, http.StatusRequestHeaderFieldsTooLarge)
	}
}

// TestServeBatchAskBackend exercises the federated serving surface end to
// end as `egeria serve -corpora opencl` assembles it: per-query backend
// selection on /v1/query, the /v1/batch worker pool with per-item trace
// IDs, the cross-advisor /v1/ask merge, and the webui's /ask page.
func TestServeBatchAskBackend(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	handler, svc, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		seed:        7,
		cacheSize:   64,
		maxInflight: 16,
		maxBatch:    8,
		timeout:     10 * time.Second,
		metrics:     obs.NewRegistry(),
		sources: []lifecycle.Source{
			testSource(t, "cuda", 120, 7),
			testSource(t, "opencl", 120, 7),
		},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// per-query backend selection: both backends answer, responses echo the
	// chosen backend, unknown backends are client errors
	for _, backend := range []string{"", "vsm", "bm25"} {
		url := ts.URL + "/v1/cuda/query?q=reduce+memory+latency"
		if backend != "" {
			url += "&backend=" + backend
		}
		code, body := httpGet(t, url)
		if code != 200 {
			t.Fatalf("backend %q: %d %s", backend, code, body)
		}
		var qr struct {
			Backend string `json:"backend"`
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Backend != backend {
			t.Errorf("backend %q echoed as %q", backend, qr.Backend)
		}
	}
	if code, _ := httpGet(t, ts.URL+"/v1/cuda/query?q=x&backend=nope"); code != 400 {
		t.Errorf("unknown backend: %d, want 400", code)
	}
	code, body := httpGet(t, ts.URL+"/v1/backends")
	if code != 200 || !strings.Contains(string(body), "bm25") {
		t.Errorf("/v1/backends: %d %s", code, body)
	}

	// batch: mixed advisors and backends, one bad item; per-item trace IDs
	// must be unique and the bad item must not fail the batch
	batch := `{"queries":[
		{"advisor":"cuda","query":"reduce global memory latency"},
		{"advisor":"opencl","query":"work group size"},
		{"advisor":"cuda","query":"avoid divergent warps","backend":"bm25"},
		{"advisor":"nosuch","query":"anything"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	bbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, bbody)
	}
	var br struct {
		Count   int `json:"count"`
		Errors  int `json:"errors"`
		Results []struct {
			Advisor string `json:"advisor"`
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		} `json:"results"`
	}
	if err := json.Unmarshal(bbody, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 4 || br.Errors != 1 {
		t.Errorf("batch count=%d errors=%d, want 4/1", br.Count, br.Errors)
	}
	ids := map[string]bool{}
	for i, r := range br.Results {
		if r.TraceID == "" || ids[r.TraceID] {
			t.Errorf("item %d: trace ID %q empty or duplicated", i, r.TraceID)
		}
		ids[r.TraceID] = true
	}
	if br.Results[3].Error == "" || br.Results[0].Error != "" {
		t.Errorf("per-item errors misplaced: %+v", br.Results)
	}
	// batch limits: empty and oversized batches are client errors
	for _, bad := range []string{`{"queries":[]}`, `{not json`} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("bad batch %q: %d, want 400", bad, resp.StatusCode)
		}
	}

	// federated ask: answers must come from more than one advisor when both
	// match, with normalized scores in (0, 1] and advisor attribution
	code, abody := httpGet(t, ts.URL+"/v1/ask?q=memory+performance&k=5")
	if code != 200 {
		t.Fatalf("ask: %d %s", code, abody)
	}
	var ar struct {
		Count   int `json:"count"`
		Answers []struct {
			Advisor string  `json:"advisor"`
			Norm    float64 `json:"norm"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(abody, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Count == 0 {
		t.Fatal("federated ask found nothing")
	}
	advisors := map[string]bool{}
	for i, a := range ar.Answers {
		advisors[a.Advisor] = true
		if a.Norm <= 0 || a.Norm > 1 {
			t.Errorf("answer %d: norm %v out of (0,1]", i, a.Norm)
		}
		if i > 0 && ar.Answers[i-1].Norm < a.Norm {
			t.Errorf("answers not sorted by norm at %d", i)
		}
	}
	if len(advisors) < 2 {
		t.Errorf("federation drew from %d advisor(s), want >= 2 (got %v)", len(advisors), advisors)
	}
	if code, _ := httpGet(t, ts.URL+"/v1/ask"); code != 400 {
		t.Errorf("ask without q: %d, want 400", code)
	}

	// the webui /ask page federates through the same service
	code, hbody := httpGet(t, ts.URL+"/ask?q=memory+performance")
	if code != 200 || !strings.Contains(string(hbody), "opencl") && !strings.Contains(string(hbody), "cuda") {
		t.Errorf("webui /ask: %d (advisor attribution missing)", code)
	}

	stats := svc.Stats()
	if stats.Batches != 1 || stats.BatchItems != 4 {
		t.Errorf("batch stats %d/%d, want 1/4", stats.Batches, stats.BatchItems)
	}
	if stats.Asks < 2 {
		t.Errorf("asks %d, want >= 2 (JSON + webui)", stats.Asks)
	}
}

// TestServeConfigTraceSampleOff: with sampling off (the default), requests
// still get trace IDs but /tracez records nothing.
func TestServeConfigTraceSampleOff(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	handler, _, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		cacheSize:   16,
		maxInflight: 4,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		sources:     []lifecycle.Source{testSource(t, "cuda", 60, 5)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/cuda/query?q=memory+latency")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Error("no trace ID with sampling off; IDs must be assigned regardless")
	}
	code, body := httpGet(t, ts.URL+"/tracez?id="+id)
	if code != 404 {
		t.Errorf("tracez with sampling off: %d %s, want 404", code, body)
	}
	if code, _ := httpGet(t, ts.URL+fmt.Sprintf("/tracez?n=%d", 5)); code != 200 {
		t.Errorf("tracez listing: %d", code)
	}
}

// TestServeReloadRaceHammer hammers the full stack with concurrent queries
// while advisors are hot-swapped underneath them from two directions at
// once: direct service Reloads (the lifecycle watcher's path) and
// POST /v1/admin/reload (the operator's path). Run under -race in CI. Every
// query must succeed with a unique trace ID, and the lifecycle counters on
// /statsz must show the reloads.
func TestServeReloadRaceHammer(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	var buildSeq int64 // varied per rebuild so swaps carry a real rule diff
	var seqMu sync.Mutex
	src := lifecycle.Source{
		Name:        "cuda",
		Fingerprint: func() (string, error) { return "hammer", nil },
		Build: func(ctx context.Context) (*core.Advisor, error) {
			seqMu.Lock()
			buildSeq++
			seed := buildSeq
			seqMu.Unlock()
			g := corpus.GenerateSized(corpus.CUDA, 80, 0.3, seed)
			return core.New().BuildFromSentences(g.Doc, g.Sentences), nil
		},
	}
	metrics := obs.NewRegistry()
	handler, svc, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		cacheSize:   64,
		maxInflight: 32,
		timeout:     10 * time.Second,
		traceSample: 1,
		metrics:     metrics,
		sources:     []lifecycle.Source{src},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	const queryWorkers = 6
	const perWorker = 12
	var (
		mu       sync.Mutex
		traceIDs = map[string]int{}
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// direction 1: background Replace, as the watcher would do it
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(100); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := corpus.GenerateSized(corpus.CUDA, 80, 0.3, i)
			svc.Reload("cuda", core.New().BuildFromSentences(g.Doc, g.Sentences))
		}
	}()
	// direction 2: operator reloads through the admin endpoint; 200 and 409
	// (single-flight collision with another reload) are both fine
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/admin/reload?advisor=cuda", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 && resp.StatusCode != 409 {
				t.Errorf("admin reload: %d", resp.StatusCode)
				return
			}
		}
	}()

	var qwg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			queries := []string{"reduce memory latency", "improve occupancy", "avoid divergent warps"}
			for i := 0; i < perWorker; i++ {
				q := strings.ReplaceAll(queries[(w+i)%len(queries)], " ", "+")
				resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + q)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				id := resp.Header.Get("X-Trace-Id")
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("query during reload storm: %d", resp.StatusCode)
					return
				}
				mu.Lock()
				traceIDs[id]++
				mu.Unlock()
			}
		}(w)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()

	if len(traceIDs) != queryWorkers*perWorker {
		t.Errorf("%d distinct trace IDs over %d queries", len(traceIDs), queryWorkers*perWorker)
	}

	// the admin reloads must be visible on /statsz and /metricz, and agree
	var stats struct {
		Lifecycle *lifecycle.State `json:"lifecycle"`
	}
	code, sbody := httpGet(t, ts.URL+"/statsz")
	if code != 200 {
		t.Fatalf("statsz: %d", code)
	}
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Lifecycle == nil || stats.Lifecycle.Reloads < 1 {
		t.Fatalf("statsz lifecycle missing or reload-free: %s", sbody)
	}
	code, mbody := httpGet(t, ts.URL+"/metricz")
	if code != 200 {
		t.Fatalf("metricz: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["lifecycle_reloads_total"]; got != stats.Lifecycle.Reloads {
		t.Errorf("metricz reloads %d != statsz reloads %d", got, stats.Lifecycle.Reloads)
	}
}

// TestServeCrashSafetyFallback: a garbage snapshot in -snapshot-dir (as a
// crash mid-write would leave only if the atomic rename protocol were
// violated) must not stop the server from starting — the bad file is
// quarantined, the advisor is cold-built and re-snapshotted, and the event
// is visible on /metricz.
func TestServeCrashSafetyFallback(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cuda.snap"), []byte("\x00garbage, not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cuda.json"), []byte(`{"format_version":1,"advisor":"cuda","source_hash":"test:cuda:90:11","checksum":"deadbeef","bytes":26}`), 0o644); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	metrics := obs.NewRegistry()
	handler, _, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		snapshotDir: dir,
		cacheSize:   16,
		maxInflight: 4,
		timeout:     5 * time.Second,
		metrics:     metrics,
		sources:     []lifecycle.Source{testSource(t, "cuda", 90, 11)},
	}, logger)
	if err != nil {
		t.Fatalf("server failed to start over a corrupt snapshot: %v", err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	if code, _ := httpGet(t, ts.URL+"/readyz"); code != 200 {
		t.Errorf("readyz after fallback: %d", code)
	}
	if code, body := httpGet(t, ts.URL+"/v1/cuda/query?q=memory+latency"); code != 200 {
		t.Errorf("query after fallback: %d %s", code, body)
	}
	// the bad snapshot is preserved as evidence, not silently overwritten
	if _, err := os.Stat(filepath.Join(dir, "cuda.snap.bad")); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	// the rebuild re-snapshotted: the next boot warm-starts cleanly
	if _, err := os.Stat(filepath.Join(dir, "cuda.snap")); err != nil {
		t.Errorf("no fresh snapshot after fallback rebuild: %v", err)
	}
	// and the corruption event is visible on /metricz
	code, mbody := httpGet(t, ts.URL+"/metricz")
	if code != 200 {
		t.Fatalf("metricz: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["lifecycle_snapshot_corrupt_total"]; got != 1 {
		t.Errorf("lifecycle_snapshot_corrupt_total = %d, want 1", got)
	}

	// second boot over the repaired store: pure warm start, zero cold builds
	metrics2 := obs.NewRegistry()
	_, svc2, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		snapshotDir: dir,
		cacheSize:   16,
		maxInflight: 4,
		timeout:     5 * time.Second,
		metrics:     metrics2,
		sources:     []lifecycle.Source{testSource(t, "cuda", 90, 11)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	lc := svc2.Stats().Lifecycle
	if lc == nil || lc.SnapshotHits != 1 || lc.SnapshotMisses != 0 {
		t.Errorf("second boot not a pure warm start: %+v", lc)
	}
}
