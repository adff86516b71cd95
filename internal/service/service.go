package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/vsm"
)

// Options configures a Service. The zero value gets sane production
// defaults.
type Options struct {
	CacheSize    int           // total cached queries (default 1024)
	CacheShards  int           // LRU shards (default 8)
	MaxInFlight  int           // concurrent retrievals (default 64)
	MaxQueue     int           // waiting-room size (default 4*MaxInFlight)
	Timeout      time.Duration // per-request deadline (default 2s)
	MaxBodySize  int64         // report upload cap in bytes (default 1 MiB)
	MaxBatch     int           // queries accepted per /v1/batch request (default 64)
	BatchWorkers int           // worker pool answering one batch (default 8, capped by MaxInFlight)
	Logger       *slog.Logger  // structured access log (default: discard)

	// Tracer samples request traces for /tracez. Every request gets a
	// trace ID (X-Trace-Id header, trace_id response field, access log)
	// regardless; the tracer only decides whether the span tree is
	// recorded. nil: never sampled.
	Tracer *obs.Tracer
	// Metrics is the registry the service's counters and latency
	// histograms live in, served on /metricz (default obs.Default()).
	Metrics *obs.Registry

	// Fault is the fault-injection layer (see internal/fault). nil — the
	// production default — compiles every fault point to a single nil
	// check, the same pattern as unsampled obs spans.
	Fault *fault.Injector
	// BreakerThreshold is how many consecutive infrastructure failures
	// open an advisor's circuit breaker (default 5); BreakerCooldown is
	// how long an open breaker waits before admitting a half-open probe
	// (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 8
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxBodySize <= 0 {
		o.MaxBodySize = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.BatchWorkers <= 0 {
		o.BatchWorkers = 8
	}
	if o.BatchWorkers > o.MaxInFlight {
		o.BatchWorkers = o.MaxInFlight
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	return o
}

// Service is the advising server: JSON API + cache + admission over a
// Registry. Create with New, mount via ServeHTTP (it implements
// http.Handler), and call BeginDrain before shutting the http.Server down.
type Service struct {
	reg      *Registry
	cache    *Cache
	admit    *Admission
	stats    *Stats
	opts     Options
	mux      *http.ServeMux
	flt      *fault.Injector // nil unless fault injection is enabled
	breakers *breakerSet     // per-advisor circuit breakers
	draining sync.RWMutex    // held exclusively only to flip drain
	drained  bool

	lcMu sync.RWMutex
	lc   *lifecycle.Manager // optional corpus lifecycle, see SetLifecycle
}

// New assembles a Service over reg. The registry's hot-swap log is routed to
// the service logger.
func New(reg *Registry, opts Options) *Service {
	opts = opts.withDefaults()
	stats := newStats(opts.Metrics)
	s := &Service{
		reg:      reg,
		cache:    NewCache(opts.CacheSize, opts.CacheShards, stats),
		admit:    NewAdmission(opts.MaxInFlight, opts.MaxQueue, stats),
		stats:    stats,
		opts:     opts,
		mux:      http.NewServeMux(),
		flt:      opts.Fault,
		breakers: newBreakerSet(opts.BreakerThreshold, opts.BreakerCooldown, opts.Metrics),
	}
	reg.SetLogf(func(format string, args ...any) {
		opts.Logger.Info(fmt.Sprintf(format, args...))
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metricz", obs.MetricsHandler(opts.Metrics))
	s.mux.Handle("GET /tracez", obs.TraceHandler(opts.Tracer.Store()))
	s.mux.HandleFunc("GET /v1/advisors", s.handleAdvisors)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/ask", s.handleAsk)
	s.mux.HandleFunc("POST /v1/ask", s.handleAsk)
	s.mux.HandleFunc("GET /v1/{advisor}/rules", s.handleRules)
	s.mux.HandleFunc("GET /v1/{advisor}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/{advisor}/report", s.handleReport)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleAdminReload)
	return s
}

// SetLifecycle attaches the corpus lifecycle manager: POST /v1/admin/reload
// triggers its rebuilds and /statsz gains a lifecycle section. Safe to call
// after the service is serving (the manager is usually wired once the
// registry is warm).
func (s *Service) SetLifecycle(lm *lifecycle.Manager) {
	s.lcMu.Lock()
	s.lc = lm
	s.lcMu.Unlock()
}

func (s *Service) lifecycleManager() *lifecycle.Manager {
	s.lcMu.RLock()
	defer s.lcMu.RUnlock()
	return s.lc
}

// Registry returns the advisor registry the service serves from.
func (s *Service) Registry() *Registry { return s.reg }

// Stats returns a point-in-time snapshot of the operational counters.
func (s *Service) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.CacheSize = s.cache.Len()
	snap.Advisors = s.reg.Len()
	if lm := s.lifecycleManager(); lm != nil {
		st := lm.State()
		snap.Lifecycle = &st
	}
	snap.Breakers = s.breakers.snapshot()
	return snap
}

// Reload hot-swaps the named advisor and invalidates its cached answers.
// It returns the rule diff, for callers that want to surface it.
func (s *Service) Reload(name string, next *core.Advisor) core.RulesDiff {
	diff := s.reg.Replace(name, next)
	dropped := s.cache.Invalidate(name)
	if dropped > 0 {
		s.opts.Logger.Info("cache invalidated", "advisor", name, "entries", dropped)
	}
	return diff
}

// BeginDrain marks the service not-ready so load balancers (polling /readyz)
// stop sending traffic; in-flight requests keep running. Pair it with
// http.Server.Shutdown, which drains open connections.
func (s *Service) BeginDrain() {
	s.draining.Lock()
	s.drained = true
	s.draining.Unlock()
	s.opts.Logger.Info("draining: readyz now failing, in-flight requests continuing")
}

func (s *Service) isDraining() bool {
	s.draining.RLock()
	defer s.draining.RUnlock()
	return s.drained
}

// statusRecorder captures the response code for access logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler with per-request tracing, access
// logging, and in-flight accounting around the routed handlers. Every
// request gets a trace ID (returned in X-Trace-Id and logged); when the
// tracer samples the request, the handler pipeline records a span tree
// retrievable from /tracez by that ID.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stats.requests.Add(1)
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	ctx, root := s.opts.Tracer.Start(r.Context(), r.Method+" "+r.URL.Path)
	traceID := obs.TraceID(ctx)
	w.Header().Set("X-Trace-Id", traceID)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	if ferr := s.flt.Err(fault.ServiceHandler); ferr != nil {
		// injected handler fault: the request fails before routing, but
		// still as a well-formed JSON error carrying its trace ID
		writeError(rec, http.StatusInternalServerError, "%v", ferr)
	} else {
		s.mux.ServeHTTP(rec, r.WithContext(ctx))
	}
	dur := time.Since(start)
	if rec.status >= 500 {
		s.stats.errors5xx.Add(1)
	}
	if root != nil {
		root.SetAttrInt("status", rec.status)
		root.Finish()
	}
	s.opts.Logger.Info("access",
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"dur_micros", dur.Microseconds(),
		"cache", rec.Header().Get("X-Cache"),
		"trace", traceID,
	)
}

// CachedQuery answers q against the named advisor through the cache and
// admission control — the path shared by the JSON API and the HTML webui.
// hit reports whether retrieval was skipped. It always scores with the
// default (VSM) backend.
func (s *Service) CachedQuery(ctx context.Context, advisor, q string) (answers []core.Answer, hit bool, err error) {
	return s.CachedQueryBackend(ctx, advisor, "", q)
}

// CachedQueryBackend is CachedQuery with an explicit scoring backend ("" or
// "vsm" for the paper's TF-IDF/cosine default, "bm25" for the Okapi view
// over the same postings). Unknown backends fail fast with
// vsm.ErrUnknownBackend, before admission or annotation. Each backend keys
// its own cache entries; the default spellings share one key space.
//
// Against a sharded advisor a partially degraded result (some shards failed
// their fault draw) comes back as a success; callers that need the degraded
// shard count use CachedQueryFull.
func (s *Service) CachedQueryBackend(ctx context.Context, advisor, backend, q string) (answers []core.Answer, hit bool, err error) {
	answers, hit, _, err = s.CachedQueryFull(ctx, advisor, backend, q)
	return answers, hit, err
}

// partialAnswers carries a degraded sharded result out of the cache compute
// func as an error: GetOrCompute never caches errors, so a partial result —
// correct for the shards that ran, silently missing the rest — can never be
// served from the cache as if it were complete. CachedQueryFull unwraps it
// back into a success with a non-zero shard-failure count.
type partialAnswers struct {
	answers []core.Answer
	failed  int
	err     error // first shard failure
}

func (p *partialAnswers) Error() string {
	return fmt.Sprintf("service: partial results, %d shards failed: %v", p.failed, p.err)
}

// CachedQueryFull is CachedQueryBackend plus the degraded-shard count: when
// the advisor's index is sharded and some (but not all) shards failed their
// fault-injection draw, the answers cover the surviving shards and
// shardsFailed reports how many are missing. Such partial results are never
// cached. All shards failing is a real error (and counts toward the
// advisor's circuit breaker).
func (s *Service) CachedQueryFull(ctx context.Context, advisor, backend, q string) (answers []core.Answer, hit bool, shardsFailed int, err error) {
	// one span lookup covers the whole query path: with tracing off (or
	// this request unsampled) parent is nil and every child span below is
	// a no-op nil pointer — the hot path pays a single ctx.Value call
	parent := obs.SpanFrom(ctx)
	if !vsm.ValidBackend(backend) {
		return nil, false, 0, fmt.Errorf("%w: %q", vsm.ErrUnknownBackend, backend)
	}
	if _, ok := s.reg.Get(advisor); !ok {
		return nil, false, 0, fmt.Errorf("%w: %q", ErrUnknownAdvisor, advisor)
	}
	// every outcome past this point feeds the advisor's circuit breaker:
	// successes reset it, infrastructure failures (timeouts, injected
	// faults, internal errors) count toward tripping it, and client errors
	// or server-wide overload are not this advisor's fault and record
	// nothing (see breakerFailure)
	defer func() {
		switch {
		case err == nil:
			s.breakers.get(advisor).Record(false)
		case breakerFailure(err):
			s.breakers.get(advisor).Record(true)
		}
	}()
	if ferr := s.flt.Err(fault.NLPAnnotate); ferr != nil {
		return nil, false, 0, ferr
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	admSpan := parent.StartChild("admission")
	if err := s.admit.Acquire(ctx); err != nil {
		admSpan.SetAttr("outcome", "rejected")
		admSpan.Finish()
		return nil, false, 0, err
	}
	admSpan.Finish()
	defer s.admit.Release()
	// annotate the query once: the normalized terms key the cache AND feed
	// retrieval on a miss, so the query text is never tokenized twice —
	// report answering (one CachedQuery per profiler issue) pays the query
	// NLP exactly once per issue
	annSpan := parent.StartChild("annotate")
	terms := nlp.QueryTerms(q)
	annSpan.SetAttrInt("terms", len(terms))
	annSpan.Finish()
	key := queryKey(advisor, backend, terms)
	// run the lookup in a goroutine so an expired deadline returns promptly;
	// the computation itself finishes and still populates the cache
	type result struct {
		answers []core.Answer
		hit     bool
		err     error
	}
	serial := vsm.SerialScoring(ctx)
	cacheSpan := parent.StartChild("cache")
	ch := make(chan result, 1)
	go func() {
		a, h, e := s.cache.GetOrCompute(key, func() ([]core.Answer, error) {
			// read the advisor only once this flight is registered: a Reload
			// that swapped it before this read is seen here, and one that
			// swaps it later drops the flight (Cache.Invalidate), so answers
			// from a replaced advisor never reach the cache
			adv, ok := s.reg.Get(advisor)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownAdvisor, advisor)
			}
			// a miss runs Stage-II retrieval; the score span hangs off the
			// cache span so a trace shows hit (no child) vs miss (scored)
			scoreSpan := cacheSpan.StartChild("score")
			defer scoreSpan.Finish()
			if backend != "" {
				scoreSpan.SetAttr("backend", backend)
			}
			// detach from the request ctx so the computation outlives an
			// expired deadline and still populates the cache, but carry the
			// caller's serial-scoring hint through — a batch worker pool is
			// already parallel across queries
			bctx := obs.ContextWithSpan(context.Background(), scoreSpan)
			if serial {
				bctx = vsm.WithSerialScoring(bctx)
			}
			if adv.ShardCount() > 1 {
				// sharded retrieval: the vsm.score fault point is drawn once
				// per shard inside the fan-out, so one failing shard degrades
				// the query to partial results instead of failing it
				sctx, outcome := vsm.WithShardOutcome(bctx)
				sctx = vsm.WithShardFault(sctx, func() error { return s.flt.Err(fault.VSMScore) })
				out, qerr := adv.QueryTermsBackendCtx(sctx, backend, terms)
				if qerr != nil {
					return nil, qerr
				}
				if failed := outcome.Failed(); failed > 0 {
					if failed >= outcome.Total() {
						return nil, fmt.Errorf("service: all %d index shards failed: %w", failed, outcome.Err())
					}
					scoreSpan.SetAttrInt("shards_failed", failed)
					return nil, &partialAnswers{answers: out, failed: failed, err: outcome.Err()}
				}
				scoreSpan.SetAttrInt("answers", len(out))
				return out, nil
			}
			// injected scoring faults surface here, inside the compute
			// func: GetOrCompute never caches errors, so a fault storm
			// cannot poison the cache with wrong answers
			if ferr := s.flt.Err(fault.VSMScore); ferr != nil {
				return nil, ferr
			}
			out, qerr := adv.QueryTermsBackendCtx(bctx, backend, terms)
			if qerr != nil {
				return nil, qerr
			}
			scoreSpan.SetAttrInt("answers", len(out))
			return out, nil
		})
		ch <- result{a, h, e}
	}()
	select {
	case res := <-ch:
		if cacheSpan != nil {
			cacheSpan.SetAttr("hit", strconv.FormatBool(res.hit))
			cacheSpan.Finish()
		}
		// a partial sharded result rides out of the compute func as an
		// error (so it is never cached); deliver it as a degraded success
		var partial *partialAnswers
		if errors.As(res.err, &partial) {
			return partial.answers, false, partial.failed, nil
		}
		return res.answers, res.hit, 0, res.err
	case <-ctx.Done():
		s.stats.timeouts.Add(1)
		if cacheSpan != nil {
			cacheSpan.SetAttr("outcome", "timeout")
			cacheSpan.Finish()
		}
		return nil, false, 0, ctx.Err()
	}
}

// ErrUnknownAdvisor: the path's {advisor} is not in the registry.
var ErrUnknownAdvisor = errors.New("service: unknown advisor")

// --- handlers ---------------------------------------------------------------

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() || s.reg.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Service) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleAdvisors(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	infos := make([]AdvisorInfo, 0, len(names))
	for _, n := range names {
		if a, ok := s.reg.Get(n); ok {
			infos = append(infos, advisorInfo(n, a))
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleRules(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	adv, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown advisor %q", name)
		return
	}
	rules := adv.Rules()
	resp := RulesResponse{Advisor: name, Count: len(rules), Rules: make([]Rule, len(rules))}
	for i, rule := range rules {
		resp.Rules[i] = toRule(rule)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	// absent/empty backend takes the default path and leaves the response
	// byte-identical to a backend-unaware build (Backend marshals omitempty)
	backend := strings.TrimSpace(r.URL.Query().Get("backend"))
	start := time.Now()
	answers, hit, shardsFailed, err := s.CachedQueryFull(r.Context(), name, backend, q)
	s.stats.recordQuery(time.Since(start))
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Advisor:      name,
		Query:        q,
		Backend:      backend,
		Count:        len(answers),
		Answers:      toAnswers(answers),
		ShardsFailed: shardsFailed,
		TraceID:      obs.TraceID(r.Context()),
	})
}

// handleBackends lists the scoring backends every advisor offers, default
// first — clients use it to populate a backend picker.
func (s *Service) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, BackendsResponse{Default: vsm.BackendVSM, Backends: vsm.Backends()})
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	if _, ok := s.reg.Get(name); !ok {
		writeError(w, http.StatusNotFound, "unknown advisor %q", name)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodySize+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxBodySize {
		writeError(w, http.StatusRequestEntityTooLarge, "report exceeds %d bytes", s.opts.MaxBodySize)
		return
	}
	report, err := parseReport(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "could not parse report: %v", err)
		return
	}
	start := time.Now()
	resp := ReportResponse{Advisor: name, Program: report.Program, TraceID: obs.TraceID(r.Context())}
	for _, issue := range report.Issues() {
		answers, _, err := s.CachedQuery(r.Context(), name, issue.Query())
		if err != nil {
			s.stats.recordReport(time.Since(start))
			writeQueryError(w, err)
			return
		}
		resp.Issues = append(resp.Issues, IssueAnswers{
			Title:   issue.Title,
			Section: issue.Section,
			Count:   len(answers),
			Answers: toAnswers(answers),
		})
	}
	s.stats.recordReport(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminReload synchronously rebuilds and hot-swaps advisors through
// the lifecycle manager — ?advisor=NAME for one, none for all. Single-flight
// collisions are 409 (a rebuild is already running, the request is
// redundant), unknown advisors 404, build failures 500.
func (s *Service) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	lm := s.lifecycleManager()
	if lm == nil {
		writeError(w, http.StatusNotImplemented, "corpus lifecycle not enabled on this server")
		return
	}
	advisor := strings.TrimSpace(r.URL.Query().Get("advisor"))
	start := time.Now()
	err := lm.ReloadNow(r.Context(), advisor)
	switch {
	case err == nil:
	case errors.Is(err, lifecycle.ErrInProgress):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, lifecycle.ErrUnknownSource):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "reload cancelled: %v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		Advisor:       advisor,
		DurationMicro: time.Since(start).Microseconds(),
		State:         lm.State(),
		TraceID:       obs.TraceID(r.Context()),
	})
}

// parseReport accepts both profiler formats: NVVP-style text and the JSON
// metrics snapshot.
func parseReport(text string) (*nvvp.Report, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "{") {
		m, err := nvvp.ParseMetricsJSON([]byte(trimmed))
		if err != nil {
			return nil, err
		}
		return m.Report(), nil
	}
	return nvvp.Parse(text)
}

// writeQueryError maps CachedQuery errors onto status codes: unknown advisor
// → 404, unknown backend → 400, overload → 429, deadline → 503, anything
// else → 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownAdvisor):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, vsm.ErrUnknownBackend):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request timed out")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// jsonBufs recycles writeJSON's render buffers. A buffer that grew past
// maxPooledJSON goes to the garbage collector instead, so one outsized
// response does not pin its memory in the pool.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSON = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	// render to a buffer first so marshal errors become clean 500s
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = buf.WriteTo(w)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	// ServeHTTP stamps X-Trace-Id on the response before routing, so every
	// error body can echo its trace ID without threading a context here
	writeJSON(w, status, ErrorResponse{
		Error:   fmt.Sprintf(format, args...),
		TraceID: w.Header().Get("X-Trace-Id"),
	})
}
