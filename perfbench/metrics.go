package main

// metric describes one reported number. moves and on record the reason a
// per-layer metric is measured: which end-to-end metric it should move, on
// which workload. Later changes cite these by name.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	how    string
	moves  string
	on     string
}

// endToEnd are the metrics a user or operator of the served system sees,
// reported by every --trace 0 run. bound is the share of the parent's median
// by which a change may worsen the metric before it counts as a regression.
// Only figures that repeat on a shared 2-vCPU virtual machine are bounded
// here; the latencies are in perLayer (see there).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		how: "child process start to the first /readyz 200: the cold Stage-I build of every advisor; median of 15 starts"},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25,
		how: "requests completed per second by nproc closed-loop clients, counted in 250 ms windows of the closed loop: mean of the middle half of the rates of the quiet windows (those whose host steal share, from /proc/stat, is no more than the least-stolen quarter's)"},
	{name: "cpu_us_per_req", unit: "us", better: "lower", bound: 0.2,
		how: "server CPU time (utime+stime of /proc/<pid>/stat) per request completed in the quiet windows of the closed loop (see throughput_rps)"},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.1,
		how: "server peak resident set (VmHWM of /proc/<pid>/status) at the end of the closed loop"},
}

// perLayer are the metrics of single layers, reported by every --trace 1
// run, plus the end-to-end latencies, which are reported but not bounded.
// On the 2-vCPU virtual machine this benchmark was built on, other guests
// took 0% to a third of the CPU time (steal) from run to run; over 10 seeds the
// open-loop p50 then varied by 0.31 of its median (quartile spread) and the
// p99 by 0.4 to 1.1 over 5, above the largest bound a regression check may
// use. The per-endpoint medians exist only where a workload sends that
// endpoint. Those marked "served" come from the egeria serve child (its
// /metricz deltas, or the generator's own timing); the rest from the
// in-process traced replay of the same generated inputs. A workload whose
// traffic lacks an endpoint gets a short probe of 32 such requests after
// the closed loop, so every metric is measured everywhere; every workload
// gets 3 probe reloads there. No workload reloads during its load phases.
var perLayer = []metric{
	{name: "p50_ms", unit: "ms", better: "lower", how: "open-loop latency from due time to response over all requests, nearest-rank median; unbounded (see above)",
		moves: "none; it is the latency users see", on: "all"},
	{name: "query_p50_ms", unit: "ms", better: "lower", how: "open-loop latency of GET /v1/{advisor}/query (k=0, threshold 0.15), median; unbounded (see above)",
		moves: "none; it is the query latency users see", on: "all"},
	{name: "p99_ms", unit: "ms", better: "lower", how: "open-loop latency from due time to response over all requests: the median of the nearest-rank 99th percentiles of an odd number of consecutive segments of at least 1000 requests, so at least 10 samples lie above each; unbounded (see above)",
		moves: "none; it is the tail users see", on: "all"},
	{name: "host.steal_ratio", unit: "1", better: "lower", how: "share of the host's CPU time the hypervisor gave other guests over the open and closed loops (/proc/stat); explains noise, moves nothing",
		moves: "none", on: "all"},
	{name: "ask_p50_ms", unit: "ms", better: "lower", how: "served: GET /v1/ask at the default per-advisor k, median",
		moves: "p50_ms", on: "hot-mix"},
	{name: "batch_p50_ms", unit: "ms", better: "lower", how: "served: POST /v1/batch of 8 items, median",
		moves: "p50_ms", on: "hot-mix"},
	{name: "report_p50_ms", unit: "ms", better: "lower", how: "served: POST /v1/{advisor}/report with NVVP text or JSON bodies, median",
		moves: "p50_ms", on: "hot-mix"},
	{name: "reload_p50_ms", unit: "ms", better: "lower", how: "served: POST /v1/admin/reload?advisor=cuda after a file edit, median",
		moves: "p99_ms", on: "every workload (probe reloads)"},
	{name: "failed_ratio", unit: "1", better: "lower", how: "(non-2xx + transport errors + timeouts + wrong answers) / attempted, all phases",
		moves: "p99_ms, throughput_rps", on: "all"},
	{name: "service.http_us", unit: "us", better: "lower", how: "served client round trip minus in-process Service.ServeHTTP for the same open-loop query, median",
		moves: "p50_ms, throughput_rps, cpu_us_per_req", on: "hot-mix"},
	{name: "service.handler_query_us", unit: "us", better: "lower", how: "Service.ServeHTTP with an httptest recorder, query requests, mean",
		moves: "query_p50_ms, cpu_us_per_req", on: "hot-mix, cold-10k"},
	{name: "service.handler_ask_us", unit: "us", better: "lower", how: "Service.ServeHTTP, ask requests, mean",
		moves: "ask_p50_ms", on: "hot-mix"},
	{name: "service.handler_batch_us", unit: "us", better: "lower", how: "Service.ServeHTTP, batch requests, mean",
		moves: "batch_p50_ms", on: "hot-mix"},
	{name: "service.handler_report_us", unit: "us", better: "lower", how: "Service.ServeHTTP, report requests, mean",
		moves: "report_p50_ms", on: "hot-mix"},
	{name: "service.cached_query_hit_us", unit: "us", better: "lower", how: "Service.CachedQueryFull repeated right after each query, so always a hit, mean",
		moves: "query_p50_ms, cpu_us_per_req", on: "hot-mix"},
	{name: "service.cached_query_miss_us", unit: "us", better: "lower", how: "Service.CachedQueryFull on the queries that missed, mean",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "service.cache_self_us", unit: "us", better: "lower", how: "self time of CachedQueryFull (minus nlp, core and vsm) per query request",
		moves: "query_p50_ms, cpu_us_per_req", on: "hot-mix"},
	{name: "service.residual_us", unit: "us", better: "lower", how: "self time of ServeHTTP for queries: handler minus CachedQueryFull minus JSON (routing, recorder, headers)",
		moves: "query_p50_ms, cpu_us_per_req", on: "hot-mix"},
	{name: "service.cache_hit_ratio", unit: "1", better: "higher", how: "served: service_cache_hits_total / (hits + misses) over the open loop",
		moves: "throughput_rps, p50_ms", on: "hot-mix (predicted ~0 on cold-10k)"},
	{name: "service.cache_evictions", unit: "count", better: "lower", how: "served: service_cache_evictions_total over the open loop",
		moves: "p50_ms", on: "hot-mix"},
	{name: "service.rejected_ratio", unit: "1", better: "lower", how: "served: service_rejected_total over the closed loop / closed-loop requests",
		moves: "failed_ratio, p99_ms", on: "all"},
	{name: "service.timeouts", unit: "count", better: "lower", how: "served: service_timeouts_total over the closed loop",
		moves: "failed_ratio, p99_ms", on: "all"},
	{name: "service.json_us", unit: "us", better: "lower", how: "encoding a service.QueryResponse as the handler does, per query request",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "service.response_bytes", unit: "bytes", better: "lower", how: "size of the encoded query response, mean",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "service.ask_leg_max_us", unit: "us", better: "lower", how: "slowest per-advisor CachedQueryBackend leg of one ask, mean",
		moves: "ask_p50_ms", on: "hot-mix"},
	{name: "nlp.query_terms_us", unit: "us", better: "lower", how: "nlp.QueryTerms of the query text, per query request",
		moves: "query_p50_ms, ask_p50_ms, cpu_us_per_req", on: "hot-mix"},
	{name: "nlp.query_terms_per_request", unit: "count", better: "lower", how: "QueryTerms calls one served request makes: 1 per query, 1 per ask leg, batch item and report issue",
		moves: "query_p50_ms, ask_p50_ms, cpu_us_per_req", on: "hot-mix"},
	{name: "vsm.score_us", unit: "us", better: "lower", how: "MatchesTermsCtx on an index built from the same terms with the served shard count and prune default, per query request",
		moves: "query_p50_ms, cpu_us_per_req, throughput_rps", on: "cold-10k (predicted negligible on hot-mix)"},
	{name: "vsm.score_bm25_us", unit: "us", better: "lower", how: "Scorer(\"bm25\").ScoreTermsCtx on the same index, per query request",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "vsm.matches_per_query", unit: "count", better: "lower", how: "matches MatchesTermsCtx returns per scored VSM query, mean",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "vsm.prune_skipped_per_query", unit: "count", better: "higher", how: "served: vsm_prune_postings_skipped_total / vsm_queries_scored_total over the open loop",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "vsm.prune_fallback_ratio", unit: "1", better: "lower", how: "served: vsm_prune_fallbacks_total / (prune queries + fallbacks) over the open loop",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "core.answer_us", unit: "us", better: "lower", how: "Advisor.QueryTermsBackendCtx minus the vsm scoring of the same terms, per query request",
		moves: "query_p50_ms, cpu_us_per_req", on: "cold-10k"},
	{name: "nvvp.parse_us", unit: "us", better: "lower", how: "nvvp.Parse or ParseMetricsJSON plus Report, mean",
		moves: "report_p50_ms", on: "hot-mix"},
	{name: "nvvp.issues_per_report", unit: "count", better: "lower", how: "len(Report.Issues()), mean",
		moves: "report_p50_ms", on: "hot-mix"},
	{name: "nlp.annotate_s", unit: "s", better: "lower", how: "Advisor.BuildStats().Annotate summed over in-process builds of the served documents",
		moves: "setup_s", on: "all, largest on cold-10k"},
	{name: "selectors.classify_s", unit: "s", better: "lower", how: "Advisor.BuildStats().Classify summed over the same builds",
		moves: "setup_s", on: "all, largest on cold-10k"},
	{name: "vsm.index_s", unit: "s", better: "lower", how: "Advisor.BuildStats().Indexing summed over the same builds",
		moves: "setup_s", on: "all, largest on cold-10k"},
	{name: "vsm.index_bytes_per_doc", unit: "bytes", better: "lower", how: "live-heap delta (after GC) around building and first use of the indexes / documents",
		moves: "rss_mb", on: "cold-10k"},
	{name: "core.update_ms", unit: "ms", better: "lower", how: "Framework.UpdateFromSentencesCtx on the same edit script, median",
		moves: "reload_p50_ms, p99_ms", on: "every workload (probe reloads)"},
	{name: "core.update_reuse_ratio", unit: "1", better: "higher", how: "BuildStats().Reused / sentences of each update, mean",
		moves: "reload_p50_ms", on: "every workload (probe reloads)"},
	{name: "lifecycle.incremental_ratio", unit: "1", better: "higher", how: "served: reloads whose lifecycle last_mode is incremental / reloads (must be 1)",
		moves: "reload_p50_ms", on: "every workload (probe reloads)"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", how: "how late the generator dispatched open-loop requests against the schedule, 99th percentile; validity check",
		moves: "none", on: "all"},
	{name: "loadgen.open_sent", unit: "count", better: "higher", how: "open-loop requests sent", moves: "none", on: "all"},
	{name: "loadgen.open_ok", unit: "count", better: "higher", how: "open-loop requests that succeeded", moves: "none", on: "all"},
	{name: "loadgen.open_failed", unit: "count", better: "lower", how: "open-loop requests that failed", moves: "none", on: "all"},
	{name: "loadgen.closed_sent", unit: "count", better: "higher", how: "closed-loop requests sent", moves: "throughput_rps", on: "all"},
	{name: "loadgen.closed_ok", unit: "count", better: "higher", how: "closed-loop requests that succeeded", moves: "throughput_rps", on: "all"},
	{name: "loadgen.closed_failed", unit: "count", better: "lower", how: "closed-loop requests that failed", moves: "none", on: "all"},
	{name: "traced.p50_ms", unit: "ms", better: "lower", how: "median in-process ServeHTTP time over the replayed requests; its gap to p50_ms is HTTP, queueing and tracing",
		moves: "p50_ms", on: "all"},
}
