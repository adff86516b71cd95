// Command perfbench is the served-path benchmark of egeria: it starts the
// real `egeria serve` binary in a child process with the shipped defaults,
// drives it with a seeded load generator over loopback, checks sampled
// answers bit for bit against an in-process oracle, and prints one JSON
// result line. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 40 --trace 0
//
// A run has an untimed warm-up, an open loop (Poisson arrivals at the
// workload's fixed rate, each request timed from when it was due) and a
// closed loop (nproc clients back to back, measuring capacity). --trace 0
// reports the end-to-end metrics; --trace 1 then probes, one request at a
// time, the endpoints the workload's traffic lacks and a few edit-and-reload
// steps followed by queries that must see the reloaded guide, replays the
// same inputs in process with a span around every call into a layer, and
// reports the per-layer metrics.
// metrics.go lists every metric with what it should move, on which
// workload; `perfbench -list` prints that table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	setupRuns    = 15               // server starts per run; setup_s is their median
	probeCount   = 32               // requests per endpoint a workload's traffic lacks (--trace 1)
	probeReloads = 3                // reloads after the load phases (--trace 1)
	sampleEvery  = 8                // one request in 8 is checked against the oracle
	maxLagMS     = 20.0             // open-loop latencies are invalid when the generator lag p99 exceeds this
	failedMS     = 10000.0          // latency counted for a failed request (the client timeout)
	clockTicks   = 100.0            // USER_HZ: the unit of /proc CPU times
	startTimeout = 60 * time.Second // per server start
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	egeria   string
	workdir  string
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	list := flag.Bool("list", false, "print every metric with its unit and rationale, then exit")
	flag.StringVar(&o.workload, "workload", "", "workload name: hot-mix or cold-10k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds (open loop 3/5, closed loop 2/5)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.egeria, "egeria", "", "path of the egeria binary to serve")
	flag.StringVar(&o.workdir, "workdir", "", "directory for the served files and the span trace")
	flag.Parse()
	if *list {
		printRationale()
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printRationale() {
	for _, m := range endToEnd {
		fmt.Printf("%-30s %-6s %-6s bound %.2f  %s\n", m.name, m.unit, m.better, m.bound, m.how)
	}
	for _, m := range perLayer {
		fmt.Printf("%-30s %-6s %-6s moves %s on %s: %s\n", m.name, m.unit, m.better, m.moves, m.on, m.how)
	}
}

func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.egeria == "" || o.workdir == "" {
		return nil, errors.New("need --seconds >= 1, --trace 0|1, -egeria and -workdir")
	}
	bin, err := filepath.Abs(o.egeria) // the server runs in its own directory
	if err != nil {
		return nil, err
	}
	nproc := runtime.GOMAXPROCS(0)
	traced := o.trace == 1
	measured := time.Duration(o.seconds) * time.Second
	openDur := measured * 3 / 5
	closedDur := measured - openDur

	// --- inputs, all generated before anything is timed ---
	guides := makeGuides(w, o.seed)
	steps := 0
	if traced {
		steps = probeReloads
	}
	htmls, versions, err := editScript(guides[0].doc, o.seed, steps)
	if err != nil {
		return nil, err
	}
	gen := newGenerator(w, guides, o.seed)
	warmN := 3000
	if w.unique {
		warmN = 300
	}
	warmSt := newStream(o.seed, saltWarm, gen.mixer())
	warmSt.prefill(warmN)
	openSt := newStream(o.seed, saltOpen, gen.mixer())
	sched := openSchedule(w, openSt, o.seed, openDur)
	closedSt := newStream(o.seed, saltClosed, gen.mixer())
	closedSt.prefill(int(closedDur.Seconds()) * w.closedAhead)
	// the probes run one after another once the load phases are over: the
	// endpoints the workload's traffic lacks, the reloads, then cuda queries
	// that must see the last reload's document
	var probes []request
	if traced {
		for k := kindQuery; k <= kindBatch; k++ {
			if w.hasKind(k) {
				continue
			}
			st := newStream(o.seed, saltProbe*16+int(k), func(r *rand.Rand) request { return gen.gen(r, k) })
			for i := 0; i < probeCount; i++ {
				probes = append(probes, st.at(i))
			}
		}
		for i := 0; i < probeReloads; i++ {
			probes = append(probes, request{kind: kindReload, advisor: "cuda"})
		}
		st := newStream(o.seed, saltProbe*16+int(kindReload), func(r *rand.Rand) request {
			q := gen.gen(r, kindQuery)
			q.advisor = "cuda"
			return q
		})
		for i := 0; i < probeCount; i++ {
			probes = append(probes, st.at(i))
		}
	}

	// --- the served process ---
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	docPath := filepath.Join(dir, "cuda.html")
	if err := writeFileAtomic(docPath, []byte(guides[0].html)); err != nil {
		return nil, err
	}
	args := []string{"-doc", docPath, "-seed", strconv.FormatInt(o.seed, 10)}
	if len(w.extras) > 0 {
		args = append(args, "-corpora", strings.Join(w.extras, ","))
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
		s, d, err := startServer(ctx, bin, args, dir)
		cancel()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			s.Close()
		} else {
			srv = s
		}
	}
	defer srv.Close()
	clients := make([]*client, nproc)
	for i := range clients {
		clients[i] = newClient(srv.base)
		defer clients[i].close()
	}
	ctl := clients[0] // control requests go between phases, on a load connection
	shards, err := servedShards(ctl)
	if err != nil {
		return nil, err
	}

	// --- load ---
	// the generator shares the host's CPUs with the server: start with a
	// small, freshly collected heap and collect rarely while measuring
	runtime.GC()
	gcPercent := debug.SetGCPercent(400)
	runWarmup(clients, warmSt, warmN)
	m0, err := metricz(ctl)
	if err != nil {
		return nil, err
	}
	rl := &reloader{path: docPath, versions: htmls}
	smp := sampler{seed: o.seed, every: sampleEvery}
	h0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	openOuts, lag := runOpen(clients, sched, smp, 0)
	h1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	m1, err := metricz(ctl)
	if err != nil {
		return nil, err
	}
	h2, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	cs, err := startCPUSampler(srv.cpuTicks)
	if err != nil {
		return nil, err
	}
	closedOuts, closedStart := runClosed(clients, closedSt, smp, 1, closedDur)
	var closedDone []time.Time
	for i := range closedOuts {
		if closedOuts[i].ok() {
			closedDone = append(closedDone, closedOuts[i].done)
		}
	}
	windows := cs.stopAt(closedStart.Add(closedDur), closedDone)
	h3, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	m2, err := metricz(ctl)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	probeOuts := make([]outcome, len(probes))
	for i, r := range probes {
		probeOuts[i].sampled = true
		if r.kind == kindReload {
			rl.do(ctl, &probeOuts[i])
		} else {
			send(ctl, r, &probeOuts[i])
		}
	}
	srv.Close()
	debug.SetGCPercent(gcPercent)

	sort.Float64s(lag)
	// open-loop latencies count from the due time, so a generator that fell
	// behind its schedule would pass its own delay off as the server's; no
	// end-to-end metric comes from the open loop, so only a run reporting
	// the latencies (--trace 1) is invalid then
	lagP99, _ := percentile(lag, 99)
	if lagP99 > maxLagMS {
		msg := fmt.Sprintf("the generator dispatched %.1f ms late at p99 (limit %.0f ms); the host could not keep the schedule", lagP99, maxLagMS)
		if traced {
			return nil, errors.New("run invalid: " + msg)
		}
		fmt.Fprintln(os.Stderr, "warning: open-loop latencies invalid (none is reported without --trace 1):", msg)
	}

	// --- correctness ---
	all := [][]outcome{openOuts, closedOuts, probeOuts}
	var reloads samples
	nReloads, incremental := 0, 0
	for i := range probeOuts {
		if r := &probeOuts[i]; r.req.kind == kindReload {
			nReloads++
			if r.ok() {
				reloads.add(r.done.Sub(r.sent))
			}
			if r.mode == "incremental" {
				incremental++
			}
		}
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	phaseFail, checked, mismatches := checkAnswers(newOracle(guides, versions), all)
	for p, outs := range all {
		res.Attempted += len(outs)
		res.Failed += phaseFail[p]
	}
	if mismatches > 0 {
		res.Correct = false
	}
	if incremental != nReloads {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "only %d of %d reloads rebuilt incrementally: the edit script no longer exercises the incremental path\n", incremental, nReloads)
	}
	fmt.Fprintf(os.Stderr, "checked %d sampled answers against the oracle: %d mismatches\n", checked, mismatches)

	// --- end-to-end metrics ---
	lat := func(outs []outcome, keep func(*outcome) bool) samples {
		var s samples
		for i := range outs {
			if keep(&outs[i]) {
				if outs[i].ok() {
					s.add(outs[i].latency())
				} else {
					s = append(s, failedMS)
				}
			}
		}
		return s
	}
	openLat := lat(openOuts, func(*outcome) bool { return true })
	p50 := openLat.median()
	p99, segments, perSegment, err := segmentedP99(openLat)
	if err != nil {
		return nil, err
	}
	closedOK := len(closedDone)
	closedSteal := stealShare(h2, h3)
	e2e := map[string]float64{
		"setup_s":        medianOf(setups),
		"throughput_rps": windowRate(quiet(windows)),
		"cpu_us_per_req": cpuPerRequest(quiet(windows)),
		"rss_mb":         float64(rss) / (1 << 20),
	}
	queryP50 := lat(openOuts, func(o *outcome) bool { return o.req.kind == kindQuery }).median()
	var wait samples
	for i := range openOuts {
		wait.add(openOuts[i].sent.Sub(openOuts[i].due))
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: open loop %d requests at %.0f/s (p50 %.3f ms, query p50 %.3f ms, p99 %.3f ms: median of %d segments of %d samples; due to sent median %.3f ms; steal %.3f), closed loop %d requests in %.1fs by %d clients (%.0f/s and %.1f us of server CPU each on the whole; steal %.3f; %d windows, %d quiet), %d server shards\n",
		w.name, o.seed, len(openOuts), w.rate, p50, queryP50, p99, segments, perSegment, wait.median(), stealShare(h0, h1), len(closedOuts), closedDur.Seconds(), nproc, float64(closedOK)/closedDur.Seconds(), cpuPerRequest(windows), closedSteal, len(windows), len(quiet(windows)), shards)

	if !traced {
		report(res, e2e, endToEnd)
		return res, nil
	}

	// --- per-layer metrics ---
	layer := map[string]float64{}
	delta := func(a, b map[string]int64, name string) float64 { return float64(b[name] - a[name]) }
	hits, misses := delta(m0, m1, "service_cache_hits_total"), delta(m0, m1, "service_cache_misses_total")
	layer["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["service.cache_evictions"] = delta(m0, m1, "service_cache_evictions_total")
	layer["service.rejected_ratio"] = ratio(delta(m1, m2, "service_rejected_total"), float64(len(closedOuts)))
	layer["service.timeouts"] = delta(m1, m2, "service_timeouts_total")
	layer["vsm.prune_skipped_per_query"] = ratio(delta(m0, m1, "vsm_prune_postings_skipped_total"), delta(m0, m1, "vsm_queries_scored_total"))
	fb := delta(m0, m1, "vsm_prune_fallbacks_total")
	layer["vsm.prune_fallback_ratio"] = ratio(fb, fb+delta(m0, m1, "vsm_prune_queries_total"))
	layer["p50_ms"] = p50
	layer["query_p50_ms"] = queryP50
	layer["p99_ms"] = p99
	layer["host.steal_ratio"] = stealShare(h0, h3)
	layer["loadgen.lag_p99_ms"] = lagP99
	layer["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	layer["lifecycle.incremental_ratio"] = ratio(float64(incremental), float64(nReloads))
	for p, name := range []string{"open", "closed"} {
		outs := all[p]
		layer["loadgen."+name+"_sent"] = float64(len(outs))
		layer["loadgen."+name+"_failed"] = float64(phaseFail[p])
		layer["loadgen."+name+"_ok"] = float64(len(outs) - phaseFail[p])
	}
	// endpoint medians from the workload's own traffic, or from the probe
	endpoint := func(k kind) samples {
		is := func(o *outcome) bool { return o.req.kind == k }
		if w.hasKind(k) {
			return lat(openOuts, is)
		}
		return lat(probeOuts, is)
	}
	layer["ask_p50_ms"] = endpoint(kindAsk).median()
	layer["batch_p50_ms"] = endpoint(kindBatch).median()
	layer["report_p50_ms"] = endpoint(kindReport).median()
	layer["reload_p50_ms"] = reloads.median()

	var items []replayItem
	for i := 0; i < warmN; i++ {
		items = append(items, replayItem{req: warmSt.at(i)})
	}
	for i := range openOuts {
		items = append(items, replayItem{req: openOuts[i].req, measured: true, served: &openOuts[i]})
	}
	for i := range probeOuts {
		items = append(items, replayItem{req: probeOuts[i].req, measured: true, served: &probeOuts[i]})
	}
	tr, err := layerMetrics(guides, versions, shards, items, layer)
	if tr != nil {
		path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, o.seed))
		if werr := tr.write(path); werr != nil {
			fmt.Fprintln(os.Stderr, "writing the span trace:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "span trace: %s (%d spans)\n", path, len(tr.spans))
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "query path: handler %.1f us = cache %.1f + nlp %.1f + core %.1f + vsm %.1f + bm25 %.1f + json %.1f + residual %.1f (%.0f%% unattributed); untraced p50 %.3f ms, traced %.3f ms\n",
		layer["service.handler_query_us"], layer["service.cache_self_us"], layer["nlp.query_terms_us"], layer["core.answer_us"],
		layer["vsm.score_us"], layer["vsm.score_bm25_us"], layer["service.json_us"], layer["service.residual_us"],
		100*ratio(layer["service.residual_us"], layer["service.handler_query_us"]), p50, layer["traced.p50_ms"])
	report(res, layer, perLayer)
	return res, nil
}

// checkAnswers counts each phase's failures — non-2xx, transport errors and
// timeouts, and sampled answers that differ from the oracle's at the cuda
// version the request saw — and prints the first few. Reloads are only
// among the probes, which ran one after another, so the version is the
// number of reloads before the request; after a failed reload it is unknown
// and no later answer is checked.
func checkAnswers(orc *oracle, phases [][]outcome) (failed [3]int, checked, mismatches int) {
	v := 0
	for p, outs := range phases {
		for i := range outs {
			out := &outs[i]
			if !out.ok() {
				failed[p]++
				if failed[p] <= 3 {
					fmt.Fprintf(os.Stderr, "failed %v: status %d err %v %s\n", out.req.kind, out.status, out.err, out.body)
				}
				if out.req.kind == kindReload {
					v = -1
				}
				continue
			}
			if out.req.kind == kindReload {
				if v >= 0 {
					v++
				}
				continue
			}
			if !out.sampled || v < 0 {
				continue
			}
			checked++
			err := orc.check(out.req, v, out.body)
			if err == nil {
				continue
			}
			mismatches++
			failed[p]++
			if mismatches > 3 {
				continue
			}
			fmt.Fprintf(os.Stderr, "wrong answer (%v %q at cuda version %d): %v\n", out.req.kind, out.req.text, v, err)
			for old := v - 1; old >= 0; old-- {
				if orc.check(out.req, old, out.body) == nil {
					fmt.Fprintf(os.Stderr, "  the served answer is cuda version %d's: an answer computed before a completed reload was served after it\n", old)
					break
				}
			}
		}
	}
	return failed, checked, mismatches
}

// report fills res with the listed metrics and prints them with units.
func report(res *result, values map[string]float64, list []metric) {
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "metric %s not measured\n", m.name)
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "  %-30s %14.6f %s\n", m.name, v, m.unit)
	}
}
