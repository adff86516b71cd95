package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/service"
)

// client is one load-generator connection: a keep-alive transport limited
// to a single connection, used by one goroutine at a time.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// route renders a generated request as its method, target (path and
// query) and body.
func route(r request) (method, target string, body []byte, err error) {
	switch r.kind {
	case kindQuery:
		target = "/v1/" + r.advisor + "/query?q=" + url.QueryEscape(r.text)
		if r.backend != "" {
			target += "&backend=" + r.backend
		}
		return http.MethodGet, target, nil, nil
	case kindAsk:
		return http.MethodGet, "/v1/ask?q=" + url.QueryEscape(r.text), nil, nil
	case kindReport:
		return http.MethodPost, "/v1/" + r.advisor + "/report", []byte(r.body), nil
	case kindBatch:
		body, err = json.Marshal(service.BatchRequest{Queries: r.items})
		return http.MethodPost, "/v1/batch", body, err
	}
	return "", "", nil, fmt.Errorf("no HTTP form for %v", r.kind)
}

// do sends one request and reads the whole response; keep returns a copy
// of the body.
func (c *client) do(req *http.Request, keep bool) (status int, body []byte, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	if keep {
		body = bytes.Clone(c.buf.Bytes())
	}
	return resp.StatusCode, body, nil
}

// outcome is what happened to one request.
type outcome struct {
	req     request
	due     time.Time // open loop: when it was scheduled (zero in closed loop)
	sent    time.Time
	done    time.Time
	status  int
	err     error
	sampled bool   // checked against the oracle
	body    []byte // kept for sampled requests
	mode    string // reloads: lifecycle mode of the swap ("incremental", "full")
}

func (o *outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// latency is due→done in the open loop (a stall counts against every
// request it delays) and sent→done otherwise.
func (o *outcome) latency() time.Duration {
	if !o.due.IsZero() {
		return o.done.Sub(o.due)
	}
	return o.done.Sub(o.sent)
}

// reloader applies the edit script: each reload writes the next version of
// the CUDA guide to the served file and asks the server to reload it.
// Versions are numbered from 1.
type reloader struct {
	path     string
	versions []string
	applied  int
}

func (rl *reloader) do(c *client, o *outcome) {
	o.req = request{kind: kindReload, advisor: "cuda"}
	if rl.applied >= len(rl.versions) {
		o.err = fmt.Errorf("edit script exhausted after %d versions", rl.applied)
		return
	}
	if err := writeFileAtomic(rl.path, []byte(rl.versions[rl.applied])); err != nil {
		o.err = err
		return
	}
	rl.applied++
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/admin/reload?advisor=cuda", nil)
	if err != nil {
		o.err = err
		return
	}
	o.sent = time.Now()
	o.status, o.body, o.err = c.do(req, true)
	o.done = time.Now()
	if o.ok() {
		o.mode = reloadMode(o.body)
	}
}

// reloadMode reads the cuda advisor's last rebuild mode from a reload
// response (the lifecycle state /statsz also serves).
func reloadMode(body []byte) string {
	var resp struct {
		State lifecycle.State `json:"state"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return ""
	}
	for _, a := range resp.State.Advisors {
		if a.Advisor == "cuda" {
			return a.LastMode
		}
	}
	return ""
}

// send performs one generated request on c.
func send(c *client, r request, o *outcome) {
	o.req = r
	method, target, body, err := route(r)
	if err != nil {
		o.err = err
		return
	}
	req, err := http.NewRequest(method, c.base+target, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	o.sent = time.Now()
	o.status, o.body, o.err = c.do(req, o.sampled)
	o.done = time.Now()
}

// sampler picks the requests whose answers are checked: a seeded 1-in-n
// choice per phase and index.
type sampler struct {
	seed  int64
	every uint64
}

func (s sampler) pick(phase, i int) bool {
	return uint64(subSeed(s.seed, saltSample*1000003+phase*7919+i))%s.every == 0
}

// scheduled is one open-loop arrival.
type scheduled struct {
	at  time.Duration // offset from the phase start
	req request
}

// openSchedule draws Poisson arrivals at the workload's fixed rate over
// dur, taking requests from st.
func openSchedule(w *workload, st *stream, seed int64, dur time.Duration) []scheduled {
	rng := rand.New(rand.NewSource(subSeed(seed, saltSchedule)))
	var out []scheduled
	t := time.Duration(0)
	for i := 0; ; i++ {
		t += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if t >= dur {
			break
		}
		out = append(out, scheduled{at: t, req: st.at(i)})
	}
	return out
}

// runOpen sends the schedule: a dispatcher hands each request to the
// connection pool when it is due, never blocking on busy connections, so
// lag (dispatch time − due time) measures only the generator itself. A
// request that waits for a free connection is still timed from its due time.
func runOpen(clients []*client, sched []scheduled, smp sampler, phase int) (outs []outcome, lag []float64) {
	outs = make([]outcome, len(sched))
	lag = make([]float64, len(sched))
	queue := make(chan int, len(sched)) // one slot per scheduled request: dispatch never blocks
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range queue {
				outs[i].sampled = smp.pick(phase, i)
				send(c, sched[i].req, &outs[i])
			}
		}(c)
	}
	// the dispatcher sleeps on its own OS thread with nanosleep: Go timers
	// wake an idle process through epoll_wait, whose millisecond timeout
	// makes every dispatch up to 1 ms late
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, s := range sched {
		due := start.Add(s.at)
		sleepUntil(due)
		lag[i] = float64(time.Since(due)) / float64(time.Millisecond)
		outs[i].due = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, lag
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runClosed runs one client per connection, each sending its next request
// as soon as the previous one completes, for dur. It returns the outcomes in
// the order they were sent and the time the phase started.
func runClosed(clients []*client, st *stream, smp sampler, phase int, dur time.Duration) ([]outcome, time.Time) {
	var next atomic.Int64
	per := make([][]outcome, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				if time.Since(start) >= dur {
					return
				}
				var o outcome
				i := int(next.Add(1)) - 1
				o.sampled = smp.pick(phase, i)
				send(c, st.at(i), &o)
				per[ci] = append(per[ci], o)
			}
		}(ci, c)
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].sent.Before(outs[j].sent) })
	return outs, start
}

// runWarmup sends n requests of st closed-loop, untimed, so caches and lazy
// index state are populated before measuring.
func runWarmup(clients []*client, st *stream, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var o outcome
				send(c, st.at(i), &o)
			}
		}(c)
	}
	wg.Wait()
}

// metricz fetches the server's counters.
func metricz(c *client) (map[string]int64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	status, body, err := c.do(req, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metricz: status %d", status)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/metricz: %w", err)
	}
	return snap.Counters, nil
}

// servedShards reads the index shard count the server chose for cuda.
func servedShards(c *client) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/statsz", nil)
	if err != nil {
		return 0, err
	}
	_, body, err := c.do(req, true)
	if err != nil {
		return 0, err
	}
	var st service.StatsSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("/statsz: %w", err)
	}
	if st.Lifecycle != nil {
		for _, a := range st.Lifecycle.Advisors {
			if a.Advisor == "cuda" {
				return max(a.Shards, 1), nil
			}
		}
	}
	return 0, fmt.Errorf("/statsz: no lifecycle entry for cuda")
}

// writeFileAtomic writes data to path through a rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
