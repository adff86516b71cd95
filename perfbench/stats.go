package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to be reported at all: a p99 over 300 samples rests on three values
// and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the value at rank ceil(p/100 * n), 1-based. beyond is how many
// samples lie above that rank. An empty input returns (0, 0).
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n) / 100)) // p*n is exact, so whole ranks stay whole
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// samples collects latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile (0 when empty).
func (s samples) median() float64 {
	v, _ := percentile(s.sorted(), 50)
	return v
}

// mean is the arithmetic mean (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianOf is the nearest-rank median of xs without modifying it.
func medianOf(xs []float64) float64 { return samples(xs).median() }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// segmentedP99 splits latencies, in the order they were scheduled, into the
// largest odd number of consecutive segments that each leave at least
// minBeyond samples above their 99th percentile, and returns the median of
// the segments' nearest-rank p99s with the segment count and size. A burst
// of interference from outside the benchmark then moves one segment's p99,
// not the result. It fails when even one segment would be too small.
func segmentedP99(lat []float64) (p99 float64, segments, per int, err error) {
	const minSegment = 100 * minBeyond // nearest rank leaves n/100 samples above p99
	segments = len(lat) / minSegment
	if segments%2 == 0 {
		segments--
	}
	if segments < 1 {
		return 0, 0, 0, fmt.Errorf("p99 needs at least %d samples, have %d; lengthen the run", minSegment, len(lat))
	}
	per = len(lat) / segments
	p99s := make([]float64, segments)
	for i := range p99s {
		seg := samples(lat[i*per : (i+1)*per]).sorted()
		p99s[i], _ = percentile(seg, 99)
	}
	return medianOf(p99s), segments, per, nil
}

// rateWindow is the span over which closed-loop completions are counted.
const rateWindow = 250 * time.Millisecond

// cpuSampler reads the host's CPU counters and the server's CPU time every
// rateWindow until stopped.
type cpuSampler struct {
	proc func() (float64, error) // the server's CPU time in clock ticks
	at   []time.Time
	host []cpuTimes
	srv  []float64
	stop chan struct{}
	done chan struct{}
}

func startCPUSampler(proc func() (float64, error)) (*cpuSampler, error) {
	s := &cpuSampler{proc: proc, stop: make(chan struct{}), done: make(chan struct{})}
	if err := s.sample(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(rateWindow)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
			}
			if s.sample() != nil {
				return // the windows sampled so far stay usable
			}
		}
	}()
	return s, nil
}

func (s *cpuSampler) sample() error {
	h, err := readCPUTimes()
	if err != nil {
		return err
	}
	p, err := s.proc()
	if err != nil {
		return err
	}
	s.at, s.host, s.srv = append(s.at, time.Now()), append(s.host, h), append(s.srv, p)
	return nil
}

// window is one sampled span of the closed loop.
type window struct {
	n     int     // requests completed in it
	secs  float64 // its length
	steal float64 // the host's steal share over it
	cpu   float64 // server CPU seconds spent in it
}

// stopAt ends sampling and returns the windows that closed by end, counting
// the completions at the given times.
func (s *cpuSampler) stopAt(end time.Time, done []time.Time) []window {
	close(s.stop)
	<-s.done
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var ws []window
	e := 0
	for i := 1; i < len(s.at) && !s.at[i].After(end); i++ {
		for e < len(done) && done[e].Before(s.at[i-1]) {
			e++
		}
		n := 0
		for ; e < len(done) && done[e].Before(s.at[i]); e++ {
			n++
		}
		ws = append(ws, window{
			n:     n,
			secs:  s.at[i].Sub(s.at[i-1]).Seconds(),
			steal: stealShare(s.host[i-1], s.host[i]),
			cpu:   (s.srv[i] - s.srv[i-1]) / clockTicks,
		})
	}
	return ws
}

// quiet returns the windows the hypervisor disturbed least: every window
// whose steal share is no more than that of the least-stolen quarter.
// Steal is CPU time the hypervisor gave to other guests while this one had
// work to run; on a shared host it took from 0% to 33% of a closed loop,
// and throughput fell by more than the time taken (the closed loop is a
// chain of round trips, and each stall holds up the requests behind it),
// while the CPU time per request rose with it.
func quiet(ws []window) []window {
	if len(ws) == 0 {
		return nil
	}
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	sort.Float64s(steal)
	limit := steal[(len(ws)-1)/4]
	var out []window
	for _, w := range ws {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// windowRate is the mean of the middle half of the windows' completion
// rates, per second.
func windowRate(ws []window) float64 {
	if len(ws) == 0 {
		return 0
	}
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = float64(w.n) / w.secs
	}
	sort.Float64s(rates)
	n := len(rates)
	return mean(rates[n/4 : n-n/4])
}

// cpuPerRequest is the server CPU time per completed request over the
// windows, in microseconds.
func cpuPerRequest(ws []window) float64 {
	var cpu float64
	n := 0
	for _, w := range ws {
		cpu += w.cpu
		n += w.n
	}
	return ratio(cpu*1e6, float64(n))
}

// cpuTimes is the host-wide "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal float64 }

// readCPUTimes reads the aggregate CPU counters.
func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t cpuTimes
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// between a and b.
func stealShare(a, b cpuTimes) float64 { return ratio(b.steal-a.steal, b.total-a.total) }
