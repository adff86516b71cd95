package main

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{1, 50, 1, 0},
		{1, 99, 1, 0},
		{2, 50, 1, 1},
		{4, 50, 2, 2},
		{5, 50, 3, 2},
		{10, 90, 9, 1},
		{100, 99, 99, 1},
		{100, 100, 100, 0},
		{1000, 99, 990, 10}, // the smallest run whose p99 may be reported
		{999, 99, 990, 9},   // rank ceil(989.01) = 990: one sample short
		{1500, 99, 1485, 15},
	} {
		got, beyond := percentile(seq(tc.n), tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("p%v of 1..%d = %v with %d beyond, want %v with %d", tc.p, tc.n, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty input: %v, %d", v, b)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		_, beyond := percentile(seq(n), 99)
		if ok := beyond >= minBeyond; ok != (n >= 1000) {
			t.Fatalf("n=%d: %d samples beyond p99, reportable=%v", n, beyond, ok)
		}
	}
}

func TestSamplesMedianIgnoresOrder(t *testing.T) {
	var s samples
	for _, ms := range []int{5, 1, 4, 2, 3} {
		s.add(time.Duration(ms) * time.Millisecond)
	}
	if m := s.median(); m != 3 {
		t.Fatalf("median %v, want 3", m)
	}
	if s[0] != 5 {
		t.Fatal("median reordered its input")
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 || mean(nil) != 0 || mean([]float64{1, 2}) != 1.5 {
		t.Fatal("ratio/mean")
	}
}

func TestSegmentedP99(t *testing.T) {
	if _, _, _, err := segmentedP99(seq(999)); err == nil {
		t.Fatal("999 samples cannot carry a p99 with 10 samples above it")
	}
	for _, tc := range []struct{ n, segments int }{{1000, 1}, {1999, 1}, {2000, 1}, {3000, 3}, {4999, 3}, {5000, 5}} {
		_, segs, per, err := segmentedP99(seq(tc.n))
		if err != nil || segs != tc.segments || per < 1000 {
			t.Errorf("n=%d: %d segments of %d (%v), want %d of at least 1000", tc.n, segs, per, err, tc.segments)
		}
	}
	// a burst of slow requests inside one segment leaves the result alone
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = float64(i % 100)
	}
	base, _, _, _ := segmentedP99(lat)
	for i := 100; i < 400; i++ {
		lat[i] = 1000
	}
	if got, _, _, _ := segmentedP99(lat); got != base {
		t.Fatalf("a burst in one segment moved p99 from %v to %v", base, got)
	}
}

func TestQuietWindows(t *testing.T) {
	rates := func(ws []window) []int {
		var out []int
		for _, w := range ws {
			out = append(out, w.n)
		}
		return out
	}
	// the least-stolen quarter has steal 0, so the four windows without
	// steal are kept; the middle half of their rates {90, 100, 110, 400}
	// is {100, 110}; their CPU time is 0.1 s each
	ws := []window{{100, 1, 0, 0.1}, {50, 1, 0.2, 0.1}, {400, 1, 0, 0.1}, {60, 1, 0.1, 0.1},
		{90, 1, 0, 0.1}, {70, 1, 0.02, 0.1}, {110, 1, 0, 0.1}, {80, 1, 0.3, 0.1}}
	q := quiet(ws)
	if got := fmt.Sprint(rates(q)); got != "[100 400 90 110]" {
		t.Fatalf("quiet windows %s", got)
	}
	if got := windowRate(q); got != 105 {
		t.Fatalf("rate %v, want 105", got)
	}
	if got, want := cpuPerRequest(q), 0.4*1e6/700; math.Abs(got-want) > 1e-9 {
		t.Fatalf("cpu per request %v us, want %v", got, want)
	}
	// every window stolen from: the least-stolen quarter is the two
	// windows with steal <= 0.02
	ws = []window{{100, 1, 0.05, 0}, {50, 1, 0.2, 0}, {400, 1, 0.01, 0}, {60, 1, 0.1, 0},
		{90, 1, 0.04, 0}, {70, 1, 0.02, 0}, {110, 1, 0.03, 0}, {80, 1, 0.3, 0}}
	if got := fmt.Sprint(rates(quiet(ws))); got != "[400 70]" {
		t.Fatalf("quiet windows %s", got)
	}
	if got := windowRate(quiet(ws)); got != 235 {
		t.Fatalf("rate %v, want 235", got)
	}
	if quiet(nil) != nil || windowRate(nil) != 0 || cpuPerRequest(nil) != 0 {
		t.Fatal("no windows must give no figures")
	}
}

func TestSamplerWindows(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &cpuSampler{
		at:   []time.Time{at(0), at(250), at(500), at(750)},
		host: []cpuTimes{{0, 0}, {50, 0}, {100, 5}, {150, 5}},
		srv:  []float64{0, 20, 50, 60},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	close(s.done)
	done := []time.Time{at(600), at(-5), at(10), at(260), at(249), at(700), at(740)}
	ws := s.stopAt(at(700), done) // the window closing at 750 ms is past the end
	want := []window{{2, 0.25, 0, 0.2}, {1, 0.25, 0.1, 0.3}}
	if fmt.Sprint(ws) != fmt.Sprint(want) {
		t.Fatalf("windows %v, want %v", ws, want)
	}
}
