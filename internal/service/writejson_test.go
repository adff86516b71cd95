package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// discardResponse is an http.ResponseWriter that drops the body, so a
// measurement sees only what writeJSON itself allocates.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestWriteJSONPooledBuffer guards writeJSON's pooled render buffer:
// repeatedly writing a ~150 KB body must allocate less than the body's
// size per call, which a fresh buffer per call cannot.
func TestWriteJSONPooledBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	body := make([]string, 1500)
	for i := range body {
		body[i] = strings.Repeat("x", 98)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(raw))
	w := &discardResponse{h: http.Header{}}
	writeJSON(w, http.StatusOK, body)
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		writeJSON(w, http.StatusOK, body)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= size {
		t.Errorf("writeJSON of a %d-byte body allocates %d bytes per call, want < %d", size, per, size)
	}
}
