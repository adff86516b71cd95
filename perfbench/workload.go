package main

import "fmt"

// kind is the shape of one request the load generator sends.
type kind int

const (
	kindQuery  kind = iota // GET /v1/{advisor}/query
	kindAsk                // GET /v1/ask
	kindReport             // POST /v1/{advisor}/report
	kindBatch              // POST /v1/batch
	kindReload             // POST /v1/admin/reload?advisor=cuda after a file edit (probes only)
	numKinds
)

// batchItems is the size of every /v1/batch request.
const batchItems = 8

var kindNames = [numKinds]string{"query", "ask", "report", "batch", "reload"}

func (k kind) String() string { return kindNames[k] }

// workload is one traffic mix. Every number here is a constant of the
// benchmark: the offered rate in particular is never derived at run time,
// so two runs of one workload offer the same load.
type workload struct {
	name string
	why  string

	// rate is the open-loop offered rate in requests per second.
	rate float64
	// mix is the share of query, ask, report and batch requests; the
	// shares sum to 1.
	mix [kindBatch + 1]float64
	// bm25 is the share of queries and batch items that ask for
	// ?backend=bm25.
	bm25 float64

	// cudaSentences sizes the CUDA guide served through -doc: 0 is the
	// paper-scale guide of corpus.Generate, otherwise corpus.GenerateSized.
	cudaSentences int
	// extras are the built-in guides served alongside it (-corpora).
	extras []string
	// unique selects the query source: false draws from a Zipf-popular
	// pool (the cache serves most lookups), true makes every query text
	// unique (the cache serves none).
	unique bool
	// closedAhead is how many closed-loop requests per closed-loop second
	// are generated before timing starts (more are generated on demand).
	closedAhead int
}

// The workloads, listed in BENCHMARK.json with the same reasons. No
// workload's traffic reloads: reload cost is measured by the sequential probe
// reloads of --trace 1, after the load phases.
var workloads = []*workload{
	{
		name: "hot-mix",
		why: "paper-scale cuda/opencl/xeon advisors under a Zipf-popular mix of query, ask, report and batch: " +
			"cache, normalization, HTTP/JSON and fan-out carry the load while scoring does little",
		rate:        300,
		mix:         [kindBatch + 1]float64{0.70, 0.15, 0.10, 0.05},
		bm25:        0.10,
		extras:      []string{"opencl", "xeon"},
		closedAhead: 6000,
	},
	{
		name: "cold-10k",
		why: "one 10k-sentence CUDA guide and unique narrow and broad queries: " +
			"scoring, answer assembly and large JSON responses carry the load and the cache does nothing",
		rate:          100,
		mix:           [kindBatch + 1]float64{1, 0, 0, 0},
		bm25:          0.20,
		cudaSentences: 10000,
		unique:        true,
		closedAhead:   500,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hasKind reports whether the workload's own traffic sends k.
func (w *workload) hasKind(k kind) bool { return w.mix[k] > 0 }
