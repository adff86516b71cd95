# Tier-1 gate: everything a PR must keep green.
.PHONY: check vet fmt build test race perfbench fuzz chaos bench benchlist bench-all benchrot cover serve

check: ## vet + gofmt + build + race-enabled tests + perfbench module + tracked-benchmark list + fuzz smoke + chaos smoke (the tier-1 gate)
	go vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	go build ./...
	go test -race ./...
	$(MAKE) perfbench
	$(MAKE) benchlist
	$(MAKE) fuzz
	$(MAKE) chaos

vet:
	go vet ./...

fmt: ## fail if any file needs gofmt
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }

# Each target runs its seed corpus (testdata/fuzz/, regenerate with
# `go run ./tools/fuzzseed`) plus 10s of coverage-guided exploration.
FUZZTIME ?= 10s
fuzz: ## run every fuzz target for $(FUZZTIME) (default 10s each)
	go test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/htmldoc
	go test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/depparse
	go test -run '^$$' -fuzz FuzzQuery -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzLoadAdvisor -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz FuzzTopKParity -fuzztime $(FUZZTIME) ./internal/vsm

# The deterministic chaos/soak suite (DESIGN.md §12): every fault point armed,
# concurrent traffic under -race, recovery compared byte-for-byte against a
# fault-free control. -chaos.short keeps the smoke run fast; drop the flag
# for the full-volume soak.
CHAOS_FLAGS ?= -chaos.short
chaos: ## chaos suite under -race (short volume by default; CHAOS_FLAGS= for full)
	go test -race -count=1 -run 'TestServeChaosSoak' ./cmd/egeria $(CHAOS_FLAGS)

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# perfbench/ is its own module (replace repro => ../), so the root ./...
# patterns skip it even though it compiles against internal/vsm and friends.
perfbench: ## vet + test the nested served-path benchmark module
	cd perfbench && go vet ./... && go test ./...

# Trajectory benchmarks: the fixed-size numbers tracked across PRs.
# Flags are pinned so results stay comparable between runs.
BENCH_TRACKED = BenchmarkShardedQuery|BenchmarkBuildAdvisor150|BenchmarkAnnotateOnce|BenchmarkServiceQuery|BenchmarkColdBuild|BenchmarkWarmStart|BenchmarkIncrementalRebuild
BENCH_PKGS = . ./internal/lifecycle
bench: ## cross-PR trajectory benchmarks (build pipeline, annotate-once, serving, lifecycle)
	go test -run '^$$' -bench '$(BENCH_TRACKED)' -benchmem -count 1 $(BENCH_PKGS)

# A tracked name that matches no benchmark would drop out of `make bench`
# without an error, so the trajectory would lose it silently.
benchlist: ## fail if any BENCH_TRACKED name matches no benchmark in BENCH_PKGS
	@listed="$$(go test -list '^Benchmark' $(BENCH_PKGS) | grep '^Benchmark')" || exit 1; \
	missing=0; \
	for name in $$(echo '$(BENCH_TRACKED)' | tr '|' ' '); do \
		echo "$$listed" | grep -q "$$name" || { echo "BENCH_TRACKED: $$name matches no benchmark"; missing=1; }; \
	done; \
	exit $$missing

bench-all: ## full sweep: per-table benchmarks + serving/index ablations
	go test -run '^$$' -bench . -benchmem ./...

benchrot: ## bench-rot gate: compile and run every benchmark once (1 iteration)
	go test -run '^$$' -bench . -benchtime=1x ./...

# Statement-coverage gate. COVER_BASELINE is the seed total measured when
# the gate was introduced; raise it when coverage durably improves, never
# lower it to make a PR pass. `make cover` writes coverage.out (the raw
# profile) and coverage.txt (the per-package table CI uploads).
COVER_BASELINE = 88.5
cover: ## per-package coverage table + total; fails below COVER_BASELINE
	go test -count=1 -coverprofile=coverage.out ./internal/... ./cmd/...
	go run ./tools/coverreport -profile coverage.out -baseline $(COVER_BASELINE) | tee coverage.txt

serve: ## run the advising service with all three built-in guides
	go run ./cmd/egeria -corpus cuda -corpora opencl,xeon serve -addr :8080
