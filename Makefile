GO ?= go

.PHONY: build vet test race bench-module bench bench-all verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module checks bench/, a module of its own that `./...` above
# never reaches: stages_test.go is the test that fails first if
# rel.ParseQuery/ExecContext drift from Store.Query.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# bench is the repo benchmark (BENCHMARK.json): all four workloads,
# untraced then traced, every metric printed. One workload with its
# per-layer numbers: bash bench/run.sh --workload sp2b_scan_join --trace 1
bench:
	bash bench/run.sh

bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# verify is the tier-1 gate (see ROADMAP.md): everything must build,
# vet clean, and pass the full suite under the race detector — the
# bench module included.
verify: build vet race bench-module
