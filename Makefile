# Join Processing for Graph Patterns — development targets mirroring the CI
# jobs (.github/workflows/ci.yml), so "it passed make" and "it passed CI"
# mean the same thing.

.PHONY: help build test race lint integration bench bench-smoke bench-gate load-smoke load-gate fuzz-smoke loc clean

help:
	@echo "Available targets:"
	@echo ""
	@echo "  make build        - Compile every package and command"
	@echo "  make test         - Run the full test suite"
	@echo "  make race         - Run the test suite under the race detector"
	@echo "  make lint         - gofmt check + go vet + staticcheck (if installed)"
	@echo "  make integration  - graphjoind/graphjoin client-server smoke test"
	@echo "  make bench        - Run all benchmarks"
	@echo "  make bench-smoke  - Run every benchmark once (the CI smoke job)"
	@echo "  make bench-gate   - Gate bench-smoke.txt against bench-smoke.old.txt"
	@echo "  make load-smoke   - Boot graphjoind and drive it with graphjoinload"
	@echo "  make load-gate    - Gate load-smoke.json against load-smoke.old.json"
	@echo "  make fuzz-smoke   - Run every fuzz target for FUZZTIME (default 30s)"
	@echo "  make loc          - Count non-test Go lines (tracked files)"
	@echo "  make clean        - Drop build artifacts and the test cache"
	@echo ""

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks "SA*" ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

integration:
	scripts/integration.sh

bench:
	go test -bench . -benchmem -run '^$$' ./...

bench-smoke:
	@go test -bench . -benchtime=1x -run '^$$' ./... > bench-smoke.txt 2>&1; \
	status=$$?; cat bench-smoke.txt; exit $$status

# The CI regression gate, runnable locally: snapshot a baseline with
# `make bench-smoke && cp bench-smoke.txt bench-smoke.old.txt`, hack, then
# `make bench-smoke bench-gate`. Without a baseline (the first run) the gate
# is skipped — benchgate.sh exits 3 for that case, which counts as success
# here (only exit 1, a real regression, fails the target).
bench-gate:
	@test -f bench-smoke.txt || { echo "no current run: run 'make bench-smoke' first"; exit 1; }
	@scripts/benchgate.sh bench-smoke.old.txt bench-smoke.txt || { \
		status=$$?; [ $$status -eq 3 ] && exit 0; exit $$status; }

# The load smoke and its gate, mirroring bench-smoke/bench-gate: snapshot a
# baseline with `make load-smoke && cp load-smoke.json load-smoke.old.json`,
# hack, then `make load-smoke load-gate`.
load-smoke:
	scripts/loadsmoke.sh

load-gate:
	@test -f load-smoke.json || { echo "no current run: run 'make load-smoke' first"; exit 1; }
	@scripts/loadgate.sh load-smoke.old.json load-smoke.json || { \
		status=$$?; [ $$status -eq 3 ] && exit 0; exit $$status; }

# The fuzz wall: every fuzz target runs for FUZZTIME (go test allows one
# -fuzz per invocation, hence the sequential loop). Any panic or untyped
# error found by a fuzzer fails the target.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/query
	go test -run '^$$' -fuzz '^FuzzChooseGAO$$' -fuzztime $(FUZZTIME) ./internal/hypergraph
	go test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz '^FuzzDecodeQuery$$' -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz '^FuzzDecodePayloads$$' -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz '^FuzzDecodeOptions$$' -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz '^FuzzOverlayCursor$$' -fuzztime $(FUZZTIME) ./internal/relation
	go test -run '^$$' -fuzz '^FuzzProbeGapFinger$$' -fuzztime $(FUZZTIME) ./internal/relation

loc:
	@scripts/loc.sh

clean:
	rm -f bench-smoke.txt bench-smoke.old.txt load-smoke.json load-smoke.old.json *.prof
	go clean -testcache
