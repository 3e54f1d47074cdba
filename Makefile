# Developer entry points. `make check` is the CI gate; `make bench` runs
# the repo's one benchmark (BENCHMARK.json, bench/README.md).

.PHONY: check test bench trace-slowest

check:
	./scripts/check.sh

test:
	go build ./... && go test ./...

bench:
	bash bench/run.sh

trace-slowest:
	./scripts/trace_slowest.sh
