GO ?= go

.PHONY: all build test race vet fmt lines lines-pkg check test-failure bench bench-live docs clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The one size number ROADMAP item 5 tracks: non-test Go lines outside bench/
# (comments and blanks included). CI echoes it after the build, so every PR
# reads the -15 % target (<= 15.4 k) off the same count.
lines:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l

# The same count per package directory, largest first: where a PR's delta in
# `make lines` sits.
lines-pkg:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) print n[d], d }' | sort -k1,1nr -k2

# Failure-path tests: the transport conformance table (flow control and peer
# death, verbatim on both transports), peer death, send timeouts, malformed
# and forged frames, abort broadcast, the inbound path (the Dispatcher/mailbox
# table, the phase exchange primitive, a refused query's early arrivals), the
# store fd-lifetime race, cache coherence under concurrency (a stale in-flight
# load takes no new waiters), admission-control recovery, an overlapping query
# surviving the abort of the peer whose in-flight loads it shares, the
# flow-control/buffer-ownership sweep (credit windows under failure,
# pool-balance leak checks, payload recycling on dead-peer sends), the kill
# tests of the failover suite (a node killed before the query, mid-query and
# after a survivor's done, on both transports and on the daemon stack, each
# resubmitted by the resolver without the dead node: the TestDegraded* and
# Test*Failover names, TestKillAtCompletionFailover among them), the
# resolver's side (dead set, busy-retry, timeouts, AUTO skipping and pricing
# without dead nodes), the compression sweep (serial equivalence with
# compressed farms on both transports and the read/wire byte reduction, the
# per-node wire counts of a compressed farm — forwards at their stored size,
# ghosts as their App encoded them, finals raw — compressed-replica failover,
# pool-balance checks on compressed failure paths), and the worker-pool
# suite (serial equivalence at every width, the
# width actually in flight) — race-checked, bounded so a reintroduced hang
# fails fast.
test-failure:
	$(GO) test -race -timeout 120s -run 'Conformance|Fail|Fault|Abort|Death|Late|Dispatcher|Mailbox|Exchange|Refused|Timeout|Malformed|Forged|Race|Admission|Compact|CacheConcurrent|Inflight|StaleFlight|SharedBatch|Flow|Credit|Leak|Recycles|Retires|Degraded|Kill|Compress|Workers' ./internal/rpc/... ./internal/engine/... ./internal/backend/... ./internal/layout/... ./internal/frontend/...

# The local gate mirrors CI: `docs` keeps the README flag tables and DESIGN.md
# references exact, `bench-live` notices a change to the surface bench/
# compiles against (tier-1 does not build it).
check: build fmt vet test docs bench-live

# The simulator's Table 1 / Fig 8 / Fig 9 tables at reduced size. Numbers
# from the live stack come from bench/ (`bash bench/run.sh`).
bench:
	$(GO) run ./cmd/adr-bench -quick

# Live-stack benchmark smoke test. bench/ is its own Go module, so `go build
# ./... && go test ./...` neither compiles nor runs it: this is the gate that
# notices a change to the exported surface it is built on (frontend.Dial,
# Client.Query, Message, ChunkJSON, ...) and drives every workload once at
# -quick size, both passes, leak counters included.
bench-live:
	$(GO) test -C bench -race ./...

# Documentation checks: README flag tables vs registered flags, README's
# metric families vs the ones the code registers (both directions), markdown
# links and DESIGN.md section cross-references, the godoc package-comment
# lint, and TestDocsExportedSurface: every export under internal/ has a
# caller or an allowlist entry with a reason.
docs:
	$(GO) test -run 'TestDocs|TestGodoc' .
	$(GO) test -run TestFlagTable ./cmd/...

clean:
	rm -rf bin
	$(GO) clean ./...
