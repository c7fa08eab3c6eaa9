# CI entry points for the uBFT reproduction. `make ci` is what a PR gate
# should run: build, lint (vet + the ubft-lint invariant suite), full
# tests (the fuzz seeds included, the byz and chaos matrices judged against
# the outcome ledger) plain and under -race -short, the bounded-memory,
# Byzantine and crash-restart suites, a smoke pass over every Go benchmark,
# every example and the figure CLI (one iteration each, so the perf harness
# and the front-ends are exercised), and the repository benchmark, whose
# net-* workloads are the one real-socket measurement CI makes.

GO ?= go

.PHONY: all build test vet lint loc race bounded-mem byz-suite chaos-suite lossy-sweep bench-smoke bench-repo bench-agree fuzz-smoke fuzz-byz ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The project-invariant static-analysis suite (internal/analysis, driven
# by cmd/ubft-lint): determinism, pool aliasing, the wire-tag registry,
# the shard capability boundary and package docs, with the waiver tally
# checked against the budget. Folds `go vet` in so `make lint` is the one
# static gate.
lint: vet
	$(GO) run ./cmd/ubft-lint

# Non-test, non-testdata Go source size: physical lines and code lines
# (blank and //-only lines excluded), per top-level package, for the system
# proper (the ten packages ROADMAP item 9 budgets) and in total. Every PR
# quotes this for its parent and itself in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | sort | \
	xargs awk 'FNR == 1 { n = split(FILENAME, p, "/"); \
			pkg = n == 2 ? "." : (p[2] ~ /^(internal|cmd|examples)$$/ && n > 3) ? p[2] "/" p[3] : p[2] } \
		{ lines[pkg]++; if ($$0 !~ /^[ \t]*(\/\/.*)?$$/) code[pkg]++ } \
		END { for (k in lines) { printf "%-28s %7d lines %7d code\n", k, lines[k], code[k]; tl += lines[k]; tc += code[k]; \
				if (k ~ /^internal\/(msgring|tbcast|ctbcast|swmr|consensus|shard|cluster|app|nettrans|wallclock)$$/) { sl += lines[k]; sc += code[k] } } \
			printf "%-28s %7d lines %7d code\n", "system proper", sl, sc; \
			printf "%-28s %7d lines %7d code\n", "total", tl, tc }' | LC_ALL=C sort

# -short runs the byz and chaos matrices at 2 seeds per cell (tier-1 runs 8
# and 6) and compares only those lines of the outcome ledger; nothing else
# but the root benchmarks reads it.
race:
	$(GO) test -race -short ./...

# The bounded-memory regression gate: the replica's table cardinalities
# (Footprint) must stay flat across checkpoint intervals (uBFT's
# finite-memory claim), the per-client records must age out churned clients,
# the MVCC version chains must stay flat as the GC horizon ratchets with
# checkpoints, the per-view view-change records must not outlive their view,
# the share collectors must hold one share per signer whatever a Byzantine
# signer's key signs, and every map or slice field of Replica and of its
# records must name its retention rule (a reflection test). The agreement
# oracle's rings keep their 2 x Window records and allocate nothing per
# decision.
bounded-mem:
	$(GO) test -run 'TestLeaderMemoryBounded|TestLeaderMapsFlatAcrossIntervals|TestClientExecStateAged|TestVersionGCBounded|TestViewChangeRecordsPruned|TestByzantineSignerCannotGrowShareRecords|TestEveryTableHasARetentionRule' ./internal/consensus/
	$(GO) test -run 'TestOracleFootprintIsFlat|TestOracleAllocatesNothingPerDecision' ./internal/cluster/

# One iteration of every benchmark in short mode: catches harness rot and
# prints allocs/op for the hot-path benchmarks on every PR. For one
# benchmark alone use `$(GO) test -run '^$$' -bench '<name>' .` (README).
# Then the front-ends are run, not just compiled: every examples/ main and
# the figure CLI at a small sample count must exit 0 (~3 s in all).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -short .
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done
	$(GO) run ./cmd/ubft-bench -all -samples 50 > /dev/null

# The ledger (docs/ledger/README.md) holds one result set per PR, each from
# `$(GO) run ./bench -seed 1 -trace both -json docs/ledger/NNNN-<slug>.json`;
# LEDGER is the newest, the row the two targets below measure against.
LEDGER ?= $(lastword $(sort $(wildcard docs/ledger/*.json)))

# The repository benchmark (BENCHMARK.json, bench/README.md): every workload
# end to end at seed 1, each metric compared with the newest ledger row and
# judged by its bound. Exits non-zero on any REGRESSION line, failed
# operation or answer check. One run on a shared host is a smoke, not a
# verdict: bench/README.md has the paired-run procedure for a claimed gain.
bench-repo:
	$(GO) run ./bench -seed 1 -compare $(LEDGER)

# The gate of a PR that claims no behaviour change, run before it writes its
# own row: both runs of every workload, then `-agree` against the parent's
# row, which requires every virtual-time metric of a sim-* workload
# bit-identical and the host-side ones within their bounds.
bench-agree:
	@mkdir -p bench/out
	$(GO) run ./bench -seed 1 -trace both -json bench/out/agree.json
	$(GO) run ./bench -agree $(LEDGER) bench/out/agree.json

# The Byzantine scenario suite: the defense-off trip tests and the 2PC
# commit-phase recovery regressions (stranded commit replayed by another
# client, lost query, lone liar, in-flight transaction). The matrix itself,
# every adversarial policy against every transactional app in every read mode
# at 8 seeds per cell, is tier-1 (TestByzMatrix) and judged against the
# outcome ledger's [byz] section (docs/ledger/outcomes.txt).
byz-suite:
	$(GO) test -run 'TestByzDeterministicPerSeed|TestTrip|TestStrongReadLoneLiar' ./internal/byz/scenario/
	$(GO) test -run 'TestCommitPhaseRecovery' ./internal/shard/

# The crash-restart chaos suite: the restart-determinism gate (same seed =>
# bit-identical final snapshots across runs) and the simulated-cluster
# restart regressions. The matrix itself, every supported Byzantine policy
# crossed with a seeded kill/restart schedule at 6 seeds per cell, is tier-1
# (TestChaosMatrix) and judged against the outcome ledger's [chaos] section.
# The last line is the same claim on real processes: a follower ubft-node
# SIGKILLed a third into a closed-loop run over loopback TCP and respawned
# -coldjoin at two thirds must cost the client no failed operation
# (CHAOS_SEEDS only switches these process tests on; plain `go test ./...`
# skips them).
chaos-suite:
	$(GO) test -run 'TestChaosDeterministicPerSeed' ./internal/byz/scenario/
	$(GO) test -run 'TestRestart|TestRepeatedRestartCycles' ./internal/cluster/
	CHAOS_SEEDS=1 $(GO) test -count=1 -v -run 'TestFleet' ./internal/wallclock/

# The wide sweep, outside `make ci` (about 5.5 minutes on two vCPUs), one
# part after another, each printing its wall time and judged against its
# section of the outcome ledger (docs/ledger/outcomes.txt): the three lossy
# consensus scenarios over seed ranges instead of their tier-1 seeds (cold
# rejoin 1-120, pre-GST agreement 1-200, partition churn 1-200), the lossy
# cross-shard scenario over seeds 1-50 per app, and the process-level chaos
# run 50 times. It fails if any seed got worse than its committed line and
# otherwise rewrites what improved, so `git diff docs/ledger/outcomes.txt` is
# a change's outcome diff. The fleet line is wall clock: it is printed
# beside the committed one and rewritten, and never fails.
lossy-sweep:
	$(GO) test -p 1 -count=1 -tags lossysweep -run 'TestLossySweep' -v ./internal/consensus/ ./internal/shard/ ./internal/wallclock/

# Fuzz the wire codec briefly (the seeds always run under `make test`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s ./internal/wire/

# Fuzz the adversarial wire surfaces briefly: hostile tag-31/33 read
# replies at the client (must never panic or inflate the read floor),
# hostile tag-30/32 requests at a replica, and a Byzantine leader's CTBcast
# deliveries at a follower (must never panic; a rejected message changes
# nothing). The seeds run under `make test`.
fuzz-byz:
	$(GO) test -run '^$$' -fuzz FuzzClientReadReply -fuzztime 10s ./internal/consensus/
	$(GO) test -run '^$$' -fuzz FuzzReplicaReadRequest -fuzztime 10s ./internal/consensus/
	$(GO) test -run '^$$' -fuzz FuzzConsensusMsg -fuzztime 10s ./internal/consensus/

ci: build lint test race bounded-mem byz-suite chaos-suite bench-smoke bench-repo
