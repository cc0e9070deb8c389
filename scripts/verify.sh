#!/usr/bin/env bash
# verify.sh — the single verify entry point for HCC-MF (what CI runs).
#
# Runs, in order:
#   1. gofmt -l                        — the tree is gofmt-clean
#   2. go build ./...                  — everything compiles
#   3. go vet ./...                    — stock vet
#   4. hccmf-vet ./...                 — the invariant analyzer suite
#      (simtime, seededrand, panicpolicy, raceguard, errflow, hotalloc,
#      goroutinepolicy, nilobs, schemaconst; see DESIGN.md §8 and §14).
#      Runs module-aware against the committed lint.baseline ratchet:
#      recorded findings are tolerated, new findings fail. Emits the
#      hccmf-vet/v1 JSON document plus a per-analyzer count summary.
#      simtime also polices obs.WallClock: sim packages may use an
#      injected observer but never mint a real clock (DESIGN.md §11)
#   5. go test -race over the concurrent packages — ps, comm, comm/net,
#      mf, simengine, obs, recommend, core, related, plus the
#      parallel-ingestion packages dataset, sparse, parallel; the
#      intentional Hogwild races stay off these runs via internal/raceflag
#   6. go test -run=NONE -bench=. -benchtime=1x — every benchmark runs
#      once (including the ingest/v1 ingestion suite and the schedule/v1
#      straggler pair), so a PR cannot silently break the suites behind
#      hccmf-bench -json and BENCH_*.json (see DESIGN.md §9–10). Output
#      lands in a log so a failure is diagnosable; the log's tail is
#      echoed on error.
#   7. kernel regression gate — hccmf-benchdiff -fail-on-regress
#      measures the suite fresh and compares the kernel and schedule
#      groups against the newest committed BENCH_*.json baseline, after
#      dividing out the suite-median ratio (-normalize) so machine-wide
#      drift on a shared container cancels and only relative movement
#      can flag. The 50% threshold then catches real regressions (a
#      kernel accidentally falling off its fast path, an adaptive
#      scheduler that stopped firing), not noise; the CI report-only
#      benchdiff job keeps the tight numbers across all groups (see
#      DESIGN.md §12 and §16–17)
#   8. go test ./...                   — full test suite (includes the
#      fp16, dataset, and sparse fuzz targets' seed corpora)
#   9. go test -cover over the observability/measurement packages — a
#      visible coverage summary for obs, kernelbench, trace
#  10. serve smoke — build hccmf-serve + hccmf-loadgen, start the daemon
#      on a random port with a synthetic model, drive it with real HTTP
#      traffic, feed the resulting serve/v1 report through
#      hccmf-benchdiff, and shut the daemon down with SIGTERM
#      (see DESIGN.md §13)
#  11. distributed smoke — start hccmf-ps on a random port, train the
#      same seeded job in-process (COMM-P) at GOMAXPROCS=1 and at
#      GOMAXPROCS=8 and once against the server over hccmf-wire/v1 TCP,
#      and require the saved factor models to be byte-identical, so the
#      bit-exact class holds at any core count (DESIGN.md §8); SIGTERM
#      drains the server (see DESIGN.md §15)
#  12. simulator smoke — build hccmf-sim, run the R2 preset with
#      half-Q/async forced, and require the Figure 5 Gantt rows on stdout
#      plus non-empty -metrics-out and -trace-out documents carrying
#      their schema tags (hccmf-obs/v1, hccmf-obs/trace/v1)
#
# Any failure aborts with a nonzero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== hccmf-vet ./... (invariant suite, baseline ratchet)"
vet_json=$(mktemp -t hccmf-vet.XXXXXX.json)
go run ./cmd/hccmf-vet -baseline lint.baseline -json -summary ./... > "$vet_json"
echo "   (machine-readable findings: $vet_json)"

echo "== go test -race (ps, comm, comm/net, mf, simengine, obs, recommend, core, related, dataset, sparse, parallel)"
go test -race ./internal/ps ./internal/comm ./internal/comm/net ./internal/mf ./internal/simengine \
	./internal/obs ./internal/recommend ./internal/core ./internal/related \
	./internal/dataset ./internal/sparse ./internal/parallel

echo "== bench smoke (every benchmark once, kernel + ingest + schedule suites)"
bench_log=$(mktemp -t hccmf-bench-smoke.XXXXXX)
if ! go test -run=NONE -bench=. -benchtime=1x ./... > "$bench_log" 2>&1; then
	echo "bench smoke failed; last lines of $bench_log:" >&2
	tail -n 40 "$bench_log" >&2
	exit 1
fi
echo "   (full output: $bench_log)"

echo "== kernel regression gate (hccmf-benchdiff vs committed BENCH_*.json)"
# Fresh measurement averaged over 2 runs; the newest BENCH_*.json in the
# repo root is picked up as the baseline automatically. The kernel and
# schedule groups gate: serve p99 and the ingest readers are
# wall-clock-bound and jitter far more than ns/update on a shared 1-CPU
# container (CI's report-only job still diffs all groups). The schedule
# stragglers are stable — their deterministic throttle dominates — so a
# 50% regression there means the adaptive path genuinely broke (the
# rebalancer stopped firing). -normalize divides out the suite-median
# ratio first, so a machine-wide slowdown (another tenant on the host)
# cancels and only *relative* movement flags; the 50% threshold then
# absorbs per-kernel jitter (the lock-free Hogwild bench is bimodal
# under GOMAXPROCS=1) while still failing a kernel that falls off its
# fast path.
go run ./cmd/hccmf-benchdiff -count 2 -threshold 0.5 -groups kernel,schedule -normalize -fail-on-regress | awk '{print "   " $0}'

echo "== go test ./..."
go test ./...

echo "== coverage summary (obs, kernelbench, trace)"
go test -cover ./internal/obs ./internal/kernelbench ./internal/trace | awk '{print "   " $0}'

echo "== serve smoke (hccmf-serve + hccmf-loadgen + hccmf-benchdiff)"
smoke_dir=$(mktemp -d -t hccmf-serve-smoke.XXXXXX)
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
go build -o "$smoke_dir/hccmf-serve" ./cmd/hccmf-serve
go build -o "$smoke_dir/hccmf-loadgen" ./cmd/hccmf-loadgen
go build -o "$smoke_dir/hccmf-benchdiff" ./cmd/hccmf-benchdiff
"$smoke_dir/hccmf-serve" -synthetic 500x300x16 -addr 127.0.0.1:0 \
	-ready-file "$smoke_dir/addr" -metrics-out "$smoke_dir/metrics.json" \
	2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
	[ -s "$smoke_dir/addr" ] && break
	if ! kill -0 "$serve_pid" 2>/dev/null; then
		echo "serve smoke: daemon died during startup:" >&2
		cat "$smoke_dir/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
[ -s "$smoke_dir/addr" ] || { echo "serve smoke: daemon never became ready" >&2; exit 1; }
serve_addr=$(head -n1 "$smoke_dir/addr")
"$smoke_dir/hccmf-loadgen" -addr "$serve_addr" -requests 200 -concurrency 4 \
	-n 10 -out "$smoke_dir/serve.json" | awk '{print "   " $0}'
"$smoke_dir/hccmf-benchdiff" -baseline "$smoke_dir/serve.json" \
	-candidate "$smoke_dir/serve.json" -fail-on-regress | awk '{print "   " $0}'
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero:" >&2; cat "$smoke_dir/serve.log" >&2; exit 1; }
[ -s "$smoke_dir/metrics.json" ] || { echo "serve smoke: no metrics document on shutdown" >&2; exit 1; }
trap 'rm -rf "$smoke_dir"' EXIT

echo "== distributed smoke (hccmf-ps + hccmf-train -connect, bit-identical factors)"
ps_dir=$(mktemp -d -t hccmf-ps-smoke.XXXXXX)
trap 'kill "$ps_pid" 2>/dev/null || true; rm -rf "$smoke_dir" "$ps_dir"' EXIT
go build -o "$ps_dir/hccmf-ps" ./cmd/hccmf-ps
go build -o "$ps_dir/hccmf-train" ./cmd/hccmf-train
"$ps_dir/hccmf-ps" -listen 127.0.0.1:0 -ready-file "$ps_dir/addr" \
	> "$ps_dir/ps.log" 2>&1 &
ps_pid=$!
for _ in $(seq 1 100); do
	[ -s "$ps_dir/addr" ] && break
	if ! kill -0 "$ps_pid" 2>/dev/null; then
		echo "distributed smoke: hccmf-ps died during startup:" >&2
		cat "$ps_dir/ps.log" >&2
		exit 1
	fi
	sleep 0.1
done
[ -s "$ps_dir/addr" ] || { echo "distributed smoke: hccmf-ps never became ready" >&2; exit 1; }
ps_addr=$(head -n1 "$ps_dir/addr")
for procs in 1 8; do
	GOMAXPROCS=$procs "$ps_dir/hccmf-train" -preset netflix -scale 0.002 -epochs 3 -k 8 -seed 1 \
		-transport comm-p -save "$ps_dir/inproc-$procs.bin" > /dev/null
done
"$ps_dir/hccmf-train" -preset netflix -scale 0.002 -epochs 3 -k 8 -seed 1 \
	-connect "$ps_addr" -save "$ps_dir/tcp.bin" > /dev/null
for procs in 1 8; do
	cmp "$ps_dir/inproc-$procs.bin" "$ps_dir/tcp.bin" || {
		echo "distributed smoke: TCP-trained factors differ from in-process factors at GOMAXPROCS=$procs" >&2
		exit 1
	}
done
echo "   two-process run bit-identical to in-process COMM-P at GOMAXPROCS 1 and 8"
kill -TERM "$ps_pid"
wait "$ps_pid" || { echo "distributed smoke: hccmf-ps exited non-zero:" >&2; cat "$ps_dir/ps.log" >&2; exit 1; }
trap 'rm -rf "$smoke_dir" "$ps_dir"' EXIT

echo "== simulator smoke (hccmf-sim Gantt + metrics and trace documents)"
sim_dir=$(mktemp -d -t hccmf-sim-smoke.XXXXXX)
trap 'rm -rf "$smoke_dir" "$ps_dir" "$sim_dir"' EXIT
go build -o "$sim_dir/hccmf-sim" ./cmd/hccmf-sim
"$sim_dir/hccmf-sim" -preset r2 -strategy half-Q/async -timeline 2 \
	-metrics-out "$sim_dir/metrics.json" -trace-out "$sim_dir/trace.json" > "$sim_dir/out.txt"
gantt_rows=$(grep -Ec '^[^ ]+ +\|[.<#>S]+\|$' "$sim_dir/out.txt" || true)
if [ "$gantt_rows" -lt 2 ] || ! grep -q '#' "$sim_dir/out.txt"; then
	echo "simulator smoke: expected Gantt rows on stdout, got $gantt_rows:" >&2
	cat "$sim_dir/out.txt" >&2
	exit 1
fi
for doc in "metrics.json:hccmf-obs/v1" "trace.json:hccmf-obs/trace/v1"; do
	f="$sim_dir/${doc%%:*}"
	[ -s "$f" ] && grep -q "\"schema\": *\"${doc#*:}\"" "$f" || {
		echo "simulator smoke: $f is empty or lacks schema ${doc#*:}" >&2
		exit 1
	}
done
echo "   $gantt_rows Gantt rows; metrics and trace documents carry their schemas"

echo "verify: OK"
