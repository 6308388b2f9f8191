#!/usr/bin/env bash
# Traffic census: which functions under internal/ does no shipped program
# execute? Builds every main with plain `go build -cover` (under
# -coverpkg=./internal/... these mains silently write no counters), runs
# every experiment row, bench workload, example and tool with GOCOVERDIR
# set, and lists the repro/internal/ functions left at 0.0 % in
# zero.txt under the output directory (first argument, default
# census-out/). About 20 minutes on 2 vCPU.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$(mkdir -p "${1:-$root/census-out}" && cd "${1:-$root/census-out}" && pwd)"
cd "$root"
rm -rf "$out/cov" && mkdir -p "$out/bin" "$out/cov" "$out/run"
go build -cover -o "$out/bin/" ./cmd/dbsense ./bench ./cmd/simstat ./cmd/dbgen ./examples/...
export GOCOVERDIR="$out/cov"
cd "$out/run"
db() { "$out/bin/dbsense" "$@" -quick -progress=false >/dev/null; }
db run all
for e in serving replication recovery failover chaos; do db run "$e"; done
for w in tpch tpce asdb htap; do db run resilience -workload "$w"; done
for s in none partition flaky degrade reset-storm split-burst; do db run chaos -schedule "$s"; done
db serve && db serve -storm
db run qstats -o qstats.jsonl -profile prof
db run replication -o repl.jsonl
"$out/bin/bench" -reps 1 -traced -json bench.json >/dev/null
"$out/bin/bench" -probes >/dev/null
"$out/bin/simstat" >/dev/null && "$out/bin/simstat" -series repl.jsonl >/dev/null
"$out/bin/dbgen" >/dev/null && "$out/bin/dbgen" -detail >/dev/null
for x in cachesizing cloudsizing htapmix maxdopadvisor pitfalls quickstart; do "$out/bin/$x" >/dev/null; done
go tool covdata func -i="$out/cov" | awk '$1 ~ /^repro\/internal\// && $NF == "0.0%"' | tee "$out/zero.txt"
