#!/usr/bin/env bash
# Traffic census: which functions under internal/ does no shipped program
# execute? Builds every main with plain `go build -cover` (under
# -coverpkg=./internal/... these mains silently write no counters), runs
# every experiment row, bench workload, example and tool with GOCOVERDIR
# set, and lists the repro/internal/ functions left at 0.0 % in
# zero.txt under the output directory (first argument, default
# census-out/). unexecuted.txt beside it counts the unexecuted statements
# of every repro/internal/ function that has any, largest first, and ends
# with the total ("N of M statements under repro/internal/ unexecuted").
# About 20 minutes on 2 vCPU.
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
"$out/bin/simstat" -series repl.jsonl >/dev/null
"$out/bin/dbgen" >/dev/null && "$out/bin/dbgen" -detail >/dev/null
for x in cachesizing cloudsizing htapmix maxdopadvisor pitfalls quickstart; do "$out/bin/$x" >/dev/null; done
go tool covdata func -i="$out/cov" | awk '$1 ~ /^repro\/internal\// && $NF == "0.0%"' | tee "$out/zero.txt"
# A block counts once however many binaries report it, executed when any
# did, and belongs to the nearest top-level declaration above it in its
# source file (a function, or the var holding a function literal).
go tool covdata textfmt -i="$out/cov" -o "$out/cover.txt"
cd "$root"
awk '
	function decls(f,   src, s, l, n, kw) {
		src = f; sub(/^repro\//, "", src)
		while ((getline s < src) > 0) {
			l++
			if (s !~ /^(func|var|const|type) /) continue
			n++; dline[f, n] = l
			kw = s; sub(/ .*/, "", kw)
			sub(/^func \([^)]*\) /, "func ", s); sub(/^[a-z]+ /, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
			dname[f, n] = s == "" ? kw : s
		}
		close(src)
		ndecl[f] = n
	}
	FNR == 1 { next }
	$1 ~ /^repro\/internal\// { stmts[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in stmts) {
			total += stmts[b]
			if (b in hit) continue
			unexec += stmts[b]
			split(b, p, ":"); split(p[2], q, "."); f = p[1]; line = q[1] + 0
			if (!(f in ndecl)) decls(f)
			d = 0
			for (i = 1; i <= ndecl[f]; i++) if (dline[f, i] <= line) d = i
			miss[f ":" dline[f, d] "\t" dname[f, d]] += stmts[b]
		}
		for (k in miss) print miss[k] "\t" k | "sort -k1,1nr -k2,2"
		close("sort -k1,1nr -k2,2")
		print unexec + 0 " of " total + 0 " statements under repro/internal/ unexecuted"
	}' "$out/cover.txt" | tee "$out/unexecuted.txt" | tail -n 1
