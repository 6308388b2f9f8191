#!/usr/bin/env bash
# Where the linker put the host-time hot spots of a Go binary: the address
# and 64-byte phase (address mod 64) of the LLC model's access,
# Sequential and Random and of the B-tree node search. tpch_power host
# time moves about 10 % with the phase of cache.(*LLC).access, which a
# change to any code linked before internal/cache can flip, so compare
# host time between two builds only after comparing their phases.
#
#   scripts/placement.sh BIN
#
# BIN is any binary that links the two packages: a `go build ./bench`
# output, `dbsense`, or a `go test -c` binary of a package that imports
# them. A symbol the binary lacks prints as "absent".
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 BIN" >&2
	exit 2
fi
syms=$(go tool nm -n "$1")
for s in 'repro/internal/cache.(*LLC).access' 'repro/internal/cache.(*LLC).Sequential' \
	'repro/internal/cache.(*LLC).Random' 'repro/internal/btree.(*node).findGE'; do
	addr=$(awk -v s="$s" '$2 == "T" && $3 == s { print $1; exit }' <<<"$syms")
	if [ -z "$addr" ]; then
		printf '%-42s %8s\n' "$s" absent
	else
		printf '%-42s %8s  phase %2d\n' "$s" "$addr" $((16#$addr % 64))
	fi
done
