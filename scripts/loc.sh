#!/usr/bin/env bash
# Lines of Go, the number every CHANGES.md entry and ROADMAP re-anchor
# reports: non-test lines, test lines (*_test.go) and file count of the
# working tree (= HEAD in a clean checkout), and the delta against a
# revision (first argument, default HEAD~1; skipped when the revision is
# not in the clone, e.g. a depth-1 checkout).
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-HEAD~1}"
# count <git grep tree argument>: "non-test test files" from git grep's
# path:count lines.
count() {
	git grep -c -e '' "$@" -- '*.go' | awk -F: '
		{ n = $NF; if ($(NF-1) ~ /_test\.go$/) test += n; else code += n; files++ }
		END { print code+0, test+0, files+0 }'
}
read -r code test files < <(count --untracked)
echo "go lines: $code non-test, $test test, $files files"
if git rev-parse -q --verify "$rev^{commit}" >/dev/null; then
	read -r code0 test0 files0 < <(count "$rev")
	printf 'vs %s: %+d non-test, %+d test, %+d files\n' \
		"$(git rev-parse --short "$rev")" $((code - code0)) $((test - test0)) $((files - files0))
fi
