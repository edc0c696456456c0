#!/usr/bin/env bash
# Size of the code a PR has to carry (make loc). Prints
#   - non-test Go lines outside bench/ (the figure ROADMAP aim 2 tracks),
#   - per internal/ package: non-test lines and exported identifiers
#     (top-level funcs, types, vars, consts, and methods on exported types;
#     struct fields are not counted),
#   - the test-only-code guard's findings and allowlist size
#     (TestNoTestOnlyCode in deadcode_test.go; "none" in a tree without it).
# Run it on two checkouts and subtract to get a PR's deltas:
#   scripts/loc.sh > after.txt; scripts/loc.sh /path/to/parent > before.txt
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

sources() { # non-test Go files under $1, bench/ and build trees excluded
	find "$1" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
}

exported() { # exported identifiers declared in the files named on stdin
	xargs -r awk '
		/^(var|const) \($/      { block = 1; next }
		block && /^\)/          { block = 0; next }
		block && /^\t[A-Z]/     { n++; next }
		/^func [A-Z]/           { n++; next }
		/^func \([A-Za-z_]+ \*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/ { n++; next }
		/^(type|var|const) [A-Z]/ { n++ }
		END { print n + 0 }'
}

printf 'non-test Go lines outside bench/: %d\n\n' "$(sources . | xargs cat | wc -l)"
printf '%-24s %8s %9s\n' package lines exported
total=0
for pkg in internal/*/; do
	lines=$(sources "./$pkg" | xargs -r cat | wc -l)
	exp=$(sources "./$pkg" | exported)
	total=$((total + exp))
	printf '%-24s %8d %9d\n' "${pkg%/}" "$lines" "$exp"
done
printf '%-24s %8s %9d\n' 'internal/ total' '' "$total"

guard=none
if [ -f deadcode_test.go ]; then
	guard=$({ go test -run '^TestNoTestOnlyCode$' -count=1 -v . || true; } | grep -o 'test-only declarations: .*' || echo 'test-only declarations: scan failed')
fi
printf '\n%s\n' "$guard"
