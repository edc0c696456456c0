#!/usr/bin/env bash
# Size of the code a PR has to carry (make loc). Prints
#   - non-test Go lines outside bench/ (the figure ROADMAP aim 2 tracks),
#   - test Go lines outside bench/ (ROADMAP item 25's figure),
#   - per internal/ package: non-test lines, test lines and exported identifiers
#     (top-level funcs, types, vars and consts, grouped or not, and methods
#     on exported types; struct fields are not counted), and the non-test
#     lines of transport, fed and gvm together (ROADMAP item 7's target),
#   - the test-only-code guard's findings and allowlist size,
#   - the guard's option count (exported fields of exported *Config and
#     *Options structs), how many only tests set, and its option allowlist
#     size, then every option's name, one a line.
# The exported-identifier counts, the guard's lines and the option names
# come from the root package's TestNoTestOnlyCode (deadcode_test.go), which
# reads the tree's one parse; "-" and "none" in a tree without them.
# Run it on two checkouts and subtract to get a PR's deltas; diff the two
# outputs for the options a PR removed (<) and added (>):
#   scripts/loc.sh > after.txt; scripts/loc.sh /path/to/parent > before.txt
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

sources() { # non-test Go files under $1, bench/ and build trees excluded
	find "$1" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
}
tests() { # test Go files under $1, likewise
	find "$1" -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
}

log=
if [ -f deadcode_test.go ]; then
	log=$({ go test -run '^TestNoTestOnlyCode$' -count=1 -v . || true; } | grep -e 'test-only declarations: ' -e 'exported identifiers: ' -e 'option fields: ' || true)
fi
declare -A exp
for kv in $(printf '%s\n' "$log" | grep -o 'exported identifiers: .*' | cut -d' ' -f3-); do
	exp[${kv%=*}]=${kv#*=}
done

printf 'non-test Go lines outside bench/: %d\n' "$(sources . | xargs cat | wc -l)"
printf 'test Go lines outside bench/: %d\n\n' "$(tests . | xargs cat | wc -l)"
printf '%-24s %8s %8s %9s\n' package lines tests exported
total=0
for pkg in internal/*/; do
	pkg=${pkg%/}
	lines=$(sources "./$pkg" | xargs -r cat | wc -l)
	tlines=$(tests "./$pkg" | xargs -r cat | wc -l)
	n=${exp[$pkg]:--}
	[ "$n" = - ] || total=$((total + n))
	printf '%-24s %8d %8d %9s\n' "$pkg" "$lines" "$tlines" "$n"
done
printf '%-24s %8s %8s %9d\n' 'internal/ total' '' '' "$total"
printf '%-24s %8d\n' 'transport+fed+gvm' "$(for p in transport fed gvm; do sources "./internal/$p"; done | xargs cat | wc -l)"

guard=none
if [ -f deadcode_test.go ]; then
	guard=$(printf '%s\n' "$log" | grep -o 'test-only declarations: .*' || echo 'test-only declarations: scan failed')
fi
printf '\n%s\n' "${guard%%; options: *}"
case $guard in
*'; options: '*)
	printf 'options: %s\n' "${guard#*; options: }"
	for o in $(printf '%s\n' "$log" | grep -o 'option fields: .*' | cut -d' ' -f3-); do
		printf '  option %s\n' "$o"
	done
	;;
esac
