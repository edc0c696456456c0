#!/usr/bin/env bash
# The paired-run protocol behind every performance claim (ROADMAP "standing
# rule"), as one command:
#   scripts/pairs.sh <parent-rev> [-workload W] [-pairs N] [-seconds S] > results/pairs/prNN.txt
# Unpacks <parent-rev> (git archive) under .bench_build/pairs/parent, then
# runs `bash bench/run.sh --workload W --seed <pair> --seconds S` in that
# tree and in this one, N times each in alternating order (odd pairs parent
# first). Per end-to-end metric of BENCHMARK.json it prints both medians,
# the delta against the metric's bound, the pairs the change won (ties count
# for neither), the parent's interquartile range and every run made; then
# the failed operations, and the exact counters, the socket layers' syscall
# and CPU counters and the STR span's self time of one traced run per side
# (n/a where that side's JSON has no such metric). A run of a pair that
# fails stops the script; a traced run that fails prints as FAILED (exit N)
# with its last stderr line, and the script goes on. It exits non-zero when
# a row reads WORSE (a median past its bound) or a traced run failed, after
# printing every row.
# Defaults: every workload, 10 pairs, BENCHMARK.json's run_seconds. Progress
# goes to stderr. It reads bench/ and BENCHMARK.json and writes neither.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,19p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1; shift
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
pairs=10
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
while [ $# -gt 0 ]; do
	case $1 in
	-workload) workloads=$2 ;;
	-pairs) pairs=$2 ;;
	-seconds) seconds=$2 ;;
	*) usage ;;
	esac
	shift 2
done

parent=.bench_build/pairs/parent
sha=$(git rev-parse --short "$rev^{commit}")
rm -rf "$parent"
mkdir -p "$parent"
git archive "$sha" | tar -x -C "$parent"

# run <list> <tree> <args...>: one bench/run.sh run of a pair in that tree;
# the JSON object it prints last is appended to the named list. A run that
# exits non-zero or prints none stops the script — a pair with a hole in it
# proves nothing — and leaves its whole stdout and stderr beside each other.
outlog=$PWD/.bench_build/pairs/last.out
errlog=$PWD/.bench_build/pairs/last.err
run() {
	local -n list=$1
	local tree=$2 json status=0
	shift 2
	(cd "$tree" && bash bench/run.sh "$@") >"$outlog" 2>"$errlog" || status=$?
	json=$(tail -n 1 "$outlog")
	[ "$status" -eq 0 ] && jq -e .metrics >/dev/null 2>&1 <<<"$json" ||
		{ echo "pairs.sh: bench/run.sh $* failed in $tree: exit status $status, stdout in $outlog, stderr in $errlog" >&2; exit 1; }
	list+=("$json")
}

# stats <values...>: median, lower and upper quartile (linear
# interpolation between order statistics).
stats() {
	printf '%s\n' "$@" | sort -g | awk '
		{ v[NR - 1] = $1 }
		function q(p,  x, i) { x = (NR - 1) * p; i = int(x); return i + 1 < NR ? v[i] + (x - i) * (v[i + 1] - v[i]) : v[i] }
		END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

counters='gpusim.virtual_ms_per_cycle ipc.round_trips_per_cycle transport.frame_bytes_per_cycle
gvm.restores_per_cycle gvm.evictions_per_cycle gvm.swap_bytes_per_cycle gpusim.launches_per_cycle
ipc.daemon_mallocs_per_cycle ipc.daemon_alloc_bytes_per_cycle ipc.daemon_gc_per_kcycle
ipc.daemon_syscalls_per_cycle ipc.daemon_user_us_per_cycle fed.router_syscalls_per_cycle
fed.router_user_us_per_cycle cuda.exec_vecadd_ns cuda.exec_vecadd_gbps trace.str_self_us'

echo "# Paired benchmark runs: parent $sha vs change (working tree at $(git rev-parse --short HEAD)), bash bench/run.sh --workload W --seed <pair> --seconds $seconds,"
echo "# $pairs alternating pairs per workload (odd pairs parent first), $(nproc)-CPU container, $(go env GOVERSION). Every run made is listed."
echo "# Columns: workload, metric, medians, delta vs BENCHMARK.json bound, pairs in which the change read better, parent IQR, every run in pair order."
traced= worse= tracefailed=
for w in $workloads; do
	p_json=() c_json=()
	for i in $(seq 1 "$pairs"); do
		echo "pairs.sh: $w pair $i/$pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run p_json "$parent" --workload "$w" --seed "$i" --seconds "$seconds"
			run c_json . --workload "$w" --seed "$i" --seconds "$seconds"
		else
			run c_json . --workload "$w" --seed "$i" --seconds "$seconds"
			run p_json "$parent" --workload "$w" --seed "$i" --seconds "$seconds"
		fi
	done
	while read -r metric better bound; do
		p_runs=() c_runs=() won=0
		for i in $(seq 0 $((pairs - 1))); do
			pv=$(jq -r ".metrics[\"$metric\"].value" <<<"${p_json[$i]}")
			cv=$(jq -r ".metrics[\"$metric\"].value" <<<"${c_json[$i]}")
			p_runs+=("$(printf '%.6g' "$pv")") c_runs+=("$(printf '%.6g' "$cv")")
			won=$((won + $(awk -v p="$pv" -v c="$cv" -v b="$better" 'BEGIN { print (b == "lower" ? c < p : c > p) }')))
		done
		read -r pm pq1 pq3 <<<"$(stats "${p_runs[@]}")"
		read -r cm _ _ <<<"$(stats "${c_runs[@]}")"
		row=$(awk -v w="$w" -v m="$metric" -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" -v b="$better" -v bound="$bound" \
			-v won="$won" -v n="$pairs" -v pr="${p_runs[*]}" -v cr="${c_runs[*]}" 'BEGIN {
			d = (cm - pm) / pm; worse = (b == "lower" ? d : -d)
			printf "%-10s %-14s parent med %s change med %s delta %+.2f%% (bound %g%%, %s) change better in %d/%d pairs; parent IQR %.4g; parent runs %s | change runs %s\n",
				w, m, pm, cm, 100 * d, 100 * bound, (worse > bound ? "WORSE" : "OK"), won, n, q3 - q1, pr, cr }')
		echo "$row"
		[[ $row != *", WORSE)"* ]] || worse+=" $w/$metric"
	done < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
	pf=$(printf '%s\n' "${p_json[@]}" | jq -s 'map(.failed) | add')
	cf=$(printf '%s\n' "${c_json[@]}" | jq -s 'map(.failed) | add')
	pa=$(printf '%s\n' "${p_json[@]}" | jq -s 'map(.attempted) | add')
	ca=$(printf '%s\n' "${c_json[@]}" | jq -s 'map(.attempted) | add')
	if [ "$pf" = 0 ] && [ "$cf" = 0 ]; then
		printf '%-10s failed ops: none on either side\n' "$w"
	else
		printf '%-10s failed ops: parent %s of %s, change %s of %s\n' "$w" "$pf" "$pa" "$cf" "$ca"
	fi

	# A traced run that fails does not stop the script: its side reads
	# FAILED (exit N) beside the last line it wrote to stderr, the other
	# side's counters still print, and the script exits non-zero at the end.
	echo "pairs.sh: $w traced run" >&2
	t_json=() t_fail=()
	for tree in "$parent" .; do
		status=0
		(cd "$tree" && bash bench/run.sh --workload "$w" --seed 1 --seconds 5 --trace 1) >"$outlog" 2>"$errlog" || status=$?
		json=$(tail -n 1 "$outlog")
		if [ "$status" -eq 0 ] && jq -e .metrics >/dev/null 2>&1 <<<"$json"; then
			t_json+=("$json") t_fail+=("")
		else
			side=change
			[ "$tree" = . ] || side=parent
			t_json+=("") t_fail+=("FAILED (exit $status)")
			traced+=$(printf '%-10s %s traced run FAILED (exit %s), last stderr line: %s' "$w" "$side" "$status" "$(tail -n 1 "$errlog")")$'\n'
			tracefailed+=" $w/$side"
		fi
	done
	for c in $counters; do
		v=()
		for j in 0 1; do
			val=$(jq -r ".metrics[\"$c\"].value // empty" <<<"${t_json[$j]}")
			if [ -n "${t_fail[$j]}" ]; then
				v+=("${t_fail[$j]}")
			elif [ -z "$val" ]; then
				v+=("n/a")
			else
				v+=("$(printf '%.6g' "$val")")
			fi
		done
		traced+=$(printf '%-10s %-36s %s / %s' "$w" "$c" "${v[0]}" "${v[1]}")$'\n'
	done
done
echo
echo "# Exact counters and the traced layers, one traced run per side (--trace 1 --seconds 5 --seed 1): parent / change"
printf '%s' "$traced"
[ -z "$tracefailed" ] || echo "pairs.sh: traced runs failed:$tracefailed" >&2
[ -z "$worse" ] || echo "pairs.sh: WORSE than the parent past the bound:$worse" >&2
[ -z "$tracefailed$worse" ] || exit 1
