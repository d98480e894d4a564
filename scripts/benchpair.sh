#!/usr/bin/env bash
# Usage: scripts/benchpair.sh BASE [CHANGE] --workload W --pairs N --seed S [--seconds T] [--trace 0|1]
#        scripts/benchpair.sh --log FILE
#
# Runs the benchmark on two revisions in alternating pairs and compares
# them. BASE and CHANGE are any git tree-ish (CHANGE defaults to HEAD);
# each is exported with `git archive` into .bench_build/pair/<tree>/ and
# run through that copy's own bench/run.sh, so nothing uncommitted
# leaks in and no module is fetched. The exports share one Go build
# cache, so the standard library builds once. Pair i runs both sides on
# seed S+i, and the side that runs first alternates from pair to pair.
#
# Every run's JSON line is kept in .bench_build/pair/<workload>-<base>-<change>.jsonl.
# For each metric BENCHMARK.json names that the runs report, it prints
# each side's median and q1–q3 and the change's wins out of N (ties
# count for neither). An end-to-end metric's verdict is `regressed` if
# the change's median is worse than the base's by more than the metric's
# bound, and `gain` if the change wins at least 9/10 of the pairs and
# the medians differ by more than the base's q1–q3 spread (bench/README).
# A worse median reads `unresolved` instead of `regressed` when the
# base's q1–q3 spread is wider than the bound (relative to the base
# median), unless every change run is worse than every base run: the
# base's own noise then covers the difference, and more pairs decide.
# T defaults to BENCHMARK.json's run_seconds; --trace 1 adds the
# per-layer metrics of traced runs. --log summarizes a kept log again
# without running anything.
set -euo pipefail

usage() {
	echo "usage: $0 BASE [CHANGE] --workload W --pairs N --seed S [--seconds T] [--trace 0|1]" >&2
	echo "       $0 --log FILE" >&2
	exit 2
}

root=$(git rev-parse --show-toplevel)
cd "$root"
spec=BENCHMARK.json

revs=()
workload= pairs= seed= seconds= trace=0 log=
while [ $# -gt 0 ]; do
	case $1 in
	--log) log=${2:?}; shift 2 ;;
	--workload) workload=${2:?}; shift 2 ;;
	--pairs) pairs=${2:?}; shift 2 ;;
	--seed) seed=${2:?}; shift 2 ;;
	--seconds) seconds=${2:?}; shift 2 ;;
	--trace) trace=${2:?}; shift 2 ;;
	--*) usage ;;
	*) revs+=("$1"); shift ;;
	esac
done
if [ -n "$log" ]; then
	[ ${#revs[@]} -eq 0 ] || usage
else
	[ ${#revs[@]} -ge 1 ] && [ ${#revs[@]} -le 2 ] || usage
	[ -n "$workload" ] && [ -n "$pairs" ] && [ -n "$seed" ] || usage
	[ "$pairs" -ge 1 ] && [ "$seed" -ge 0 ] || usage
	[ -n "$seconds" ] || seconds=$(jq -r '.run_seconds' "$spec")

	# export REV prints the export directory of REV's tree, creating it once.
	pairdir=$root/.bench_build/pair
	export_rev() {
		local tree dir
		tree=$(git rev-parse --verify --quiet "$1^{tree}") || { echo "benchpair: no revision $1" >&2; exit 2; }
		dir=$pairdir/${tree:0:12}
		if [ ! -d "$dir" ]; then
			rm -rf "$dir.tmp"
			mkdir -p "$dir.tmp/.bench_build" "$pairdir/gocache"
			git archive "$tree" | tar -x -C "$dir.tmp"
			# run.sh puts its build cache at .bench_build/gocache in the copy.
			ln -s "$pairdir/gocache" "$dir.tmp/.bench_build/gocache"
			mv "$dir.tmp" "$dir"
		fi
		echo "$dir"
	}
	base_dir=$(export_rev "${revs[0]}")
	change_dir=$(export_rev "${revs[1]:-HEAD}")
	log=$pairdir/$workload-$(basename "$base_dir")-$(basename "$change_dir").jsonl
	: >"$log"

	# run SIDE DIR PAIR SEED appends one run's JSON line to the log, or a
	# null result when the run printed none (it could not be measured).
	run() {
		local out json
		out=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$4" --seconds "$seconds" --trace "$trace" 2>&1) || true
		json=$(grep '^{' <<<"$out" | tail -n 1) || true
		if [ -z "$json" ]; then
			echo "benchpair: $1 pair $3 seed $4 printed no result:" >&2
			tail -n 5 <<<"$out" >&2
			json=null
		fi
		jq -c --arg side "$1" --argjson pair "$3" --argjson seed "$4" \
			'{side: $side, pair: $pair, seed: $seed, result: .}' <<<"$json" >>"$log"
		echo "pair $3 seed $4 $1: $(jq -c '[.correct, .attempted, .failed, .metrics.latency_p50_ms.value]' <<<"$json")" >&2
	}

	for ((i = 0; i < pairs; i++)); do
		s=$((seed + i))
		if ((i % 2 == 0)); then
			run base "$base_dir" "$i" "$s"
			run change "$change_dir" "$i" "$s"
		else
			run change "$change_dir" "$i" "$s"
			run base "$base_dir" "$i" "$s"
		fi
	done

	echo "workload $workload, $pairs pairs, seeds $seed..$((seed + pairs - 1)), ${seconds}s, trace $trace"
	echo "base   ${revs[0]} ($(basename "$base_dir")), change ${revs[1]:-HEAD} ($(basename "$change_dir"))"
fi
echo "runs   $log"
jq -r '.side as $s | if .result == null then "\($s) 0 0 1"
	else "\($s) \(.result.attempted) \(.result.failed) \(if .result.correct then 0 else 1 end)" end' "$log" |
	awk '{ a[$1] += $2; f[$1] += $3; bad[$1] += $4 }
	END { for (s in a) printf "%-6s attempted %d, failed %d, incorrect or unmeasured runs %d\n", s, a[s], f[s], bad[s] }' | sort

# One line per (metric, pair): name better bound base change. Metrics
# come from BENCHMARK.json: end-to-end ones carry their bound, per-layer
# ones "-".
jq -rs --slurpfile spec "$spec" '
	(($spec[0].end_to_end | map({name, better, bound})) +
	 ($spec[0].per_layer | map({name, better, bound: "-"}))) as $metrics
	| (map(select(.result != null)) | group_by(.pair)
	   | map(select(length == 2) | {pair: .[0].pair,
		base: (map(select(.side == "base"))[0].result.metrics),
		change: (map(select(.side == "change"))[0].result.metrics)})) as $pairs
	| $metrics[] as $m
	| $pairs[]
	| select(.base[$m.name].value != null and .change[$m.name].value != null)
	| "\($m.name) \($m.better) \($m.bound) \(.base[$m.name].value) \(.change[$m.name].value)"' "$log" |
	awk '
	function quant(v, n, p,   pos, lo) {
		pos = 1 + (n - 1) * p; lo = int(pos)
		return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
	}
	function sort(v, n,   i, j, t) {
		for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	}
	function report(   i, bm, b1, b3, cm, c1, c3, worse, apart, spread, verdict) {
		if (name == "") return
		sort(b, n); sort(c, n)
		bm = quant(b, n, 0.5); b1 = quant(b, n, 0.25); b3 = quant(b, n, 0.75)
		cm = quant(c, n, 0.5); c1 = quant(c, n, 0.25); c3 = quant(c, n, 0.75)
		verdict = "-"
		if (bound != "-") {
			verdict = "ok"
			worse = better == "lower" ? cm > bm * (1 + bound) : cm < bm * (1 - bound)
			apart = better == "lower" ? c[1] > b[n] : c[n] < b[1]
			spread = b3 - b1
			if (worse) verdict = spread > bound * (bm < 0 ? -bm : bm) && !apart ? "unresolved" : "regressed"
			else if (wins * 10 >= 9 * n && (better == "lower" ? bm - cm : cm - bm) > spread) verdict = "gain"
		}
		printf "%-34s base %10.4g (%.4g–%.4g)  change %10.4g (%.4g–%.4g)  %+6.1f%%  wins %d/%d  %s\n",
			name, bm, b1, b3, cm, c1, c3, bm != 0 ? 100 * (cm - bm) / bm : 0, wins, n, verdict
	}
	$1 != name { report(); name = $1; better = $2; bound = $3; n = 0; wins = 0 }
	{
		n++; b[n] = $4; c[n] = $5
		if (better == "lower" ? $5 < $4 : $5 > $4) wins++
	}
	END { report() }'
