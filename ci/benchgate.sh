#!/usr/bin/env bash
# Same-runner A/B benchmark gate: measures a base commit and the
# working tree with bench/ on this host and fails when the change is
# slower, allocates more, or does more deterministic work.
#
#   bash ci/benchgate.sh <base-ref>
#
# Run it from anywhere inside the checkout. The base is checked out
# into a temporary git worktree; each side runs its own bench/run.sh.
#
# - Time and allocations: table1 and district_cold run in alternating
#   pairs (odd pairs base first, even pairs change first, one seed per
#   pair), and the verdict is `bench/run.sh --compare base.json
#   change.json`. That command applies the bounds in BENCHMARK.json,
#   reads a metric as "unresolved" when either side spreads wider than
#   its bound and exits 1 on "regressed".
# - Counters: one traced pass per side on table1, district_cold,
#   district_local and city. Horizon marches, statistics passes and
#   window calls per op must not rise, and the cache hit ratio must not
#   fall. bench/ counts these in its staged copy of the pipeline, so
#   they see work done in the stage functions and the cache, not extra
#   work added inside pvfloor.Run or RunDistrict themselves.
#
# A bench run with an incorrect operation exits non-zero and fails the
# gate. The --out files are left in .bench_build/gate/.
set -euo pipefail

base_ref=${1:?usage: bash ci/benchgate.sh <base-ref>}
pairs=5
seconds=3
timed=(table1 district_cold)
counted=(table1 district_cold district_local city)
# At this length each of the five rounds runs exactly one operation,
# so both sides trace the same two seeded operations and the per-op
# counters are exact. A longer pass traces as many operations as the
# host manages, and district_cold's statistics passes per op then
# depend on which tiles they were.
trace_seconds=0.001

root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/gate"
rm -rf "$out"
mkdir -p "$out"

work=$(mktemp -d)
base="$work/base"
trap 'git worktree remove --force "$base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$base" "$base_ref"
# Share the Go build cache, so the base side compiles only what differs.
mkdir -p "$base/.bench_build" "$root/.bench_build/gocache"
ln -s "$root/.bench_build/gocache" "$base/.bench_build/gocache"

# bench SIDE ARGS...: run bench/run.sh in the side's tree.
bench() {
	local side=$1
	shift
	local tree=$root
	[ "$side" = base ] && tree=$base
	(cd "$tree" && bash bench/run.sh "$@")
}

start=$SECONDS
for p in $(seq 1 "$pairs"); do
	order=(base change)
	[ $((p % 2)) -eq 0 ] && order=(change base)
	for w in "${timed[@]}"; do
		for side in "${order[@]}"; do
			line=$(bench "$side" --workload "$w" --seed "$p" --seconds "$seconds" --trace 0 --out "$out/$side.json")
			echo "pair $p/$pairs $w $side: $line"
		done
	done
done
for w in "${counted[@]}"; do
	for side in base change; do
		bench "$side" --workload "$w" --seed 1 --seconds "$trace_seconds" --trace 1 --out "$out/$side-trace.json" >/dev/null
	done
done
echo "benchgate: measured in $((SECONDS - start)) s"

echo
echo "== time and allocations ($pairs alternating pairs, --seconds $seconds)"
status=0
bash bench/run.sh --compare "$out/base.json" "$out/change.json" || status=1

echo
echo "== counters (one traced pass per side)"
table=$(jq -rn --slurpfile a "$out/base-trace.json" --slurpfile b "$out/change-trace.json" \
	--args '
	def value($runs; $w; $m): [$runs[] | select(.workload == $w and .trace) | .per_layer[$m].value // 0] | first;
	["workload", "metric", "base", "change", "verdict"],
	($ARGS.positional[] as $w
	 | (["horizon.marches_per_op", "lower"], ["field.stats_passes_per_op", "lower"],
	    ["gis.window_calls_per_op", "lower"], ["fieldcache.hit_ratio", "higher"])
	 | . as [$m, $better]
	 | value($a[0]; $w; $m) as $x
	 | value($b[0]; $w; $m) as $y
	 | [$w, $m, $x, $y,
	    if $x == null or $y == null then "missing"
	    elif ($better == "lower" and $y > $x) or ($better == "higher" and $y < $x) then "worse"
	    else "ok" end])
	| @tsv' "${counted[@]}")
while IFS=$'\t' read -r w m x y v; do
	printf '%-15s %-26s %6s %6s  %s\n' "$w" "$m" "$x" "$y" "$v"
done <<<"$table"
if grep -qE $'\t(worse|missing)$' <<<"$table"; then
	status=1
fi

echo
if [ "$status" -ne 0 ]; then
	echo "benchgate: FAIL" >&2
	exit 1
fi
echo "benchgate: ok"
