#!/usr/bin/env bash
# Same-host A/B gate on the repository benchmark. Builds buspower at
# BASE_REF (in a temporary git worktree) and at the checkout it is run
# in, then runs this checkout's perfbench `regen-warm` and `serve-miss`
# workloads against the two binaries in alternating order (base, head,
# head, base, ...). Each side runs with its own checkout as -root, so it
# checks its tables against its own results/*.tsv.
#
#   .github/bench-ab.sh BASE_REF OUT
#
# It runs 3 pairs of each workload. Every perfbench output line is
# written to OUT, wrapped as {"side":..,"pair":..,"workload":..,"line":..}.
# The gate fails if any run reports "correct":false (a wrong table, a
# cold warm run, or any failed or wrong served request), or if head's
# median is worse than base's by more than the metric's bound in
# BENCHMARK.json for regen-warm cpu_s or serve-miss
# server_cpu_ms_per_req.
set -euo pipefail

base_ref=${1:?usage: bench-ab.sh BASE_REF OUT}
out=$(realpath -m "${2:?usage: bench-ab.sh BASE_REF OUT}")
pairs=3
head_root=$(git rev-parse --show-toplevel)
cd "$head_root"

work=$(mktemp -d)
base_root="$work/base"
cleanup() {
	git worktree remove --force "$base_root" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$base_root" "$base_ref"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$work/buspower-head" ./cmd/buspower
go -C "$base_root" build -o "$work/buspower-base" ./cmd/buspower
go -C perfbench build -o "$work/perfbench" .

: >"$out"
run_side() { # side pair workload
	local root=$head_root
	[ "$1" = base ] && root=$base_root
	echo "pair $2: $1 $3" >&2
	"$work/perfbench" -root "$root" -bin "$work/buspower-$1" \
		--workload "$3" --seconds 1 --trace 0 >"$work/lines"
	python3 -c '
import json, sys
side, pair, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
for line in open(sys.argv[4]):
    print(json.dumps({"side": side, "pair": pair, "workload": workload, "line": json.loads(line)}))
' "$1" "$2" "$3" "$work/lines" >>"$out"
}
for ((i = 0; i < pairs; i++)); do
	order=(base head)
	((i % 2 == 0)) || order=(head base)
	for workload in regen-warm serve-miss; do
		for side in "${order[@]}"; do
			run_side "$side" "$i" "$workload"
		done
	done
done

python3 - "$out" BENCHMARK.json <<'EOF'
import json, statistics, sys

records = [json.loads(l) for l in open(sys.argv[1])]
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
results = [r for r in records if "correct" in r["line"]]
fail = False
bad = [f'{r["workload"]} {r["side"]} pair {r["pair"]}' for r in results if not r["line"]["correct"]]
if bad:
    print("FAIL: perfbench reported correct=false for " + ", ".join(bad))
    fail = True
for workload, metric in (("regen-warm", "cpu_s"), ("serve-miss", "server_cpu_ms_per_req")):
    vals = {side: [r["line"]["metrics"][metric]["value"] for r in results
                   if r["workload"] == workload and r["side"] == side]
            for side in ("base", "head")}
    base, head = statistics.median(vals["base"]), statistics.median(vals["head"])
    ratio, bound = head / base, bounds[metric]
    print(f"{workload} {metric} median: base {base:.4g} {vals['base']}, "
          f"head {head:.4g} {vals['head']}; head/base {ratio:.3f} (bound {1 + bound:.2f})")
    if ratio > 1 + bound:
        print(f"FAIL: head {workload} {metric} is {ratio - 1:+.1%} against base, beyond the {bound:.0%} bound")
        fail = True
sys.exit(1 if fail else 0)
EOF
