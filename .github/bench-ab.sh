#!/usr/bin/env bash
# Same-host A/B gate on the repository benchmark. Builds buspower at
# BASE_REF (in a temporary git worktree) and at the checkout it is run
# in, then runs this checkout's perfbench `regen-warm` workload against
# the two binaries in alternating order (base, head, head, base, ...).
# Each side runs with its own checkout as -root, so it checks its tables
# against its own results/*.tsv.
#
#   .github/bench-ab.sh BASE_REF OUT
#
# It runs 3 pairs. Every perfbench output line is written to OUT,
# wrapped as {"side":..,"pair":..,"line":..}. The gate
# fails if any run reports "correct":false, or if head's median cpu_s is
# worse than base's by more than cpu_s's bound in BENCHMARK.json.
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
run_side() { # side pair
	local root=$head_root
	[ "$1" = base ] && root=$base_root
	echo "pair $2: $1" >&2
	"$work/perfbench" -root "$root" -bin "$work/buspower-$1" \
		--workload regen-warm --seconds 1 --trace 0 >"$work/lines"
	python3 -c '
import json, sys
side, pair = sys.argv[1], int(sys.argv[2])
for line in open(sys.argv[3]):
    print(json.dumps({"side": side, "pair": pair, "line": json.loads(line)}))
' "$1" "$2" "$work/lines" >>"$out"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run_side base "$i"
		run_side head "$i"
	else
		run_side head "$i"
		run_side base "$i"
	fi
done

python3 - "$out" BENCHMARK.json <<'EOF'
import json, statistics, sys

records = [json.loads(l) for l in open(sys.argv[1])]
bound = next(m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]
             if m["name"] == "cpu_s")
results = [r for r in records if "correct" in r["line"]]
bad = [f'{r["side"]} pair {r["pair"]}' for r in results if not r["line"]["correct"]]
cpu = {side: [r["line"]["metrics"]["cpu_s"]["value"] for r in results if r["side"] == side]
       for side in ("base", "head")}
base, head = statistics.median(cpu["base"]), statistics.median(cpu["head"])
ratio = head / base
print(f"regen-warm cpu_s median: base {base:.3f}s {cpu['base']}, "
      f"head {head:.3f}s {cpu['head']}; head/base {ratio:.3f} (bound {1 + bound:.2f})")
fail = False
if bad:
    print("FAIL: perfbench reported correct=false for " + ", ".join(bad))
    fail = True
if ratio > 1 + bound:
    print(f"FAIL: head cpu_s is {ratio - 1:+.1%} against base, beyond the {bound:.0%} bound")
    fail = True
sys.exit(1 if fail else 0)
EOF
