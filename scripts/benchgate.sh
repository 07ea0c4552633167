#!/usr/bin/env bash
# benchgate.sh — benchstat-style regression gate for the tentpole
# benchmarks and one end-to-end sampling workload (a full statistical
# estimate on a 256-philosopher table), compared against the committed
# baseline in scripts/bench_baseline.txt.
#
# Two classes of check, with very different tolerances:
#   * allocs/op is host-independent and pinned tightly: at most
#     baseline*1.10+2, and BenchmarkFingerprint/warm must be exactly 0
#     (the arena's whole contract).
#   * ns/op varies wildly across CI hosts, so it only gates
#     order-of-magnitude regressions: fail at > baseline*4. Real
#     performance work is measured with interleaved same-host A/B runs
#     (see EXPERIMENTS.md), never by this gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=scripts/bench_baseline.txt
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

go test -run '^$' -bench 'BenchmarkFingerprint/warm' -benchtime 2000x ./internal/machine/ | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkCheckThroughput/seq' -benchtime 10x ./internal/mc/ | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkChurnSplice/n=1024$' -benchtime 2000x . | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkSampleDining256$' -benchtime 3x . | tee -a "$OUT"

awk -v baseline="$BASELINE" '
/ ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns[name] = $(i - 1)
        if ($i == "allocs/op") al[name] = $(i - 1)
    }
}
END {
    fails = 0
    while ((getline line < baseline) > 0) {
        if (line ~ /^#/ || line ~ /^[ \t]*$/) continue
        split(line, f, /[ \t]+/)
        bname = f[1]; bns = f[2] + 0; bal = f[3] + 0
        if (!(bname in ns)) {
            printf "FAIL %s: benchmark did not run\n", bname
            fails++
            continue
        }
        if (al[bname] + 0 > bal * 1.10 + 2) {
            printf "FAIL %s: %s allocs/op, baseline %d (max %.0f)\n", bname, al[bname], bal, bal * 1.10 + 2
            fails++
        }
        if (bal == 0 && al[bname] + 0 != 0) {
            printf "FAIL %s: %s allocs/op, must be exactly 0\n", bname, al[bname]
            fails++
        }
        if (ns[bname] + 0 > bns * 4) {
            printf "FAIL %s: %.0f ns/op, baseline %.0f (max %.0f)\n", bname, ns[bname], bns, bns * 4
            fails++
        }
        printf "ok   %s: %.0f ns/op (baseline %.0f), %s allocs/op (baseline %d)\n", bname, ns[bname], bns, al[bname], bal
    }
    if (fails > 0) {
        printf "%d bench gate failure(s)\n", fails
        exit 1
    }
}
' "$OUT"
