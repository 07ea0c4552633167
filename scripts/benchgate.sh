#!/usr/bin/env bash
# benchgate.sh — benchstat-style regression gate for the tentpole
# benchmarks and two end-to-end workloads (a full statistical estimate
# on a 256-philosopher table, and an exhaustive closure of the flipped
# four-philosopher table), compared against the committed baseline in
# scripts/bench_baseline.txt.
#
# Three classes of check, with very different tolerances:
#   * allocs/op is host-independent and pinned tightly: at most
#     baseline*1.10+2, and BenchmarkFingerprint/warm must be exactly 0
#     (the arena's whole contract).
#   * B/op, where a baseline row pins it (optional fourth column), is
#     host-independent too and gated at baseline*1.10: it catches bytes
#     that come back without extra allocations, such as per-state tables
#     regrown by append instead of chunked.
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
go test -run '^$' -bench 'BenchmarkCheckDiningFlipped4$' -benchtime 1x . | tee -a "$OUT"

awk -v baseline="$BASELINE" '
/ ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns[name] = $(i - 1)
        if ($i == "allocs/op") al[name] = $(i - 1)
        if ($i == "B/op")      by[name] = $(i - 1)
    }
}
END {
    fails = 0
    while ((getline line < baseline) > 0) {
        if (line ~ /^#/ || line ~ /^[ \t]*$/) continue
        split(line, f, /[ \t]+/)
        bname = f[1]; bns = f[2] + 0; bal = f[3] + 0; bby = f[4]
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
        if (bby != "" && !(bname in by)) {
            printf "FAIL %s: no B/op reported\n", bname
            fails++
        } else if (bby != "" && by[bname] + 0 > bby * 1.10) {
            printf "FAIL %s: %s B/op, baseline %d (max %.0f)\n", bname, by[bname], bby, bby * 1.10
            fails++
        }
        bytes = ""
        if (bby != "") bytes = sprintf(", %s B/op (baseline %d)", by[bname], bby)
        printf "ok   %s: %.0f ns/op (baseline %.0f), %s allocs/op (baseline %d)%s\n", bname, ns[bname], bns, al[bname], bal, bytes
    }
    if (fails > 0) {
        printf "%d bench gate failure(s)\n", fails
        exit 1
    }
}
' "$OUT"
