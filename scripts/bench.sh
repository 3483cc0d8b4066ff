#!/usr/bin/env bash
# Runs the headline paper-table benchmarks once and records the results as
# BENCH_<date>.json in the repo root, building the performance trajectory
# across PRs.
#
# Usage:
#   scripts/bench.sh [pattern]            run + record
#   scripts/bench.sh compare [-fail-above <ratio>] [pattern]
#                                         run + record + diff against the
#                                         latest prior BENCH_*.json, printing
#                                         per-benchmark speedup ratios
#
# With -fail-above, compare exits non-zero when any benchmark's ns/op grew
# past <ratio> × its prior value (e.g. -fail-above 1.5 fails on a >1.5×
# slowdown), so a gate can fail on regressions instead of only printing
# ratios. Ratios are only meaningful between runs on the SAME hardware:
# gate in environments that record their own baseline (a dev box's local
# BENCH trajectory, or CI that measures a baseline in the same job), not
# against snapshots committed from different machines.
#
# A custom -bench pattern overrides the default set. Existing BENCH files are
# never clobbered: a same-day rerun writes BENCH_<date>_N.json, which sorts
# after the original so "latest prior" stays well-defined.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=0
fail_above=""
if [[ "${1:-}" == "compare" ]]; then
  compare=1
  shift
  if [[ "${1:-}" == "-fail-above" ]]; then
    fail_above="${2:?-fail-above needs a ratio}"
    shift 2
  fi
fi
pattern="${1:-BenchmarkTable2_GBTrainPredict|BenchmarkFigure1_AuroraModels|BenchmarkAblation_SplitterEngine|BenchmarkAblation_HistTree|BenchmarkAblation_KernelGram|BenchmarkAblation_SPDSolve|BenchmarkRouter_MixedFleet|BenchmarkProxy_Overhead|BenchmarkRetrain_HotSwap|BenchmarkOverload_ShedVsServe|BenchmarkAdvisor_Recommend|BenchmarkGBPredictGrid|BenchmarkDecodeFleet}"

# Snapshot the latest prior record BEFORE writing the new one (-V so a
# tenth same-day rerun _10 sorts after _9, not before _2).
prev=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)

out="BENCH_$(date +%Y%m%d).json"
n=2
while [[ -e "$out" ]]; do
  out="BENCH_$(date +%Y%m%d)_$n.json"
  n=$((n + 1))
done

# BenchmarkProxy_Overhead and BenchmarkRetrain_HotSwap live in cmd/parcost,
# BenchmarkOverload_ShedVsServe in internal/admission,
# BenchmarkAdvisor_Recommend and BenchmarkDecodeFleet in internal/guide,
# BenchmarkGBPredictGrid in internal/ml/ensemble; the paper tables in the
# root. The $(...) capture
# would otherwise swallow a compile failure or benchmark panic into an
# empty snapshot, so check the exit status explicitly and fail loudly
# instead of recording garbage.
if ! raw=$(go test -run '^$' -bench "$pattern" -benchtime=1x -benchmem . ./cmd/parcost ./internal/admission ./internal/guide ./internal/ml/ensemble 2>&1); then
  echo "$raw"
  echo "bench: go test -bench failed; no snapshot written" >&2
  exit 1
fi
echo "$raw"
if ! grep -q '^Benchmark' <<<"$raw"; then
  echo "bench: no benchmarks matched pattern '$pattern'; no snapshot written" >&2
  exit 1
fi

{
  echo '{'
  echo "  \"date\": \"$(date -Iseconds)\","
  echo "  \"go\": \"$(go version | awk '{print $3}')\","
  echo '  "results": ['
  echo "$raw" | awk '
    /^Benchmark/ {
      if (seen) printf ",\n"
      seen = 1
      sub(/-[0-9]+$/, "", $1)  # drop the -GOMAXPROCS suffix so snapshots from different core counts compare
      # Each value precedes its unit; read them by unit, so a custom
      # b.ReportMetric column (e.g. "4.5 ms/query") cannot shift them.
      ns = "null"; b = "null"; allocs = "null"
      for (i = 4; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") b = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
      }
      printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", $1, ns, b, allocs
    }
    END { if (seen) printf "\n" }'
  echo '  ]'
  echo '}'
} > "$out"
echo "wrote $out"

if [[ "$compare" == 1 ]]; then
  if [[ -z "$prev" ]]; then
    echo "compare: no prior BENCH_*.json to diff against"
    exit 0
  fi
  echo
  echo "compare: $prev -> $out (ratio > 1 is a speedup)"
  # Both files hold one {"name": ..., "ns_per_op": ...} object per line.
  # With a fail-above ratio, benchmarks whose new ns/op exceeds
  # prev × ratio are listed and the script exits 1.
  awk -v fail_above="${fail_above}" '
    function trim(s) { gsub(/[",]/, "", s); return s }
    /"name"/ {
      name = trim($2); ns = trim($4) + 0
      if (FILENAME == ARGV[1]) { prev[name] = ns }
      else if (name in prev && ns > 0) {
        printf "  %-55s %12.0f -> %12.0f ns/op   %5.2fx\n", name, prev[name], ns, prev[name] / ns
        if (fail_above != "" && ns > prev[name] * fail_above) {
          regressed[name] = ns / prev[name]
        }
      } else if (!(name in prev)) {
        printf "  %-55s %28s %12.0f ns/op   (new)\n", name, "", ns
      }
    }
    END {
      bad = 0
      for (name in regressed) {
        if (!bad) printf "\nregressions past %sx:\n", fail_above
        printf "  %-55s %.2fx slower\n", name, regressed[name]
        bad = 1
      }
      exit bad
    }
  ' "$prev" "$out"
fi
