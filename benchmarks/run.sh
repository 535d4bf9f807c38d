#!/usr/bin/env bash
# The one command: build, run, verify, print.
#
#   benchmarks/run.sh <workload> [--seed N] [--trace] [--scale F] [--reps N]
#   benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmarks/run.sh --selfcheck [--seed N]
#
# Workloads: image_full, logical_full, incr_chain, tables.
# Everything it writes lands under the cargo target directory.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmarks}"

build_t0=$(date +%s%N)
cargo build --release --offline --quiet \
    --manifest-path benchmarks/Cargo.toml --target-dir "$target" >&2
# For information only: compile time is part of no metric.
echo "compile $(( ($(date +%s%N) - build_t0) / 1000000 )) ms (excluded from every metric)"

ledger="$target/release/ledger"
common=(--root . --out "$target/out")
case "${1:-}" in
    --selfcheck)
        shift
        exec "$ledger" selfcheck "${common[@]}" "$@"
        ;;
    ""|--help|-h)
        sed -n '2,9p' "${BASH_SOURCE[0]}" >&2
        exit 2
        ;;
    --*)
        exec "$ledger" run "${common[@]}" "$@"
        ;;
    *)
        workload=$1
        shift
        exec "$ledger" run "${common[@]}" --workload "$workload" "$@"
        ;;
esac
