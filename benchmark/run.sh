#!/usr/bin/env bash
# The repo benchmark's one entry point. Builds the benchmark package
# (a cargo package of its own; the root manifest and lock stay untouched)
# and then:
#
#   run.sh                          full set: every workload untraced, then
#                                   traced with the layer drills
#   run.sh --smoke                  the same with 5 s windows and no traced runs
#   run.sh --aa K                   K interleaved A/A pairs of untraced sets;
#                                   prints spreads, checks the bounds and
#                                   writes calibrated ones to BENCHMARK.json
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                   one run (what BENCHMARK.json's command
#                                   is called with); --trace 1 also writes
#                                   benchmark/out/trace-W.json
#   run.sh drill [--workload W]     the layer drills alone, at one shape or all
#
# Run it from the repository root.
set -euo pipefail

here="$(dirname "$0")"
if [ ! -f "$here/../crates/sintra/Cargo.toml" ]; then
    echo "run.sh: the benchmark builds the program from source; $here/../crates is missing" >&2
    exit 1
fi

# The driver points CARGO_TARGET_DIR at its own build directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_OUT="${BENCH_OUT:-$here/out}"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
bin="$CARGO_TARGET_DIR/release/benchmark"

case "${1:-}" in
    --workload | --seed | --seconds | --trace | drill | setup)
        exec "$bin" "$@"
        ;;
    *)
        exec python3 "$here/suite.py" "$bin" "$@"
        ;;
esac
