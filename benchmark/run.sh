#!/usr/bin/env bash
# The one command of the benchmark: builds asyncmg-perf from source (offline,
# release) and runs it. Without arguments it runs every workload in its own
# process, both passes, verifies every answer, prints every metric by name
# and unit, and writes benchmark/out/result.json. With arguments it passes
# them through, e.g.
#
#   benchmark/run.sh --workload svc-warm --seed 3 --seconds 15 --trace 0
#   benchmark/run.sh --smoke
#   benchmark/run.sh --aa
#   benchmark/run.sh compare benchmark/baseline/result.json benchmark/out/result.json
#
# Exits non-zero when the build fails, an answer is wrong, or a run does not
# finish.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the current directory,
# and so does the path below; neither changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export ASYNCMG_PERF_OUT="$here/out"
if [ "$#" -eq 0 ]; then
    set -- --all
fi
exec "$target/release/asyncmg-perf" "$@"
