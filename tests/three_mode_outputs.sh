#!/bin/sh
# Rerun the nine bundled scenarios at tau_steps = 121 in closed_form, dense
# and validate mode (27 runs) and compare the SHA-256 of each run's CSV and
# events file with tests/data/three_mode_outputs.sha256, which was taken
# with single-threaded BLAS. Exits non-zero on any failed run or digest.
#
# From the repository root:
#   PYTHONPATH=src OPENBLAS_NUM_THREADS=1 sh tests/three_mode_outputs.sh OUT_DIR
# This script only checks. The pins are regenerated by hand, at the commit
# whose bytes they should hold and with single-threaded BLAS: run it, then
# write `sha256sum ./*/*.csv ./*/*_events.txt`, taken in OUT_DIR, to the
# pins file.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: sh tests/three_mode_outputs.sh OUT_DIR" >&2
    exit 2
fi
out=$1
pins=$(pwd)/tests/data/three_mode_outputs.sha256
for mode in closed_form dense validate; do
    mkdir -p "$out/$mode"
    for scn in scenarios/*.scn; do
        run="$out/$mode/$(basename "$scn")"
        { grep -Ev '^(tau_steps|mode)[[:space:]]*=' "$scn"
          printf 'tau_steps = 121\nmode = %s\n' "$mode"; } > "$run"
        python -m dipnet run "$run" --output-dir "$out/$mode"
    done
done
cd "$out"
sha256sum -c --quiet "$pins"
echo "27 runs match the $(wc -l < "$pins") pinned digests"
