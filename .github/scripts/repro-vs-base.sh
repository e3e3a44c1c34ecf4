#!/usr/bin/env bash
# Run the reproduction binaries of two `dpaudit-bench` builds at small
# sizes and compare their stdout byte for byte. Each binary's tables and
# `--json` blob are a pure function of its flags, so any change that moves
# one must do so on purpose.
#
# usage: repro-vs-base.sh BASE_BIN_DIR HEAD_BIN_DIR [WORK_DIR]
#
# BASE_BIN_DIR and HEAD_BIN_DIR hold the built binaries (e.g.
# `target/release`). Covers table2, fig04, fig05, fig06, fig07, fig08
# (whose audit grid fig09 and fig10 share) and ablation_clipping at
# `--reps 2 --steps 3 --json`, and debug_probe at `--reps 2` (pass it
# `--steps` too once the base honours that flag). table2, fig06, fig08,
# ablation_clipping and debug_probe print fields of the engine's audit
# report. Then runs the head's fig05 twice on one
# `--store-dir`: the second run must replay the stores and print the same
# stdout. Exits 1 if any pair of outputs differs.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BASE_BIN_DIR HEAD_BIN_DIR [WORK_DIR]" >&2
  exit 2
fi
base_dir=$1
head_dir=$2
work=${3:-repro-vs-base}
mkdir -p "$work"

# run DIR BIN OUT FLAGS...: one run with stdout in OUT; its progress goes
# to OUT.log, shown only if the run fails.
run() {
  local dir=$1 bin=$2 out=$3
  shift 3
  if ! "$dir/$bin" "$@" > "$out" 2> "$out.log"; then
    cat "$out.log" >&2
    exit 2
  fi
}

small="--reps 2 --steps 3 --json"
# BIN:FLAGS, one per compared run.
cases=(
  "table2_empirical_advantage:$small"
  "fig04_ds_vs_ls:$small"
  "fig05_sensitivity_course:$small"
  "fig06_belief_distributions:$small"
  "fig07_test_accuracy:$small"
  "fig08_eps_from_ls:$small"
  "ablation_clipping:$small"
  "debug_probe:--reps 2"
)

status=0
for case in "${cases[@]}"; do
  bin=${case%%:*}
  read -r -a flags <<< "${case#*:}"
  run "$base_dir" "$bin" "$work/base_$bin.txt" "${flags[@]}"
  run "$head_dir" "$bin" "$work/head_$bin.txt" "${flags[@]}"
  if cmp "$work/base_$bin.txt" "$work/head_$bin.txt"; then
    echo "same stdout: $bin"
  else
    echo "stdout differs: $bin" >&2
    status=1
  fi
done

stores="$work/stores"
rm -rf "$stores"
read -r -a flags <<< "$small"
for pass in 1 2; do
  run "$head_dir" fig05_sensitivity_course "$work/head_fig05_pass$pass.txt" \
    "${flags[@]}" --store-dir "$stores"
done
if ! grep -q "2/2 trials present" "$work/head_fig05_pass2.txt.log"; then
  echo "fig05 did not replay its stores on the second run" >&2
  status=1
elif cmp "$work/head_fig05_pass1.txt" "$work/head_fig05_pass2.txt" \
  && cmp "$work/head_fig05_sensitivity_course.txt" "$work/head_fig05_pass1.txt"; then
  echo "same stdout: fig05_sensitivity_course replayed from --store-dir"
else
  echo "stdout differs: fig05_sensitivity_course replayed from --store-dir" >&2
  status=1
fi
exit "$status"
