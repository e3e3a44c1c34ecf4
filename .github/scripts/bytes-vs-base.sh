#!/usr/bin/env bash
# Run the same small audits with two `dpaudit` binaries and compare their
# trial stores and rendered reports byte for byte. On one machine the
# native kernels' stores, f64 and f32 alike, are a fixed point: any change
# that moves one must do so on purpose. A report is built from the store's
# records, so a change to the report alone shows in the reports and not in
# the stores. The head must also read and continue the base's stores: a
# header it reads differently would resume different trials.
#
# usage: bytes-vs-base.sh BASE_DPAUDIT HEAD_DPAUDIT [WORK_DIR]
#
# Covers mnist and purchase at `--threads 1`, so records land in trial
# order, each under seven flag sets: the Gaussian adversary at full batch
# (LS-scaled, GS-scaled with `--scaling gs`, and with f32 gradient storage
# via `--compute f32`) and Poisson-sampled (`--sampling-q 0.3`, in f64 and
# with `--compute f32`: f32 records of a Poisson draw, whose ε′ comes from
# the subsampled-Gaussian accountant), and the threshold-MI adversary
# (`--adversary mi`), bounded at full batch (its score comes from two
# forward-pass losses) and unbounded Poisson-sampled (its reference loss is
# the mean loss over D′). Each base store is then cut to its header and 2
# records and resumed by the head at `--threads 1`; the result must equal
# the base's full store, so a head that reads a stored scaling or compute
# mode as another value fails. Then compares `dpaudit demo` stdout for
# both workloads at `--reps 4 --steps 3`. Exits 1 if any pair of stores,
# reports, resumed stores or demo outputs differs.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BASE_DPAUDIT HEAD_DPAUDIT [WORK_DIR]" >&2
  exit 2
fi
base_bin=$1
head_bin=$2
work=${3:-bytes-vs-base}
mkdir -p "$work"

# audit BIN STORE FLAGS...: one audit into STORE, its rendered report in
# STORE.report; its progress goes to STORE.log, shown only if the run
# fails.
audit() {
  local bin=$1 store=$2
  shift 2
  if ! "$bin" "$@" --out "$store" > "$store.report" 2> "$store.log"; then
    cat "$store.log" >&2
    exit 2
  fi
}

# same WHAT BASE HEAD: cmp two files, report, and clear `status` on a
# difference.
same() {
  if cmp "$2" "$3"; then
    echo "same bytes: $1"
  else
    echo "differs: $1" >&2
    status=1
  fi
}

# NAME:EXTRA_FLAGS, one per audit variant.
variants=(
  "gaussian_full:"
  "gaussian_gs:--scaling gs"
  "gaussian_f32:--compute f32"
  "gaussian_q0.3:--sampling-q 0.3"
  "gaussian_f32_q0.3:--compute f32 --sampling-q 0.3"
  "mi_full:--adversary mi"
  "mi_unbounded_q0.3:--adversary mi --mode unbounded --sampling-q 0.3"
)

status=0
for workload in mnist purchase; do
  for variant in "${variants[@]}"; do
    read -r -a extra <<< "${variant#*:}"
    flags=(audit run --workload "$workload" --threads 1 --reps 4 --steps 4
      --train-size 40 --fresh "${extra[@]}")
    name="${workload}_${variant%%:*}"
    audit "$base_bin" "$work/base_$name.jsonl" "${flags[@]}"
    audit "$head_bin" "$work/head_$name.jsonl" "${flags[@]}"
    same "store $name" "$work/base_$name.jsonl" "$work/head_$name.jsonl"
    same "report $name" "$work/base_$name.jsonl.report" \
      "$work/head_$name.jsonl.report"
    resumed="$work/resumed_$name.jsonl"
    head -3 "$work/base_$name.jsonl" > "$resumed"
    if "$head_bin" audit resume --store "$resumed" --threads 1 \
      > "$resumed.report" 2> "$resumed.log"; then
      same "base store resumed by head $name" "$work/base_$name.jsonl" \
        "$resumed"
    else
      cat "$resumed.log" >&2
      echo "differs: the head cannot resume the base store $name" >&2
      status=1
    fi
  done
done

for workload in mnist purchase; do
  for side in base head; do
    bin=$base_bin
    [ "$side" = head ] && bin=$head_bin
    out="$work/${side}_demo_$workload.txt"
    if ! "$bin" demo --workload "$workload" --reps 4 --steps 3 \
      > "$out" 2> "$out.log"; then
      cat "$out.log" >&2
      exit 2
    fi
  done
  same "demo $workload" "$work/base_demo_$workload.txt" \
    "$work/head_demo_$workload.txt"
done
exit "$status"
