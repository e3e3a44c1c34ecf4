#!/bin/bash
set -u
cd /root/repo
for bin in table1_parameters fig01_decision_boundary fig02_error_regions fig03_score_curves ablation_composition; do
  ./target/release/$bin > results/$bin.txt 2>&1 && echo "done $bin"
done
./target/release/fig04_ds_vs_ls > results/fig04_ds_vs_ls.txt 2>&1 && echo "done fig04"
./target/release/fig05_sensitivity_course > results/fig05_sensitivity_course.txt 2>&1 && echo "done fig05"
# Every trial batch runs on the dpaudit-runtime audit engine. Figure 6 and
# Table 2 persist each arm as a resumable trial store under results/stores/,
# and the per-store reports are appended via the `dpaudit audit report`
# subcommand. An interrupted run can be finished by rerunning its binary
# with the same flags, or with `dpaudit audit resume --store <file>`. The
# CLI rebuilds the DS-maximising pair and uses no test set, which fits
# these stores and those of fig05, fig08-10 and debug_probe, but not
# fig04's other pairs, fig07 or ablation_clipping.
mkdir -p results/stores
./target/release/fig06_belief_distributions --store-dir results/stores > results/fig06_belief_distributions.txt 2>&1 && echo "done fig06"
for store in results/stores/fig06_*.jsonl; do
  echo "" >> results/fig06_belief_distributions.txt
  echo "== dpaudit audit report --store $store ==" >> results/fig06_belief_distributions.txt
  ./target/release/dpaudit audit report --store "$store" >> results/fig06_belief_distributions.txt 2>&1
done
./target/release/table2_empirical_advantage --store-dir results/stores > results/table2_empirical_advantage.txt 2>&1 && echo "done table2"
for store in results/stores/table2_*.jsonl; do
  echo "" >> results/table2_empirical_advantage.txt
  echo "== dpaudit audit report --store $store ==" >> results/table2_empirical_advantage.txt
  ./target/release/dpaudit audit report --store "$store" >> results/table2_empirical_advantage.txt 2>&1
done
./target/release/fig07_test_accuracy > results/fig07_test_accuracy.txt 2>&1 && echo "done fig07"
./target/release/fig08_eps_from_ls > results/fig08_eps_from_ls.txt 2>&1 && echo "done fig08"
./target/release/fig09_eps_from_belief > results/fig09_eps_from_belief.txt 2>&1 && echo "done fig09"
./target/release/fig10_eps_from_advantage > results/fig10_eps_from_advantage.txt 2>&1 && echo "done fig10"
./target/release/extra_mi_vs_di > results/extra_mi_vs_di.txt 2>&1 && echo "done extra_mi_vs_di"
./target/release/ablation_clipping > results/ablation_clipping.txt 2>&1 && echo "done ablation_clipping"
# Live privacy-loss telemetry artefacts: one instrumented MNIST audit whose
# per-step ε ledger is captured as a deterministic metrics snapshot, a JSONL
# event trace, the rendered metrics report, and a Chrome/Perfetto export of
# the trace (load results/obs/mnist_trace.chrome.json at ui.perfetto.dev).
mkdir -p results/obs
./target/release/dpaudit audit run \
  --workload mnist --reps 4 --steps 3 --train-size 20 --fresh \
  --out results/obs/mnist_audit.jsonl \
  --metrics results/obs/mnist_metrics.json \
  --trace results/obs/mnist_trace.jsonl > results/obs/mnist_audit.txt 2>&1 && echo "done obs audit"
./target/release/dpaudit metrics report \
  --metrics results/obs/mnist_metrics.json \
  --trace results/obs/mnist_trace.jsonl > results/obs/mnist_metrics_report.txt 2>&1 && echo "done obs report"
./target/release/dpaudit trace export \
  --trace results/obs/mnist_trace.jsonl \
  --out results/obs/mnist_trace.chrome.json > /dev/null 2>&1 && echo "done obs chrome export"
./target/release/dpaudit watch \
  --store results/obs/mnist_audit.jsonl --trace results/obs/mnist_trace.jsonl \
  --max-ticks 1 --interval-ms 1 > results/obs/mnist_watch.txt 2>&1 && echo "done obs watch"
# One step's clipped-sum throughput across kernel variants: chunked at
# scalar/SIMD x f64/f32, chunk-parallel SIMD, drawn (per example) f64/f32
# (f64 sums asserted bit-identical to their oracles, f32 within tolerance;
# ratios are pure speed).
./target/release/bench_step > results/BENCH_step.json 2>results/BENCH_step.log && echo "done bench_step"
echo ALL_RUNS_COMPLETE
