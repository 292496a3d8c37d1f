#!/usr/bin/env bash
# The full local CI gate: build, tests, formatting, lints.
# Run from anywhere; everything executes at the repository root.
#
#   ./ci.sh           the default gate (includes an audit smoke stage)
#   ./ci.sh --audit   additionally runs the full audited matrix: the
#                     audit-feature test suites and the committed figure
#                     sweeps under DSV_AUDIT=1, on both event-queue
#                     backends, with the result cache off (cache hits
#                     skip simulation, which would skip the audits too).
set -euo pipefail
cd "$(dirname "$0")"

AUDIT=0
for arg in "$@"; do
  case "$arg" in
    --audit) AUDIT=1 ;;
    *) echo "ci.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q (DSV_QUEUE=heap: binary-heap event-queue backend)"
DSV_QUEUE=heap cargo test -q --workspace

echo "==> audit smoke (oracle self-tests, wheel backend)"
cargo test -q -p dsv-check --features dsv-check/audit

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -D warnings (audit feature)"
cargo clippy -p dsv-check -p dsv-integration -p dsv-bench --all-targets \
  --features dsv-check/audit,dsv-integration/audit,dsv-bench/audit -- -D warnings

echo "==> runner_bench smoke (tiny grid, temp output)"
DSV_BENCH_SMOKE=1 DSV_CACHE=off ./target/release/runner_bench

echo "==> benchmark smoke (every workload once, every point checked against results/)"
cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke

echo "==> scenario-schema smoke (parse + compile + run every committed spec)"
for spec in examples/*.json; do
  ./target/release/dsv run --scenario "$spec" > /dev/null
done

echo "==> scenario refactor gate (spec-driven figures byte-identical, cache off)"
DSV_CACHE=off ./target/release/fig07_qbone_lost > /dev/null
DSV_CACHE=off ./target/release/ablation_hop_jitter > /dev/null
DSV_CACHE=off ./target/release/fig16_aggregate > /dev/null
DSV_CACHE=off ./target/release/fig17_tcp_smoothing > /dev/null
DSV_CACHE=off ./target/release/fig18_af_tcp > /dev/null
git diff --exit-code -- results/

echo "==> transport goldens regeneration gate (backends, cluster modes)"
# The smoothing and AF-TCP goldens must re-simulate byte-for-byte under
# every engine configuration: both event-queue backends, and exact
# clustering vs every point simulated individually.
regen_transport_goldens() {
  DSV_REGEN=1 DSV_CACHE=off "$@" cargo test -q -p dsv-integration \
    --test paper_findings_tcp_smoothing --test paper_findings_af_tcp
  git diff --exit-code -- results/
}
regen_transport_goldens env DSV_QUEUE=wheel
regen_transport_goldens env DSV_QUEUE=heap
regen_transport_goldens env DSV_CLUSTER=exact
regen_transport_goldens env DSV_CLUSTER=off

echo "==> cluster regeneration gate (exact mode vs clustering off, cache off)"
# Exact clustering's contract is byte-identity: the committed figures must
# regenerate bit-for-bit both with the cluster pre-pass on (the default)
# and with every point individually simulated.
for mode in exact off; do
  DSV_CLUSTER=$mode DSV_CACHE=off ./target/release/fig07_qbone_lost > /dev/null
  DSV_CLUSTER=$mode DSV_CACHE=off ./target/release/fig16_aggregate > /dev/null
  DSV_CLUSTER=$mode DSV_CACHE=off ./target/release/fig18_af_tcp > /dev/null
  git diff --exit-code -- results/
done

echo "==> warm-cache figure gate (every figure replayed from a fresh result cache)"
# Every lane above runs with the cache off. Here all_figures fills a fresh
# cache, then replays from it: both passes must leave results/ unchanged,
# every progress line of the replay must report 0 simulated points, and
# the replay must write no cache file.
warm_cache=$(mktemp -d)
DSV_CACHE="$warm_cache" DSV_PROGRESS=1 ./target/release/all_figures > /dev/null 2> /dev/null
git diff --exit-code -- results/
filled=$(ls -A "$warm_cache")
replay=$(DSV_CACHE="$warm_cache" DSV_PROGRESS=1 ./target/release/all_figures 2>&1 > /dev/null \
  | tr '\r' '\n' | grep '^\[runner\]' || true)
git diff --exit-code -- results/
if [[ -z "$replay" ]] || grep -qv ' (0 simulated, ' <<< "$replay"; then
  echo "warm-cache replay simulated points (or printed no progress):" >&2
  grep -m 5 -v ' (0 simulated, ' <<< "$replay" >&2 || true
  exit 1
fi
if [[ "$(ls -A "$warm_cache")" != "$filled" ]]; then
  echo "warm-cache replay wrote cache files" >&2
  exit 1
fi
rm -rf "$warm_cache"

echo "==> qoe gate (DSV_QOE=full byte-identical; proxy bound holds)"
# The default estimator must be a no-op relative to every committed
# figure — DSV_QOE=full regenerates all of results/ bit-for-bit. The
# proxy lane then asserts the committed error bound on the
# checksum-guarded dataset and feature byte-identity across engine
# configurations. (Proxy-mode figures are exercised via runner_bench's
# qoe stage, which never writes committed files.)
DSV_QOE=full DSV_CACHE=off ./target/release/all_figures > /dev/null
git diff --exit-code -- results/
cargo test -q -p dsv-integration --test qoe_proxy --test qoe_features

if [[ "$AUDIT" == 1 ]]; then
  echo "==> audit build"
  cargo build --release -p dsv-bench --features dsv-bench/audit

  for backend in wheel heap; do
    echo "==> audited test suites (DSV_QUEUE=$backend)"
    DSV_AUDIT=1 DSV_QUEUE=$backend cargo test -q \
      -p dsv-check -p dsv-integration \
      --features dsv-check/audit,dsv-integration/audit

    echo "==> audited figure sweeps (DSV_QUEUE=$backend, cache off)"
    DSV_AUDIT=1 DSV_QUEUE=$backend DSV_CACHE=off DSV_BENCH_SMOKE=1 \
      cargo run --release -q -p dsv-bench --features dsv-bench/audit \
      --bin runner_bench
    DSV_AUDIT=1 DSV_QUEUE=$backend DSV_CACHE=off \
      cargo run --release -q -p dsv-bench --features dsv-bench/audit \
      --bin fig07_qbone_lost
  done

  echo "==> audited figures byte-identical to committed results"
  git diff --exit-code -- results/
fi

echo "==> ci: all green"
