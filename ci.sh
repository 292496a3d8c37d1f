#!/usr/bin/env bash
# The full local CI gate: build, tests, formatting, lints.
# Run from anywhere; everything executes at the repository root.
#
#   ./ci.sh           the default gate (its tests include the audit
#                     self-tests, which audit their runs by type)
#   ./ci.sh --audit   additionally runs the full audited matrix on the
#                     same binaries under DSV_AUDIT=1: the check and
#                     integration test suites and every committed figure
#                     (all_figures), with the result cache off (cache hits
#                     skip simulation, which would skip the audits too),
#                     then `dsv run` on every committed spec.
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

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark smoke (every workload once, every point checked against results/)"
cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke

echo "==> address differential (tree-built addresses name the streamed pre-pass's cache files)"
# The traced pass rebuilds every warm_replay address through the Value
# tree (keys::cache_address) and fails unless each one names a cache file
# the runner's pre-pass wrote from the addresses it streamed from the
# typed specs: all 294 points, tree against stream.
cargo run --release --manifest-path benchmark/Cargo.toml -- \
  --workload warm_replay --seconds 1 --trace 1

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

echo "==> transport goldens regeneration gate (cluster modes)"
# The smoothing and AF-TCP goldens must re-simulate byte-for-byte with
# exact clustering and with every point simulated individually.
regen_transport_goldens() {
  DSV_REGEN=1 DSV_CACHE=off "$@" cargo test -q -p dsv-integration \
    --test paper_findings_tcp_smoothing --test paper_findings_af_tcp
  git diff --exit-code -- results/
}
regen_transport_goldens env DSV_CLUSTER=exact
regen_transport_goldens env DSV_CLUSTER=off

echo "==> golden regeneration gate (single-stream and aggregate goldens, cache off)"
# One writer (dsv_core::golden::golden) publishes every golden; the
# transport ones are rebuilt above. Here the single-stream and aggregate
# goldens re-simulate and are rewritten at the default test threads, so
# tests sharing a golden (metamorphic loads the QBone sweep twice)
# regenerate and publish the same file concurrently.
DSV_REGEN=1 DSV_CACHE=off cargo test -q -p dsv-integration \
  --test paper_findings_qbone --test paper_findings_local \
  --test paper_findings_aggregate --test metamorphic
git diff --exit-code -- results/

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

if [[ "$AUDIT" == 1 ]]; then
  echo "==> audited test suites (DSV_AUDIT=1)"
  DSV_AUDIT=1 cargo test -q -p dsv-check -p dsv-integration

  echo "==> audited figure sweep: every committed figure (cache off)"
  # all_figures covers what fig07 alone does not: merges inside the
  # backbone, TCP acknowledgement paths and client timers, so every hop
  # chain and every chain-tie oracle is exercised.
  DSV_AUDIT=1 DSV_CACHE=off ./target/release/all_figures > /dev/null

  echo "==> audited figures byte-identical to committed results"
  git diff --exit-code -- results/

  echo "==> audited scenario runs: dsv run on every committed spec (DSV_AUDIT=1)"
  # dsv run goes through the same executor as the figures, so each spec's
  # bounds are registered and its audit closed. The audited report must
  # match the unaudited run's byte for byte.
  plain=$(mktemp -d)
  for spec in examples/*.json; do
    ./target/release/dsv run --scenario "$spec" --json > "$plain/$(basename "$spec")"
  done
  for spec in examples/*.json; do
    DSV_AUDIT=1 ./target/release/dsv run --scenario "$spec" --json \
      | cmp - "$plain/$(basename "$spec")"
  done
  rm -rf "$plain"
fi

echo "==> ci: all green"
