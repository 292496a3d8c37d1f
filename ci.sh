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

echo "==> configuration guard (the environment is read only in dsv_core::config)"
if grep -rn --include='*.rs' 'env::var' crates examples | grep -v '^crates/core/src/config\.rs:'; then
  echo "env::var outside crates/core/src/config.rs" >&2
  exit 1
fi

echo "==> benchmark tests (workload and metric tables against BENCHMARK.json)"
cargo test -q --manifest-path benchmark/Cargo.toml

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
DSV_CACHE=off ./target/release/fig10_qbone_dark > /dev/null
DSV_CACHE=off ./target/release/ablation_multirate > /dev/null
DSV_CACHE=off ./target/release/ablation_hop_jitter > /dev/null
DSV_CACHE=off ./target/release/fig16_aggregate > /dev/null
DSV_CACHE=off ./target/release/fig17_tcp_smoothing > /dev/null
DSV_CACHE=off ./target/release/fig18_af_tcp > /dev/null
git diff --exit-code -- results/

echo "==> audited hop-chain and send-ahead gate (DSV_AUDIT=1, cache off)"
# Hop chains cross the QBone and smoothing policers and AF-TCP's edge for
# the pairs they decide alone. The audit's chain-tie, admission-tie and
# conformance oracles certify that those walked verdicts sort and admit
# as per-hop dispatch would; a violation panics the figure. Paced servers
# send ahead within their inbound lookahead in every figure that has
# them; the tick-tie oracle certifies that nothing they file ahead ties
# another event. Beyond Figure 7 that takes the aggregate's eight servers
# (Figure 16), the multi-rate server, cross traffic merging at core1 (the
# hop-jitter ablation) and the AF PHB ablation.
for fig in fig07_qbone_lost fig17_tcp_smoothing fig18_af_tcp \
    fig16_aggregate ablation_multirate ablation_hop_jitter ablation_af_phb; do
  DSV_AUDIT=1 DSV_CACHE=off ./target/release/"$fig" > /dev/null
done
git diff --exit-code -- results/

echo "==> golden regeneration gate (every golden re-simulated, cache off)"
# One writer (dsv_core::golden::golden) publishes every golden. Here each
# re-simulates and is rewritten at the default test threads, so tests
# sharing a golden (metamorphic loads the QBone sweep twice) regenerate
# and publish the same file concurrently.
DSV_REGEN=1 DSV_CACHE=off cargo test -q -p dsv-integration \
  --test paper_findings_qbone --test paper_findings_local \
  --test paper_findings_aggregate --test metamorphic \
  --test paper_findings_tcp_smoothing --test paper_findings_af_tcp
git diff --exit-code -- results/

echo "==> cluster contract gate (every point simulated on its own)"
# Exact clustering's contract is byte-identity with simulating every point
# on its own (Runner::serial). The ignored tests re-simulate Figures 7-9
# and the aggregate, AF-TCP and smoothing goldens behind Figures 16-18
# that way and require the committed bytes; the gates above regenerate
# the same grids clustered.
cargo test -q -p dsv-integration -p dsv-bench -- --ignored
git diff --exit-code -- results/

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
