//! Content-address keys shared by the result cache and the cluster
//! layer.
//!
//! A grid point's identity is one string: `{"spec": …, "scoring": …}`
//! over the **canonical** (symmetry-normal, see
//! [`dsv_scenario::canonicalize`]) JSON of its compiled scenario spec
//! plus the scoring parameters that shape the outcome but live outside
//! the topology. The persistent result cache addresses files by an
//! FNV-1a hash of that string, and the exact clustering mode partitions
//! a grid by the very same string — factored here so the two identities
//! cannot silently fork: if two points share a cache entry they are in
//! one cluster class, and vice versa.
//!
//! Keying on the canonical form means two specs that are mere
//! relabellings of each other (names, flow labels, rotated symmetric
//! pairs) hit one cache entry. That is only sound because cached
//! outcomes are stored in canonical flow order and transplanted back
//! through each requester's flow map — see `crate::runner`.

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use dsv_scenario::{canonicalize, ScenarioSpec};

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a content-addressed filename needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash over more bytes: hashing two slices in turn
/// equals hashing their concatenation.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The canonical address JSON, `{"spec": …, "scoring": …}`, written
/// straight from the borrowed spec: no [`Value`] tree is built for it.
/// Field order is declaration order (the vendored serde emits object
/// fields in the order given), so the bytes are stable across runs and
/// platforms.
pub fn address_json(spec: &impl Serialize, scoring: &Value) -> String {
    // Room for a single-flow address (about 2.5 KB) in one allocation,
    // trimmed after: a batch holds every address until it ends.
    let mut json = String::with_capacity(4096);
    serde::write_object(&[("spec", spec), ("scoring", scoring)], &mut json);
    json.shrink_to_fit();
    json
}

/// [`address_json`] over a spec tree: the reference form, byte-identical
/// to the address streamed from the typed spec the tree came from.
pub fn cache_address(spec: Value, scoring: Value) -> String {
    address_json(&spec, &scoring)
}

/// The address of a grid point: the spec's **symmetry-normal form** plus
/// its scoring parameters. This is both the cache identity and the
/// exact-cluster identity.
pub fn canonical_address(spec: &ScenarioSpec, scoring: Value) -> String {
    address_json(&canonicalize(spec).spec, &scoring)
}

/// The content-addressed cache path for `(kind, address)`: the FNV-1a
/// hash of `kind`, a NUL byte and `address`.
pub fn cache_path(dir: &Path, kind: &str, address: &str) -> PathBuf {
    let h = [kind.as_bytes(), b"\0", address.as_bytes()]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a64_extend);
    dir.join(format!("{kind}-{h:016x}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_scenario::{AppSpec, LinkParams, LinkSpec, NodeSpec};
    use serde::Num;

    #[test]
    fn fnv_matches_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_path_hashes_kind_nul_address() {
        // The file name hashes the concatenation `kind ‖ 0 ‖ address`,
        // however the hash is fed: every cache file on disk depends on it.
        let dir = Path::new("cache");
        assert_eq!(
            cache_path(dir, "qbone", r#"{"spec":1}"#),
            dir.join(format!(
                "qbone-{:016x}.json",
                fnv1a64(b"qbone\0{\"spec\":1}")
            ))
        );
    }

    #[test]
    fn address_bytes_are_pinned() {
        // The exact address string is load-bearing: cache files on disk
        // and cluster classes both key on it, so field order and number
        // formatting may never drift. This pins the full bytes of a
        // small address; if this test breaks, every cached entry is
        // orphaned and cluster identity has changed — that must be a
        // deliberate, documented decision.
        let mut spec = ScenarioSpec::new("pinned", 7);
        spec.nodes.push(NodeSpec::host("sink", AppSpec::IdSink));
        spec.horizon_ns = Some(5_000_000_000);
        let scoring = Value::Object(vec![
            ("encoding_bps".to_string(), Value::Num(Num::U(1_500_000))),
            ("clip_fraction".to_string(), Value::Num(Num::F(0.88))),
            ("score_vs_best".to_string(), Value::Bool(false)),
        ]);
        let addr = canonical_address(&spec, scoring);
        assert_eq!(
            addr,
            concat!(
                r#"{"spec":{"name":"","seed":7,"nodes":[{"name":"n0","app":{"kind":"id_sink"}}],"#,
                r#""links":[],"conditioners":[],"bounds":[],"horizon_ns":5000000000},"#,
                r#""scoring":{"encoding_bps":1500000,"clip_fraction":0.88,"score_vs_best":false}}"#
            )
        );
    }

    #[test]
    fn float_formatting_is_shortest_round_trip() {
        // Rust's `Display` for f64 is shortest-round-trip; the address
        // relies on it so equal floats always print equal bytes.
        for (v, expect) in [
            (0.5f64, "0.5"),
            (0.88, "0.88"),
            (1.0, "1.0"),
            (0.1 + 0.2, "0.30000000000000004"),
        ] {
            let s = serde_json::to_string(&Value::Num(Num::F(v))).unwrap();
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn relabelled_specs_share_an_address_and_a_cache_path() {
        let mk = |node: &str, sink: &str| {
            let mut s = ScenarioSpec::new(node, 7);
            s.nodes.push(NodeSpec::host(sink, AppSpec::IdSink));
            s.nodes.push(NodeSpec::host(
                "tx",
                AppSpec::Pump {
                    dst: sink.to_string(),
                    flow: 1,
                    count: 1,
                    size: 100,
                    gap_ns: 1,
                },
            ));
            s.links
                .push(LinkSpec::simple("tx", sink, LinkParams::fast_ethernet()));
            s
        };
        let a = canonical_address(&mk("a", "sink"), Value::Null);
        let b = canonical_address(&mk("b", "rx"), Value::Null);
        assert_eq!(a, b);
        let dir = Path::new("/tmp");
        assert_eq!(cache_path(dir, "k", &a), cache_path(dir, "k", &b));
        assert_ne!(cache_path(dir, "k", &a), cache_path(dir, "other", &a));
    }
}
