//! Shared sweep artifacts: memoized, thread-safe stores for everything a
//! grid point rebuilds but that only depends on a *subset* of its config.
//!
//! Every figure is a sweep where only the EF profile `(token_rate,
//! bucket_depth)` varies, yet the scene model depends only on the clip,
//! an encoding only on `(clip, rate)`, and the reference feature stream
//! only on `(clip, codec, rate)`. Design decision 4 makes every run a
//! pure function of its config, so these artifacts are pure functions of
//! their keys — computing each **exactly once per process** and sharing
//! the result via `Arc` across all `rates × depths` points (and across
//! parallel workers) cannot change a single output byte.
//!
//! The paced server's [`PacingPlan`] is one of them: which ticks send,
//! counted from `Play`, and how many packets each releases. The server
//! ignores feedback and paces with fixed parameters, so its plan is a
//! function of the encoding alone and is memoized under the encoding's
//! key. Every QBone and aggregate point of one encoding replays the one
//! plan; no point re-runs the pacer, and the packets sent, their instants
//! and the events that send them are exactly those of a server pacing
//! live (DESIGN.md §6b, "Paced servers wake only to send").
//!
//! The VQM reference of an encoding is another: a [`Reference`], the
//! decoded feature stream with one empty cell per VQM segment for that
//! segment's score against the reference itself. A session that leaves a
//! segment intact (its scoring window bit-identical to the reference's)
//! takes that score, and the first such session fills the cell, so every
//! point, flow and thread of a class shares the self-scores as it shares
//! the frames. Fetching a reference builds the frames once and scores no
//! segment (DESIGN.md §12, "The shared reference").
//!
//! The keying rule is the same as the runner's result cache: **the
//! address is the config fields the artifact depends on**. There is no
//! other invalidation — a key change is a different artifact, and code
//! changes require a process restart (just like `results/cache/` requires
//! a `DSV_CACHE=0` rerun after simulator changes).
//!
//! Sharing is always on. The per-key build counters ([`encode_runs`],
//! [`plan_runs`]) are always on too, so tests can assert the at-most-once
//! property; a cold store in a warm process, plans included, is one
//! [`clear`] away.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use dsv_media::encoder::{mpeg1, wmv, EncodedClip};
use dsv_media::features::FeatureFrame;
use dsv_media::scene::{ClipId, SceneModel};
use dsv_stream::server::paced::PacingPlan;
use dsv_vqm::{Reference, Vqm};

use crate::experiment::encoded_features;

/// Which encoder produced an artifact (part of the memo key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// The CBR MPEG-1 encoder (QBone/AF testbeds).
    Mpeg1,
    /// The capped WMV encoder (local testbed).
    Wmv,
}

/// One memo cell: workers asking for an in-flight key block on the
/// `OnceLock` instead of racing duplicate computations — this is what
/// makes the "encodes at most once" property deterministic rather than
/// best-effort.
type MemoCell<V> = Arc<OnceLock<Arc<V>>>;

/// A memoized, thread-safe `key -> Arc<value>` store. The map is
/// `Option`-wrapped because `HashMap::new` is not `const`.
struct Memo<K, V> {
    map: Mutex<Option<HashMap<K, MemoCell<V>>>>,
}

impl<K: std::hash::Hash + Eq + Clone, V> Memo<K, V> {
    const fn new() -> Memo<K, V> {
        Memo {
            map: Mutex::new(None),
        }
    }

    fn get_or(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut map = self.map.lock().expect("artifact store poisoned");
            map.get_or_insert_with(HashMap::new)
                .entry(key)
                .or_default()
                .clone()
        };
        cell.get_or_init(|| Arc::new(compute())).clone()
    }

    fn clear(&self) {
        *self.map.lock().expect("artifact store poisoned") = None;
    }
}

static MODELS: Memo<ClipId, SceneModel> = Memo::new();
static SOURCE_FEATURES: Memo<ClipId, Vec<FeatureFrame>> = Memo::new();
static ENCODINGS: Memo<EncodeKey, EncodedClip> = Memo::new();
static PLANS: Memo<EncodeKey, PacingPlan> = Memo::new();
static REFERENCES: Memo<EncodeKey, Reference> = Memo::new();

/// Key identifying one encoding: `(clip, codec, rate_bps)`.
type EncodeKey = (ClipId, Codec, u64);

/// Cumulative number of times each key's artifact was actually computed
/// (not served from the store). Test instrumentation for the
/// at-most-once property; never reset.
struct Runs(Mutex<Option<HashMap<EncodeKey, u64>>>);

impl Runs {
    const fn new() -> Runs {
        Runs(Mutex::new(None))
    }

    fn count(&self, key: EncodeKey) {
        let mut runs = self.0.lock().expect("build counter poisoned");
        *runs
            .get_or_insert_with(HashMap::new)
            .entry(key)
            .or_insert(0) += 1;
    }

    fn get(&self, key: EncodeKey) -> u64 {
        self.0
            .lock()
            .expect("build counter poisoned")
            .as_ref()
            .and_then(|m| m.get(&key).copied())
            .unwrap_or(0)
    }
}

static ENCODE_RUNS: Runs = Runs::new();
static PLAN_RUNS: Runs = Runs::new();

/// How many times `(clip, codec, rate)` was encoded from scratch in this
/// process: at most 1 per key until a [`clear`].
pub fn encode_runs(clip: ClipId, codec: Codec, rate_bps: u64) -> u64 {
    ENCODE_RUNS.get((clip, codec, rate_bps))
}

/// How many times the pacing plan of `(clip, codec, rate)` was built from
/// scratch in this process: at most 1 per key until a [`clear`].
pub fn plan_runs(clip: ClipId, codec: Codec, rate_bps: u64) -> u64 {
    PLAN_RUNS.get((clip, codec, rate_bps))
}

/// Drop every memoized artifact (the counters survive). The benchmark
/// uses this to measure a cold store in a warm process.
pub fn clear() {
    MODELS.clear();
    SOURCE_FEATURES.clear();
    ENCODINGS.clear();
    PLANS.clear();
    REFERENCES.clear();
}

/// The scene model for a clip (depends on: clip).
pub fn model(clip: ClipId) -> Arc<SceneModel> {
    MODELS.get_or(clip, || clip.model())
}

/// The per-frame source features of a clip (depends on: clip).
pub fn source_features(clip: ClipId) -> Arc<Vec<FeatureFrame>> {
    let m = model(clip);
    SOURCE_FEATURES.get_or(clip, || m.source_features())
}

/// An encoding of `clip` at `rate_bps` (depends on: clip, codec, rate).
pub fn encoding(clip: ClipId, codec: Codec, rate_bps: u64) -> Arc<EncodedClip> {
    let m = model(clip);
    ENCODINGS.get_or((clip, codec, rate_bps), || {
        ENCODE_RUNS.count((clip, codec, rate_bps));
        match codec {
            Codec::Mpeg1 => mpeg1::encode(&m, rate_bps),
            Codec::Wmv => wmv::encode(&m, rate_bps),
        }
    })
}

/// The paced server's plan for an encoding of `clip` at `rate_bps`
/// (depends on: clip, codec, rate).
pub fn paced_plan(clip: ClipId, codec: Codec, rate_bps: u64) -> Arc<PacingPlan> {
    let enc = encoding(clip, codec, rate_bps);
    PLANS.get_or((clip, codec, rate_bps), || {
        PLAN_RUNS.count((clip, codec, rate_bps));
        PacingPlan::new(&enc)
    })
}

/// The memoized artifact store, as the scenario compiler's clip
/// resolver: every `MediaRef` in a [`dsv_scenario::ScenarioSpec`] lowers
/// through [`encoding`], and every paced server through [`paced_plan`],
/// so compiling a spec costs nothing beyond the first (shared) encode
/// and plan of each `(clip, codec, rate)` key.
pub struct ArtifactStore;

impl dsv_scenario::ClipStore for ArtifactStore {
    fn encoding(
        &self,
        clip: dsv_scenario::ClipId2,
        codec: dsv_scenario::CodecSpec,
        rate_bps: u64,
    ) -> Arc<EncodedClip> {
        encoding(clip.into(), codec.into(), rate_bps)
    }

    fn paced_plan(
        &self,
        clip: dsv_scenario::ClipId2,
        codec: dsv_scenario::CodecSpec,
        rate_bps: u64,
    ) -> Arc<PacingPlan> {
        paced_plan(clip.into(), codec.into(), rate_bps)
    }
}

impl From<dsv_scenario::CodecSpec> for Codec {
    fn from(codec: dsv_scenario::CodecSpec) -> Codec {
        match codec {
            dsv_scenario::CodecSpec::Mpeg1 => Codec::Mpeg1,
            dsv_scenario::CodecSpec::Wmv => Codec::Wmv,
        }
    }
}

/// The decoded feature stream of an encoding — the VQM reference for that
/// encoding (depends on: clip, codec, rate), as a [`Reference`] that
/// dereferences to its frames. Every point, flow and thread scored
/// against one encoding shares it, and with it each segment's score
/// against the reference itself: computed the first time a session
/// leaves that segment intact, never when the reference is fetched. The
/// `score_vs_best` runs share the 1.7 Mbps one the same way.
pub fn reference_features(clip: ClipId, codec: Codec, rate_bps: u64) -> Arc<Reference> {
    let m = model(clip);
    let enc = encoding(clip, codec, rate_bps);
    REFERENCES.get_or((clip, codec, rate_bps), || {
        Reference::new(Vqm::default(), encoded_features(&m, &enc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_the_same_arc() {
        let a = encoding(ClipId::Talk, Codec::Mpeg1, 777_001);
        let b = encoding(ClipId::Talk, Codec::Mpeg1, 777_001);
        assert!(Arc::ptr_eq(&a, &b), "shared artifacts are one allocation");
        assert_eq!(encode_runs(ClipId::Talk, Codec::Mpeg1, 777_001), 1);
    }

    #[test]
    fn shared_artifacts_match_direct_computation() {
        let m = ClipId::Talk.model();
        let direct = mpeg1::encode(&m, 1_050_003);
        let shared = encoding(ClipId::Talk, Codec::Mpeg1, 1_050_003);
        assert_eq!(shared.frames.len(), direct.frames.len());
        for (a, b) in shared.frames.iter().zip(&direct.frames) {
            assert_eq!(a.bytes, b.bytes);
            assert!((a.fidelity - b.fidelity).abs() == 0.0, "bit-identical");
        }
        let direct_ref = encoded_features(&m, &direct);
        let shared_ref = reference_features(ClipId::Talk, Codec::Mpeg1, 1_050_003);
        assert_eq!(direct_ref.len(), shared_ref.len());
        for (a, b) in shared_ref.iter().zip(&direct_ref) {
            assert_eq!(a.si.to_bits(), b.si.to_bits());
            assert_eq!(a.ti.to_bits(), b.ti.to_bits());
        }
    }

    #[test]
    fn models_and_features_are_shared() {
        assert!(Arc::ptr_eq(&model(ClipId::Lost), &model(ClipId::Lost)));
        let f = source_features(ClipId::Lost);
        assert_eq!(f.len(), 2150);
        assert!(Arc::ptr_eq(&f, &source_features(ClipId::Lost)));
    }
}
