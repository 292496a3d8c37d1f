//! The host-speed probe: a fixed workload owned by the benchmark, run
//! right after every timed sample so the sample can be rescaled to the
//! reference host's speed.
//!
//! The reference host is a guest with 2 vCPUs on a shared machine whose
//! speed drifts, for minutes at a time, to as little as half its calm
//! speed as neighbours load it (see README.md). A round and the probe
//! that follows it slow down together, so `secs × REF_S / probe`
//! holds still where the raw time does not. The probe is the
//! benchmark's own code, so no change to the engine moves it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The probe's wall time on the reference host in a calm stretch, s.
/// Rescaled times read as seconds on that host.
pub const REF_S: f64 = 0.040;

/// Chunks per probe. A probe an eighth this long (about 5 ms) paired
/// worse with the second-long `transport_tcp` rounds: their rescaled
/// spread between runs was 5.9% against 4.0%.
const CHUNKS: usize = 3072;

/// One chunk: a small ordered map built from hashed keys, each entry a
/// small heap allocation, then drained — the pointer-chasing,
/// allocating, branchy mix the simulator's event loop is made of.
fn chunk(seed: usize) -> u64 {
    let mut acc = seed as u64;
    let mut map = BTreeMap::new();
    for k in 0..256u64 {
        let key = (acc ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        acc = acc.rotate_left(7) ^ key;
        map.insert(key, vec![k as u8; 48]);
    }
    while let Some((k, v)) = map.pop_first() {
        acc = acc.wrapping_add(k ^ v.len() as u64);
    }
    acc
}

/// Wall time of one probe, s: [`CHUNKS`] chunks fanned over `threads`
/// threads through a shared counter, as the runner fans out its jobs.
pub fn time(threads: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= CHUNKS {
                    break;
                }
                black_box(chunk(i));
            });
        }
    });
    t0.elapsed().as_secs_f64()
}
