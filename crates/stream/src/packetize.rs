//! Packetization: turning encoded frames into wire chunks.
//!
//! Two server families differ here, and the paper shows the difference is
//! decisive:
//!
//! * **small-message servers** (Video Charger, WMT with reduced message
//!   size) write each frame as independent packets of at most one MTU —
//!   [`frame_chunks`];
//! * **large-datagram servers** (NetShow Theater, ThunderCastIP) write
//!   application datagrams of up to 16280 bytes which the host IP stack
//!   fragments into MTU packets — [`frame_datagrams`] — so that "the loss
//!   of even one packet at the policer would typically result in the loss
//!   of an entire datagram" (paper §4).

use dsv_media::frame::EncodedFrame;

use crate::payload::{HEADER_BYTES, MAX_PAYLOAD_BYTES};

/// The large-datagram servers' maximum application message size.
pub const LARGE_DATAGRAM_BYTES: u32 = 16_280;

/// One wire packet to be sent for a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Frame the chunk belongs to.
    pub frame_index: u32,
    /// Chunk ordinal within the frame.
    pub chunk: u16,
    /// Total chunks in this frame.
    pub chunks_in_frame: u16,
    /// Bytes on the wire (payload + headers).
    pub wire_bytes: u32,
    /// Identifier of the application datagram this chunk belongs to, for
    /// fragment-loss semantics (`None` for independent small messages).
    pub datagram: Option<u64>,
}

/// Number of MTU chunks needed for `payload_bytes` of media.
pub fn chunks_for(payload_bytes: u32) -> u16 {
    payload_bytes.div_ceil(MAX_PAYLOAD_BYTES).max(1) as u16
}

/// Split one frame into independent MTU-sized chunks (small-message
/// servers).
pub fn frame_chunks(frame: &EncodedFrame) -> Vec<ChunkSpec> {
    (0..chunks_for(frame.bytes))
        .map(|chunk| frame_chunk(frame, chunk))
        .collect()
}

/// Chunk number `chunk` of [`frame_chunks`]`(frame)`, without building the
/// others.
pub fn frame_chunk(frame: &EncodedFrame, chunk: u16) -> ChunkSpec {
    let remaining = frame.bytes - chunk as u32 * MAX_PAYLOAD_BYTES;
    let payload = remaining.min(MAX_PAYLOAD_BYTES);
    ChunkSpec {
        frame_index: frame.index,
        chunk,
        chunks_in_frame: chunks_for(frame.bytes),
        wire_bytes: payload + HEADER_BYTES,
        datagram: None,
    }
}

/// Split one frame into large application datagrams, each fragmented into
/// MTU packets by the host stack (large-datagram servers). `next_datagram`
/// supplies unique datagram ids and is advanced.
pub fn frame_datagrams(frame: &EncodedFrame, next_datagram: &mut u64) -> Vec<ChunkSpec> {
    let mut out = Vec::new();
    let mut remaining = frame.bytes;
    let n_total = chunks_for(frame.bytes);
    let mut chunk_no: u16 = 0;
    while remaining > 0 || chunk_no == 0 {
        let dgram_bytes = remaining.min(LARGE_DATAGRAM_BYTES);
        let dgram_id = *next_datagram;
        *next_datagram += 1;
        let mut left = dgram_bytes;
        loop {
            let payload = left.min(MAX_PAYLOAD_BYTES);
            out.push(ChunkSpec {
                frame_index: frame.index,
                chunk: chunk_no,
                chunks_in_frame: n_total,
                wire_bytes: payload + HEADER_BYTES,
                datagram: Some(dgram_id),
            });
            chunk_no += 1;
            left -= payload;
            if left == 0 {
                break;
            }
        }
        remaining -= dgram_bytes;
        if remaining == 0 {
            break;
        }
    }
    out
}

/// Cumulative byte offsets of each frame within the concatenated media
/// byte stream (used by the TCP transport to map delivered bytes back to
/// frames). Entry `i` is `(start, end)` of frame `i`.
pub fn byte_ranges(frames: &[EncodedFrame]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(frames.len());
    let mut off = 0u64;
    for f in frames {
        let end = off + f.bytes as u64;
        out.push((off, end));
        off = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::frame::FrameKind;

    fn frame(index: u32, bytes: u32) -> EncodedFrame {
        EncodedFrame {
            index,
            kind: FrameKind::P,
            bytes,
            fidelity: 1.0,
        }
    }

    #[test]
    fn small_frame_one_chunk() {
        let c = frame_chunks(&frame(5, 900));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].wire_bytes, 900 + HEADER_BYTES);
        assert_eq!(c[0].chunks_in_frame, 1);
        assert_eq!(c[0].datagram, None);
    }

    #[test]
    fn exact_multiple_boundary() {
        let c = frame_chunks(&frame(0, MAX_PAYLOAD_BYTES * 3));
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|x| x.wire_bytes == 1500));
    }

    #[test]
    fn chunk_sizes_sum_to_frame() {
        let f = frame(7, 7105);
        let c = frame_chunks(&f);
        let payload_sum: u32 = c.iter().map(|x| x.wire_bytes - HEADER_BYTES).sum();
        assert_eq!(payload_sum, f.bytes);
        // 7105 / 1472 = 4.83 -> 5 chunks.
        assert_eq!(c.len(), 5);
        for (i, x) in c.iter().enumerate() {
            assert_eq!(x.chunk as usize, i);
            assert_eq!(x.chunks_in_frame, 5);
        }
    }

    #[test]
    fn zero_byte_frame_still_one_chunk() {
        // Defensive: encoders floor sizes above zero, but packetizers must
        // not emit nothing for a frame.
        let c = frame_chunks(&frame(0, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn datagram_fragmentation_shares_ids() {
        let mut dg = 0u64;
        // An 18 kB I frame: two datagrams (16280 + 1720), 13 fragments.
        let c = frame_datagrams(&frame(0, 18_000), &mut dg);
        let payload_sum: u32 = c.iter().map(|x| x.wire_bytes - HEADER_BYTES).sum();
        assert_eq!(payload_sum, 18_000);
        assert_eq!(dg, 2);
        let d0: Vec<_> = c.iter().filter(|x| x.datagram == Some(0)).collect();
        let d1: Vec<_> = c.iter().filter(|x| x.datagram == Some(1)).collect();
        // 16280 / 1472 = 11.06 -> 12 fragments; 1720 -> 2 fragments.
        assert_eq!(d0.len(), 12);
        assert_eq!(d1.len(), 2);
        // Chunk ordinals are continuous across datagrams of the frame.
        for (i, x) in c.iter().enumerate() {
            assert_eq!(x.chunk as usize, i);
        }
    }

    #[test]
    fn small_frame_single_datagram() {
        let mut dg = 10u64;
        let c = frame_datagrams(&frame(3, 1200), &mut dg);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].datagram, Some(10));
        assert_eq!(dg, 11);
    }

    #[test]
    fn byte_ranges_are_contiguous() {
        let frames = vec![frame(0, 100), frame(1, 250), frame(2, 50)];
        let r = byte_ranges(&frames);
        assert_eq!(r, vec![(0, 100), (100, 350), (350, 400)]);
    }
}
