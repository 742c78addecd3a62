//! Adversarial property tests for the WAL reader: against arbitrary
//! truncation, bit flips, duplicated frames, and raw garbage, the reader
//! never panics, never yields a record that was not written, and always
//! recovers the longest valid prefix the damage allows.
//!
//! Records are compared by their encoded frames, not `PartialEq` — the
//! strategies generate telemetry from raw bit patterns (NaNs included),
//! and the contract is bit-exactness.
//!
//! Each property runs twice: on segments framed one record per frame,
//! and on segments framed the way the writer frames them, with runs of
//! reports coalesced into batch frames. A batch is all or nothing: damage
//! anywhere in it drops every report it carries, never some of them.

use pinnsoc_durable::{encode_record, encode_records, read_segment, WalOp, WalRecord, WAL_MAGIC};
use pinnsoc_fleet::Telemetry;
use proptest::prelude::*;

fn any_report() -> impl Strategy<Value = WalOp> {
    (
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
    )
        .prop_map(|(id, t, v, c, temp)| WalOp::Report {
            id,
            // From-bits floats: the codec must round-trip ANY payload,
            // including NaNs and infinities, bit-exactly.
            telemetry: Telemetry {
                time_s: f64::from_bits(t),
                voltage_v: f64::from_bits(v),
                current_a: f64::from_bits(c),
                temperature_c: f64::from_bits(temp),
            },
        })
}

fn any_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        (0u64..=u64::MAX, 0.0f64..=1.0, 0.1f64..100.0).prop_map(
            |(id, initial_soc, capacity_ah)| WalOp::Register {
                id,
                initial_soc,
                capacity_ah,
            }
        ),
        (0u64..=u64::MAX).prop_map(|id| WalOp::Deregister { id }),
        any_report(),
        (0u64..=u64::MAX).prop_map(|tick| WalOp::Commit { tick }),
        // Variable-width records: arbitrary binary blobs under arbitrary
        // (possibly empty, possibly non-ASCII) names.
        (
            collection::vec(0u8..=255, 0usize..12),
            collection::vec(0u8..=255, 0usize..96),
        )
            .prop_map(|(name, blob)| WalOp::Extension {
                name: String::from_utf8_lossy(&name).into_owned(),
                blob,
            }),
    ]
}

fn any_segment() -> impl Strategy<Value = (Vec<WalRecord>, Vec<u8>)> {
    collection::vec(any_op(), 0usize..24).prop_map(|ops| {
        let records: Vec<WalRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| WalRecord {
                seq: i as u64 + 1,
                op,
            })
            .collect();
        let mut bytes = WAL_MAGIC.to_vec();
        for record in &records {
            encode_record(&mut bytes, record);
        }
        (records, bytes)
    })
}

/// Numbers `ops` from seq 1, as a writer opened at seq 1 would.
fn numbered(ops: Vec<WalOp>) -> Vec<WalRecord> {
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| WalRecord {
            seq: i as u64 + 1,
            op,
        })
        .collect()
}

/// A segment framed by the writer's coalescing path: runs of 1–40
/// reports between other ops, each run one batch frame.
fn any_batched_segment() -> impl Strategy<Value = (Vec<WalRecord>, Vec<u8>)> {
    let group = prop_oneof![
        any_op().prop_map(|op| vec![op]),
        collection::vec(any_report(), 1usize..=40),
    ];
    collection::vec(group, 0usize..10).prop_map(|groups| {
        let records = numbered(groups.into_iter().flatten().collect());
        let mut bytes = WAL_MAGIC.to_vec();
        encode_records(&mut bytes, &records);
        (records, bytes)
    })
}

/// One frame of an encoded segment: its byte range and how many records
/// it carries (a batch's `count`, else 1).
struct Frame {
    start: usize,
    end: usize,
    records: usize,
}

/// Splits a well-formed segment into its frames.
fn frames_of(bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut start = WAL_MAGIC.len();
    while start < bytes.len() {
        let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
        let payload = &bytes[start + 8..start + 8 + len];
        let records = if payload[0] == 6 {
            u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize
        } else {
            1
        };
        frames.push(Frame {
            start,
            end: start + 8 + len,
            records,
        });
        start += 8 + len;
    }
    frames
}

/// Records carried by the frames that end at or before `offset`, and the
/// byte where the last of them ends.
fn whole_frames_before(frames: &[Frame], offset: usize) -> (usize, usize) {
    frames
        .iter()
        .take_while(|f| f.end <= offset)
        .fold((0, WAL_MAGIC.len()), |(records, _), f| {
            (records + f.records, f.end)
        })
}

fn frame(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&mut out, record);
    out
}

/// Scales a sampled unit fraction onto `0..len` (`len > 0`).
fn index(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

/// Bit-exact prefix check: every yielded record re-encodes to the frame of
/// the original at the same position.
fn assert_is_prefix(read: &[WalRecord], written: &[WalRecord]) {
    assert!(read.len() <= written.len(), "reader invented records");
    for (i, (got, want)) in read.iter().zip(written).enumerate() {
        assert_eq!(frame(got), frame(want), "record {i} not bit-identical");
    }
}

proptest! {
    /// Truncation at an arbitrary offset: the reader yields a bit-exact
    /// record prefix and refuses exactly the bytes past it.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        (records, bytes) in any_segment(),
        frac in 0.0f64..1.0,
    ) {
        let cut = index(frac, bytes.len() + 1);
        let read = read_segment(&bytes[..cut]);
        assert_is_prefix(&read.records, &records);
        let consumed: usize =
            WAL_MAGIC.len() + read.records.iter().map(|r| frame(r).len()).sum::<usize>();
        if cut == bytes.len() {
            prop_assert_eq!(read.records.len(), records.len());
            prop_assert_eq!(read.truncated_bytes, 0);
        } else if cut < WAL_MAGIC.len() {
            prop_assert_eq!(read.records.len(), 0);
            prop_assert_eq!(read.truncated_bytes, cut as u64);
        } else {
            prop_assert_eq!(read.truncated_bytes, (cut - consumed) as u64);
        }
    }

    /// A single flipped bit anywhere in the file: never a panic, never a
    /// corrupt record — only a (possibly shorter) bit-exact prefix.
    #[test]
    fn single_bit_flip_never_yields_a_corrupt_record(
        (records, bytes) in any_segment(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut damaged = bytes.clone();
        let pos = index(frac, damaged.len());
        damaged[pos] ^= 1 << bit;
        let read = read_segment(&damaged);
        if pos < WAL_MAGIC.len() {
            prop_assert_eq!(read.records.len(), 0, "bad magic must refuse the whole file");
            prop_assert_eq!(read.truncated_bytes, damaged.len() as u64);
        } else {
            assert_is_prefix(&read.records, &records);
        }
    }

    /// Duplicated frames (a retried write) decode as duplicates — the
    /// reader is frame-faithful; replay's monotonic-seq filter upstream
    /// handles the rest.
    #[test]
    fn duplicated_frames_are_yielded_verbatim(
        (records, bytes) in any_segment(),
        frac in 0.0f64..1.0,
    ) {
        if !records.is_empty() {
            let dup = index(frac, records.len());
            let mut doubled = bytes.clone();
            encode_record(&mut doubled, &records[dup]);
            let read = read_segment(&doubled);
            prop_assert_eq!(read.records.len(), records.len() + 1);
            assert_is_prefix(&read.records[..records.len()], &records);
            prop_assert_eq!(
                frame(&read.records[records.len()]),
                frame(&records[dup]),
                "the duplicate decodes bit-identically"
            );
            prop_assert_eq!(read.truncated_bytes, 0);
        }
    }

    /// Raw garbage after the magic: no panic, and decode + truncation fully
    /// account for the input.
    #[test]
    fn arbitrary_garbage_never_panics(noise in collection::vec(0u8..=255, 0usize..512)) {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&noise);
        let read = read_segment(&bytes);
        let consumed: usize = read.records.iter().map(|r| frame(r).len()).sum();
        prop_assert_eq!(consumed + read.truncated_bytes as usize, noise.len());
    }
}

/// A `PSOCWAL1` segment as the version-1 writer framed it — one frame per
/// record, reports included — reads back to the same records, and
/// [`encode_record`] still produces those frames byte for byte.
#[test]
fn version_1_fixture_reads_to_the_same_records() {
    #[rustfmt::skip]
    const SEGMENT: [u8; 243] = [
        0x50, 0x53, 0x4f, 0x43, 0x57, 0x41, 0x4c, 0x31, 0x21, 0x00, 0x00, 0x00, 0xed, 0x65, 0x20, 0xc5,
        0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
        0x40, 0x31, 0x00, 0x00, 0x00, 0x91, 0xe9, 0x06, 0x65, 0x03, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xf0, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0x0d, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xf8, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x40, 0x31, 0x00, 0x00, 0x00, 0xe6, 0xdb,
        0x55, 0xa2, 0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc,
        0xcc, 0x0c, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x38, 0x40, 0x11, 0x00, 0x00, 0x00, 0x6b, 0x9a, 0x7c, 0xa2, 0x04, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00,
        0x7a, 0x0c, 0x73, 0x8a, 0x05, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x61, 0x64, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x11, 0x00, 0x00, 0x00, 0x87, 0x01,
        0x87, 0x44, 0x02, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00,
    ];
    let report = |seq, id, time_s, voltage_v, current_a, temperature_c| WalRecord {
        seq,
        op: WalOp::Report {
            id,
            telemetry: Telemetry {
                time_s,
                voltage_v,
                current_a,
                temperature_c,
            },
        },
    };
    let records = vec![
        WalRecord {
            seq: 1,
            op: WalOp::Register {
                id: 7,
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        },
        report(2, 7, 1.0, 3.7, -1.5, 25.0),
        report(3, 9, 2.0, 3.6, 0.5, 24.0),
        WalRecord {
            seq: 4,
            op: WalOp::Commit { tick: 1 },
        },
        WalRecord {
            seq: 5,
            op: WalOp::Extension {
                name: "ad".into(),
                blob: vec![1, 2, 3],
            },
        },
        WalRecord {
            seq: 6,
            op: WalOp::Deregister { id: 7 },
        },
    ];
    let read = read_segment(&SEGMENT);
    assert_eq!(read.records, records);
    assert_eq!(read.truncated_bytes, 0);
    let mut framed = b"PSOCWAL1".to_vec();
    for record in &records {
        encode_record(&mut framed, record);
    }
    assert_eq!(framed, SEGMENT);
}

proptest! {
    /// Truncation of a batched segment: the reader yields exactly the
    /// records of the whole frames before the cut — a cut inside a batch
    /// drops all of it — and refuses exactly the bytes past them.
    #[test]
    fn batched_truncation_drops_whole_frames(
        (records, bytes) in any_batched_segment(),
        frac in 0.0f64..1.0,
    ) {
        let cut = index(frac, bytes.len() + 1);
        let read = read_segment(&bytes[..cut]);
        assert_is_prefix(&read.records, &records);
        if cut < WAL_MAGIC.len() {
            prop_assert_eq!(read.records.len(), 0);
            prop_assert_eq!(read.truncated_bytes, cut as u64);
        } else {
            let (whole, consumed) = whole_frames_before(&frames_of(&bytes), cut);
            prop_assert_eq!(read.records.len(), whole);
            prop_assert_eq!(read.truncated_bytes, (cut - consumed) as u64);
        }
    }

    /// A single flipped bit in a batched segment ends the log at the frame
    /// it hit: every frame before it reads, nothing of it or after it does.
    #[test]
    fn batched_bit_flip_drops_the_hit_frame_whole(
        (records, bytes) in any_batched_segment(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut damaged = bytes.clone();
        let pos = index(frac, damaged.len());
        damaged[pos] ^= 1 << bit;
        let read = read_segment(&damaged);
        if pos < WAL_MAGIC.len() {
            prop_assert_eq!(read.records.len(), 0, "bad magic must refuse the whole file");
            prop_assert_eq!(read.truncated_bytes, damaged.len() as u64);
        } else {
            let frames = frames_of(&bytes);
            let hit = frames.iter().position(|f| f.start <= pos && pos < f.end).unwrap();
            let before: usize = frames[..hit].iter().map(|f| f.records).sum();
            assert_is_prefix(&read.records, &records);
            prop_assert_eq!(read.records.len(), before);
            prop_assert_eq!(read.truncated_bytes, (bytes.len() - frames[hit].start) as u64);
        }
    }

    /// A duplicated batch frame decodes as its reports again, under their
    /// original sequence numbers, for replay's seq filter to drop.
    #[test]
    fn batched_duplicated_frames_are_yielded_verbatim(
        (records, bytes) in any_batched_segment(),
        frac in 0.0f64..1.0,
    ) {
        let frames = frames_of(&bytes);
        if !frames.is_empty() {
            let dup = &frames[index(frac, frames.len())];
            let first = whole_frames_before(&frames, dup.start).0;
            let mut doubled = bytes.clone();
            doubled.extend_from_slice(&bytes[dup.start..dup.end]);
            let read = read_segment(&doubled);
            prop_assert_eq!(read.records.len(), records.len() + dup.records);
            assert_is_prefix(&read.records[..records.len()], &records);
            assert_is_prefix(
                &read.records[records.len()..],
                &records[first..first + dup.records],
            );
            prop_assert_eq!(read.truncated_bytes, 0);
        }
    }

    /// Raw garbage after a batched segment: no panic, every written record
    /// still reads, and exactly the garbage is refused.
    #[test]
    fn batched_segment_with_garbage_tail_never_panics(
        (records, bytes) in any_batched_segment(),
        noise in collection::vec(0u8..=255, 0usize..512),
    ) {
        let mut noisy = bytes.clone();
        noisy.extend_from_slice(&noise);
        let read = read_segment(&noisy);
        assert_is_prefix(&read.records, &records);
        prop_assert_eq!(read.records.len(), records.len());
        prop_assert_eq!(read.truncated_bytes, noise.len() as u64);
    }
}
