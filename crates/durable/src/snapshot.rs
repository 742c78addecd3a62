//! Binary fleet snapshots: the periodic full-state checkpoint the WAL tail
//! replays on top of.
//!
//! ## On-disk format
//!
//! A single file `snapshot.bin`, always written to a temp file first and
//! atomically renamed into place — a crash mid-snapshot leaves the previous
//! snapshot untouched, never a half-written one:
//!
//! ```text
//! [magic "PSOCSNP1"][body][crc: u32 over body]
//! body = version u32
//!        last_seq u64           — highest WAL seq folded into this state
//!        tick u64               — committed-tick counter at capture
//!        model_version u64      — registry version at capture (reporting
//!                                 only; versions restart at 1 on recovery)
//!        model_json bytes       — serde_json SocModel (f64-bit-exact)
//!        shards u64, micro_batch u64
//!        ekf flag u8 [+ CellParams JSON bytes]
//!        telemetry 5 × u64
//!        cell count u64 + fixed-width per-cell state, flattened in
//!            shard-major slot order (FleetEngine::export_cells order)
//!        extension count u32 + (name bytes, blob bytes) pairs
//! ```
//!
//! Extensions are named opaque blobs — the seam higher layers (the
//! adaptation engine's session state) persist through without this crate
//! depending on them.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use pinnsoc_battery::EkfState;
use pinnsoc_fleet::{CellPersist, TelemetryStats};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a snapshot file (format version in the suffix).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PSOCSNP1";

const FORMAT_VERSION: u32 = 1;

/// Snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Everything a snapshot captures.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Highest WAL sequence number folded into this state; replay skips
    /// records at or below it.
    pub last_seq: u64,
    /// Committed-tick counter at capture (monotonic across restarts).
    pub tick: u64,
    /// Registry version at capture. Reporting only: versions restart at 1
    /// on recovery (the counter is process-local by design).
    pub model_version: u64,
    /// The served model as `serde_json` bytes (JSON round-trips `f64`
    /// bit-exactly, so weights embed inside the CRC-protected binary
    /// envelope without a second binary codec).
    pub model_json: Vec<u8>,
    /// Engine shard count — replay must shard identically.
    pub shards: usize,
    /// Engine micro-batch size.
    pub micro_batch: usize,
    /// Engine-wide EKF fallback parameters as `serde_json` bytes, when the
    /// fallback was enabled.
    pub ekf_fallback_json: Option<Vec<u8>>,
    /// Cumulative telemetry books at capture.
    pub telemetry: TelemetryStats,
    /// Per-cell state in `FleetEngine::export_cells` order.
    pub cells: Vec<CellPersist>,
    /// Named opaque blobs from higher layers (adaptation session state).
    pub extensions: Vec<(String, Vec<u8>)>,
}

fn encode_cell(enc: &mut Enc<'_>, cell: &CellPersist) {
    enc.u64(cell.id);
    enc.f64(cell.capacity_ah);
    enc.f64(cell.time_s);
    enc.f64(cell.voltage_v);
    enc.f64(cell.current_a);
    enc.f64(cell.temperature_c);
    enc.u64(cell.reports);
    enc.f64(cell.net_time_s);
    enc.f64(cell.net_soc);
    enc.f64(cell.coulomb_soc);
    enc.f64(cell.coulomb_bias_a);
    match &cell.ekf {
        None => enc.u8(0),
        Some(state) => {
            enc.u8(1);
            enc.f64(state.x[0]);
            enc.f64(state.x[1]);
            enc.f64(state.p[0][0]);
            enc.f64(state.p[0][1]);
            enc.f64(state.p[1][0]);
            enc.f64(state.p[1][1]);
            enc.f64(state.q[0]);
            enc.f64(state.q[1]);
            enc.f64(state.r);
        }
    }
}

fn decode_cell(dec: &mut Dec<'_>) -> Option<CellPersist> {
    Some(CellPersist {
        id: dec.u64()?,
        capacity_ah: dec.f64()?,
        time_s: dec.f64()?,
        voltage_v: dec.f64()?,
        current_a: dec.f64()?,
        temperature_c: dec.f64()?,
        reports: dec.u64()?,
        net_time_s: dec.f64()?,
        net_soc: dec.f64()?,
        coulomb_soc: dec.f64()?,
        coulomb_bias_a: dec.f64()?,
        ekf: match dec.u8()? {
            0 => None,
            1 => Some(EkfState {
                x: [dec.f64()?, dec.f64()?],
                p: [[dec.f64()?, dec.f64()?], [dec.f64()?, dec.f64()?]],
                q: [dec.f64()?, dec.f64()?],
                r: dec.f64()?,
            }),
            _ => return None,
        },
    })
}

/// Encodes a complete snapshot file image (magic + body + CRC), built in
/// one buffer: the body is written straight after the magic and the CRC
/// is taken over it in place, so a lane never holds two images at once.
pub fn encode_snapshot(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        SNAPSHOT_MAGIC.len() + 128 + data.cells.len() * 96 + data.model_json.len() + 4,
    );
    out.extend_from_slice(SNAPSHOT_MAGIC);
    let mut enc = Enc(&mut out);
    enc.u32(FORMAT_VERSION);
    enc.u64(data.last_seq);
    enc.u64(data.tick);
    enc.u64(data.model_version);
    enc.bytes(&data.model_json);
    enc.u64(data.shards as u64);
    enc.u64(data.micro_batch as u64);
    match &data.ekf_fallback_json {
        None => enc.u8(0),
        Some(json) => {
            enc.u8(1);
            enc.bytes(json);
        }
    }
    enc.u64(data.telemetry.accepted);
    enc.u64(data.telemetry.duplicate_timestamp);
    enc.u64(data.telemetry.rejected_non_finite);
    enc.u64(data.telemetry.rejected_time_reversed);
    enc.u64(data.telemetry.unknown_cell);
    enc.u64(data.cells.len() as u64);
    for cell in &data.cells {
        encode_cell(&mut enc, cell);
    }
    enc.u32(data.extensions.len() as u32);
    for (name, blob) in &data.extensions {
        enc.bytes(name.as_bytes());
        enc.bytes(blob);
    }
    let checksum = crc32(&out[SNAPSHOT_MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a snapshot file image. `None` on any corruption: bad magic, bad
/// CRC, unknown format version, or a malformed body. Total and panic-free.
pub fn decode_snapshot(bytes: &[u8]) -> Option<SnapshotData> {
    let body_end = bytes.len().checked_sub(4)?;
    let (head, crc_bytes) = bytes.split_at(body_end);
    let body = head.strip_prefix(&SNAPSHOT_MAGIC[..])?;
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return None;
    }
    let mut dec = Dec::new(body);
    if dec.u32()? != FORMAT_VERSION {
        return None;
    }
    let last_seq = dec.u64()?;
    let tick = dec.u64()?;
    let model_version = dec.u64()?;
    let model_json = dec.bytes()?.to_vec();
    let shards = dec.u64()? as usize;
    let micro_batch = dec.u64()? as usize;
    let ekf_fallback_json = match dec.u8()? {
        0 => None,
        1 => Some(dec.bytes()?.to_vec()),
        _ => return None,
    };
    let telemetry = TelemetryStats {
        accepted: dec.u64()?,
        duplicate_timestamp: dec.u64()?,
        rejected_non_finite: dec.u64()?,
        rejected_time_reversed: dec.u64()?,
        unknown_cell: dec.u64()?,
    };
    let cell_count = dec.u64()? as usize;
    // The CRC already vouched for the byte count; this only guards the
    // allocation against a hand-crafted (CRC-consistent) absurd count.
    if cell_count > dec.remaining() / 12 + 1 {
        return None;
    }
    let mut cells = Vec::with_capacity(cell_count);
    for _ in 0..cell_count {
        cells.push(decode_cell(&mut dec)?);
    }
    let ext_count = dec.u32()? as usize;
    let mut extensions = Vec::with_capacity(ext_count.min(64));
    for _ in 0..ext_count {
        let name = std::str::from_utf8(dec.bytes()?).ok()?.to_string();
        let blob = dec.bytes()?.to_vec();
        extensions.push((name, blob));
    }
    (dec.remaining() == 0).then_some(SnapshotData {
        last_seq,
        tick,
        model_version,
        model_json,
        shards,
        micro_batch,
        ekf_fallback_json,
        telemetry,
        cells,
        extensions,
    })
}

/// Path of the live snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Writes `data` to `dir/snapshot.bin` via temp-write + rename, so the
/// previous snapshot stays valid until the new one fully exists.
pub fn write_snapshot(dir: &Path, data: &SnapshotData, fsync: bool) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let bytes = encode_snapshot(data);
    let tmp = dir.join(SNAPSHOT_TMP);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        if fsync {
            file.sync_data()?;
        }
    }
    fs::rename(&tmp, snapshot_path(dir))?;
    if fsync {
        // Persist the rename itself (the directory entry).
        File::open(dir)?.sync_data()?;
    }
    Ok(())
}

/// Reads and validates `dir/snapshot.bin`. `Ok(None)` when the file does
/// not exist or fails validation — recovery treats both as "no usable
/// snapshot".
pub fn read_snapshot(dir: &Path) -> std::io::Result<Option<SnapshotData>> {
    let path = snapshot_path(dir);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut file) => file.read_to_end(&mut bytes).map(|_| ())?,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err),
    }
    Ok(decode_snapshot(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        SnapshotData {
            last_seq: 42,
            tick: 7,
            model_version: 3,
            model_json: br#"{"label":"m"}"#.to_vec(),
            shards: 4,
            micro_batch: 64,
            ekf_fallback_json: Some(br#"{"capacity_ah":3.0}"#.to_vec()),
            telemetry: TelemetryStats {
                accepted: 10,
                duplicate_timestamp: 1,
                rejected_non_finite: 2,
                rejected_time_reversed: 3,
                unknown_cell: 4,
            },
            cells: vec![
                CellPersist {
                    id: 9,
                    capacity_ah: 3.0,
                    time_s: 120.0,
                    voltage_v: 3.6,
                    current_a: 1.5,
                    temperature_c: 26.0,
                    reports: 12,
                    net_time_s: 120.0,
                    net_soc: 0.81,
                    coulomb_soc: 0.79,
                    coulomb_bias_a: 0.0,
                    ekf: Some(EkfState {
                        x: [0.8, 0.01],
                        p: [[0.05, 0.0], [0.0, 1e-4]],
                        q: [1e-9, 1e-6],
                        r: 1e-4,
                    }),
                },
                CellPersist {
                    id: 10,
                    capacity_ah: 2.5,
                    time_s: 0.0,
                    voltage_v: 0.0,
                    current_a: 0.0,
                    temperature_c: 0.0,
                    reports: 0,
                    net_time_s: f64::NEG_INFINITY,
                    net_soc: 0.0,
                    coulomb_soc: 1.0,
                    coulomb_bias_a: 0.05,
                    ekf: Some(EkfState {
                        x: [1.0, 0.0],
                        p: [[0.05, 0.0], [0.0, 1e-4]],
                        q: [1e-9, 1e-6],
                        r: 1e-4,
                    }),
                },
            ],
            extensions: vec![("adapt".into(), vec![1, 2, 3])],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        assert_eq!(decode_snapshot(&bytes), Some(data));
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let bytes = encode_snapshot(&sample());
        let clean = decode_snapshot(&bytes).unwrap();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x04;
            if let Some(decoded) = decode_snapshot(&flipped) {
                // A flip inside the magic or CRC that still validates must
                // decode to the identical payload (impossible for CRC-32
                // over a single flip, but the assertion is the contract).
                assert_eq!(decoded, clean, "flip at byte {byte}");
            }
        }
    }

    /// `sample()`'s committed snapshot image: the encoder may change how
    /// it builds a file, never the bytes it writes.
    #[test]
    fn encoding_matches_the_committed_fixture() {
        #[rustfmt::skip]
        const IMAGE: [u8; 487] = [
            0x50, 0x53, 0x4f, 0x43, 0x53, 0x4e, 0x50, 0x31, 0x01, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x7b, 0x22, 0x6c, 0x61, 0x62, 0x65, 0x6c, 0x22,
            0x3a, 0x22, 0x6d, 0x22, 0x7d, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x13, 0x00, 0x00, 0x00, 0x7b, 0x22, 0x63, 0x61, 0x70, 0x61,
            0x63, 0x69, 0x74, 0x79, 0x5f, 0x61, 0x68, 0x22, 0x3a, 0x33, 0x2e, 0x30, 0x7d, 0x0a, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x5e, 0x40, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0x0c, 0x40, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3a, 0x40, 0x0c, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5e, 0x40, 0xec, 0x51, 0xb8,
            0x1e, 0x85, 0xeb, 0xe9, 0x3f, 0x48, 0xe1, 0x7a, 0x14, 0xae, 0x47, 0xe9, 0x3f, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f, 0x7b, 0x14,
            0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d, 0x43,
            0x1c, 0xeb, 0xe2, 0x36, 0x1a, 0x3f, 0x95, 0xd6, 0x26, 0xe8, 0x0b, 0x2e, 0x11, 0x3e, 0x8d, 0xed,
            0xb5, 0xa0, 0xf7, 0xc6, 0xb0, 0x3e, 0x2d, 0x43, 0x1c, 0xeb, 0xe2, 0x36, 0x1a, 0x3f, 0x0a, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xff, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x9a, 0x99,
            0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d,
            0x43, 0x1c, 0xeb, 0xe2, 0x36, 0x1a, 0x3f, 0x95, 0xd6, 0x26, 0xe8, 0x0b, 0x2e, 0x11, 0x3e, 0x8d,
            0xed, 0xb5, 0xa0, 0xf7, 0xc6, 0xb0, 0x3e, 0x2d, 0x43, 0x1c, 0xeb, 0xe2, 0x36, 0x1a, 0x3f, 0x01,
            0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x61, 0x64, 0x61, 0x70, 0x74, 0x03, 0x00, 0x00, 0x00,
            0x01, 0x02, 0x03, 0xf3, 0x51, 0x33, 0x11,
        ];
        assert_eq!(encode_snapshot(&sample()), IMAGE);
        assert_eq!(decode_snapshot(&IMAGE), Some(sample()));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert_eq!(decode_snapshot(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn write_read_through_temp_rename() {
        let dir = std::env::temp_dir().join(format!("pinnsoc_snap_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(read_snapshot(&dir).ok(), Some(None), "missing dir is None");
        let data = sample();
        write_snapshot(&dir, &data, false).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(data.clone()));
        // A stale temp file (crash mid-snapshot) never shadows the live one.
        fs::write(dir.join(SNAPSHOT_TMP), b"partial garbage").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(data));
        fs::remove_dir_all(&dir).unwrap();
    }
}
