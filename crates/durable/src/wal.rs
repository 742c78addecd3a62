//! The write-ahead log: checksummed, length-prefixed frames in rotating
//! segment files.
//!
//! ## On-disk format (version 2)
//!
//! Each segment file `wal-<n>.log` starts with the 8-byte magic
//! `PSOCWAL2`, followed by frames:
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]
//! payload = [op: u8][seq: u64][body…]               one record
//!         | [6: u8][first_seq: u64][count: u32]     a report batch
//!           [report body: 40 bytes] × count
//! report body = [id: u64][time_s][voltage_v][current_a][temperature_c]
//!               (each f64 as its little-endian bits)
//! ```
//!
//! `crc` is the CRC-32 of the payload. `seq` is a monotonic record counter
//! spanning segments and restarts. A **report batch** carries `count`
//! reports under one frame and one CRC, row-major: each 40-byte body is
//! exactly a single `Report` body. The batch's reports keep their own
//! sequence numbers, `first_seq + k` for the `k`-th, so the reader
//! expands a batch into the same [`WalRecord`]s one frame per report
//! would give, and replay's duplicate filter, the snapshot's `last_seq`
//! horizon and the dropped-record count see no difference.
//!
//! [`WalWriter::flush`] coalesces every run of consecutive reports into
//! batches of at most [`MAX_BATCH_REPORTS`] (so a payload never exceeds
//! [`MAX_RECORD_BYTES`]) and frames every other op on its own. Version-1
//! segments (`PSOCWAL1`, one frame per report) still read; the writer
//! never produces them.
//!
//! The reader is corruption-tolerant by construction: a frame whose
//! length overruns the file, whose CRC mismatches, whose op byte is
//! unknown, or whose body is the wrong width ends the log right there —
//! **truncate at first bad frame** — and the valid prefix before it is
//! returned untouched. A batch is strict on top of that: `count ≥ 1`, a
//! body of exactly `count × 40` bytes, and a seq range
//! `first_seq ..= first_seq + count − 1` that does not overflow; any
//! violation drops the whole batch, never a part of it. A torn tail write
//! (the only corruption a crash can produce under buffered appends)
//! therefore costs exactly the uncommitted tail.
//!
//! Replay semantics live one level up (see [`crate::recover`]): only
//! records up to the last valid [`WalOp::Commit`] are applied, so a tick's
//! partially-flushed ingests never pollute recovered state.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use pinnsoc_fleet::{CellId, Telemetry};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment the writer creates (format
/// version in the suffix).
pub const WAL_MAGIC: &[u8; 8] = b"PSOCWAL2";

/// Magic of version-1 segments: one frame per report, no batches. Read,
/// never written.
const WAL_MAGIC_V1: &[u8; 8] = b"PSOCWAL1";

/// Upper bound on a record payload, enforced on **both** sides of the log.
/// The reader refuses a larger length prefix so corruption cannot trigger
/// a gigabyte allocation; [`WalWriter::append`] rejects a larger payload
/// with [`OversizedRecord`] *before* it is framed, because a record the
/// writer frames but the reader refuses would read as corruption at
/// recovery and silently truncate every committed record behind it.
/// Fixed-width ops are under 64 bytes, and the writer splits report
/// batches at [`MAX_BATCH_REPORTS`]; only [`WalOp::Extension`] blobs can
/// exceed the cap.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Width of one report body: id plus four `f64`s.
const REPORT_BYTES: usize = 40;

/// Batch payload bytes before the first report body: op, `first_seq`,
/// `count`.
const BATCH_HEADER_BYTES: usize = 1 + 8 + 4;

/// Most reports one batch frame carries: the largest count whose payload
/// fits in [`MAX_RECORD_BYTES`] (26,214).
pub const MAX_BATCH_REPORTS: usize =
    (MAX_RECORD_BYTES as usize - BATCH_HEADER_BYTES) / REPORT_BYTES;

const OP_REGISTER: u8 = 1;
const OP_DEREGISTER: u8 = 2;
const OP_REPORT: u8 = 3;
const OP_COMMIT: u8 = 4;
const OP_EXTENSION: u8 = 5;
const OP_REPORT_BATCH: u8 = 6;

/// One logged fleet mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A cell registered with its initial integrator seed.
    Register {
        /// The cell's fleet-unique id.
        id: CellId,
        /// Assumed SoC at registration.
        initial_soc: f64,
        /// Rated capacity, amp-hours.
        capacity_ah: f64,
    },
    /// A cell deregistered.
    Deregister {
        /// The cell's fleet-unique id.
        id: CellId,
    },
    /// One telemetry report as ingested (logged before the accept/reject
    /// decision — absorb outcomes are deterministic, so replay re-derives
    /// them and the telemetry books stay bit-identical).
    Report {
        /// The addressed cell id (possibly unregistered — replay re-counts
        /// the unknown-cell rejection exactly as the original ingest did).
        id: CellId,
        /// The report.
        telemetry: Telemetry,
    },
    /// A tick boundary: every record before this one was folded into the
    /// engine by `process_pending` tick `tick`. Replay applies records only
    /// up to the last valid commit.
    Commit {
        /// Monotonic committed-tick counter (survives restarts).
        tick: u64,
    },
    /// An opaque subsystem blob updated (e.g. an adaptation session), so
    /// extensions set between snapshots survive a crash instead of only
    /// persisting at the next snapshot. The one variable-length op — the
    /// reason [`WalWriter::append`] must enforce [`MAX_RECORD_BYTES`].
    Extension {
        /// Namespaced extension key (e.g. `"adapt/session"`).
        name: String,
        /// The opaque payload; replaces any prior blob under `name`.
        blob: Vec<u8>,
    },
}

impl WalOp {
    /// Encoded payload width (`op` byte + `seq` + body) — what the frame's
    /// `len` field will hold, computed without encoding so the append-time
    /// cap check costs no allocation.
    pub fn payload_bytes(&self) -> u64 {
        let body = match self {
            WalOp::Register { .. } => 8 + 8 + 8,
            WalOp::Deregister { .. } => 8,
            WalOp::Report { .. } => 8 + 4 * 8,
            WalOp::Commit { .. } => 8,
            WalOp::Extension { name, blob } => 4 + name.len() as u64 + 4 + blob.len() as u64,
        };
        1 + 8 + body
    }
}

/// Rejection returned by [`WalWriter::append`] for a record whose encoded
/// payload would exceed [`MAX_RECORD_BYTES`]. The record is **not**
/// buffered: framing it anyway would poison the log — the reader treats an
/// over-cap length prefix as corruption and truncates everything after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedRecord {
    /// Encoded payload width of the rejected record.
    pub payload_bytes: u64,
}

impl std::fmt::Display for OversizedRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WAL record payload of {} bytes exceeds MAX_RECORD_BYTES ({})",
            self.payload_bytes, MAX_RECORD_BYTES
        )
    }
}

impl std::error::Error for OversizedRecord {}

/// A decoded WAL record: a monotonic sequence number and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic record counter spanning segments and restarts.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// One report's 40-byte body, as both frame kinds carry it.
fn report_body(id: CellId, telemetry: &Telemetry) -> [u8; REPORT_BYTES] {
    let mut body = [0u8; REPORT_BYTES];
    let fields = [
        id,
        telemetry.time_s.to_bits(),
        telemetry.voltage_v.to_bits(),
        telemetry.current_a.to_bits(),
        telemetry.temperature_c.to_bits(),
    ];
    for (bytes, field) in body.chunks_exact_mut(8).zip(fields) {
        bytes.copy_from_slice(&field.to_le_bytes());
    }
    body
}

fn decode_report(body: &[u8; REPORT_BYTES]) -> WalOp {
    let field = |k: usize| u64::from_le_bytes(body[8 * k..8 * k + 8].try_into().expect("8 bytes"));
    WalOp::Report {
        id: field(0),
        telemetry: Telemetry {
            time_s: f64::from_bits(field(1)),
            voltage_v: f64::from_bits(field(2)),
            current_a: f64::from_bits(field(3)),
            temperature_c: f64::from_bits(field(4)),
        },
    }
}

/// Writes the `len`/`crc` frame header reserved at `out[frame_at..]` for
/// the payload that follows it.
fn backfill_frame(out: &mut [u8], frame_at: usize) {
    let (frame, payload) = out[frame_at..].split_at_mut(8);
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Appends `records` framed the way [`WalWriter::flush`] frames them:
/// every run of reports with consecutive sequence numbers as report
/// batches of at most [`MAX_BATCH_REPORTS`], every other op as its own
/// frame ([`encode_record`]). [`read_segment`] yields `records` back.
pub fn encode_records(out: &mut Vec<u8>, records: &[WalRecord]) {
    let mut rest = records;
    while let Some(first) = rest.first() {
        if !matches!(first.op, WalOp::Report { .. }) {
            encode_record(out, first);
            rest = &rest[1..];
            continue;
        }
        let limit = rest.len().min(MAX_BATCH_REPORTS);
        let mut count = 1;
        while count < limit
            && matches!(rest[count].op, WalOp::Report { .. })
            && first.seq.checked_add(count as u64) == Some(rest[count].seq)
        {
            count += 1;
        }
        let (run, tail) = rest.split_at(count);
        encode_batch(out, run);
        rest = tail;
    }
}

/// Appends one report-batch frame for `run`: reports with consecutive
/// sequence numbers, at most [`MAX_BATCH_REPORTS`] of them.
fn encode_batch(out: &mut Vec<u8>, run: &[WalRecord]) {
    let frame_at = out.len();
    out.resize(
        frame_at + 8 + BATCH_HEADER_BYTES + run.len() * REPORT_BYTES,
        0,
    );
    let payload = &mut out[frame_at + 8..];
    let (header, bodies) = payload.split_at_mut(BATCH_HEADER_BYTES);
    header[0] = OP_REPORT_BATCH;
    header[1..9].copy_from_slice(&run[0].seq.to_le_bytes());
    header[9..].copy_from_slice(&(run.len() as u32).to_le_bytes());
    for (body, record) in bodies.as_chunks_mut::<REPORT_BYTES>().0.iter_mut().zip(run) {
        let WalOp::Report { id, telemetry } = &record.op else {
            unreachable!("a batch run holds only reports");
        };
        *body = report_body(*id, telemetry);
    }
    backfill_frame(out, frame_at);
}

/// Appends one record as its own frame (`len`/`crc` framing included) to
/// `out` — the version-1 framing, which [`encode_records`] still uses for
/// every op but reports. Encodes in place — payload first, frame
/// backfilled — so bulk flushes allocate nothing per record.
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; 8]); // len + crc, backfilled below
    let mut enc = Enc(out);
    match &record.op {
        WalOp::Register {
            id,
            initial_soc,
            capacity_ah,
        } => {
            enc.u8(OP_REGISTER);
            enc.u64(record.seq);
            enc.u64(*id);
            enc.f64(*initial_soc);
            enc.f64(*capacity_ah);
        }
        WalOp::Deregister { id } => {
            enc.u8(OP_DEREGISTER);
            enc.u64(record.seq);
            enc.u64(*id);
        }
        WalOp::Report { id, telemetry } => {
            enc.u8(OP_REPORT);
            enc.u64(record.seq);
            enc.0.extend_from_slice(&report_body(*id, telemetry));
        }
        WalOp::Commit { tick } => {
            enc.u8(OP_COMMIT);
            enc.u64(record.seq);
            enc.u64(*tick);
        }
        WalOp::Extension { name, blob } => {
            enc.u8(OP_EXTENSION);
            enc.u64(record.seq);
            enc.bytes(name.as_bytes());
            enc.bytes(blob);
        }
    }
    backfill_frame(out, frame_at);
}

/// Decodes one frame's payload (everything after the `len`/`crc` header)
/// into `out`: one record, or a batch's `count`. `None` — with nothing
/// pushed — on an unknown op byte, a short body, trailing bytes, or a
/// batch breaking the strict rules in the [module docs](self), so a CRC
/// collision on garbage still cannot yield a record.
fn decode_payload(payload: &[u8], out: &mut Vec<WalRecord>) -> Option<()> {
    let mut dec = Dec::new(payload);
    let op = dec.u8()?;
    let seq = dec.u64()?;
    let op = match op {
        OP_REGISTER => WalOp::Register {
            id: dec.u64()?,
            initial_soc: dec.f64()?,
            capacity_ah: dec.f64()?,
        },
        OP_DEREGISTER => WalOp::Deregister { id: dec.u64()? },
        OP_REPORT => decode_report(dec.raw(REPORT_BYTES)?.try_into().ok()?),
        OP_COMMIT => WalOp::Commit { tick: dec.u64()? },
        OP_EXTENSION => {
            let name = String::from_utf8(dec.bytes()?.to_vec()).ok()?;
            let blob = dec.bytes()?.to_vec();
            WalOp::Extension { name, blob }
        }
        OP_REPORT_BATCH => {
            let count = dec.u32()? as usize;
            let (bodies, rest) = dec.raw(dec.remaining())?.as_chunks::<REPORT_BYTES>();
            if count == 0 || bodies.len() != count || !rest.is_empty() {
                return None;
            }
            seq.checked_add(count as u64 - 1)?;
            out.extend(bodies.iter().enumerate().map(|(k, body)| WalRecord {
                seq: seq + k as u64,
                op: decode_report(body),
            }));
            return Some(());
        }
        _ => return None,
    };
    (dec.remaining() == 0).then(|| out.push(WalRecord { seq, op }))
}

/// What [`read_segment`] recovered from one segment's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRead {
    /// The records of the valid frame prefix, in file order (a batch
    /// frame expanded into its reports).
    pub records: Vec<WalRecord>,
    /// Bytes after the last valid frame (torn tail, flipped bits, or a
    /// missing/corrupt header — in which case it is the whole file).
    pub truncated_bytes: u64,
}

/// Parses one segment's bytes, version 1 or 2 — pure, total, and
/// panic-free: any input yields the records of the longest valid frame
/// prefix plus a count of the bytes it refused.
pub fn read_segment(bytes: &[u8]) -> SegmentRead {
    let mut records = Vec::new();
    let magic = bytes.get(..WAL_MAGIC.len());
    if magic != Some(WAL_MAGIC) && magic != Some(WAL_MAGIC_V1) {
        return SegmentRead {
            records,
            truncated_bytes: bytes.len() as u64,
        };
    }
    let mut dec = Dec::new(&bytes[WAL_MAGIC.len()..]);
    while dec.remaining() > 0 {
        // Parse on a cursor copy: a failed frame must not consume bytes,
        // so the truncation count covers the whole refused tail.
        let parsed = (|| {
            let mut cursor = dec;
            let len = cursor.u32()?;
            if len > MAX_RECORD_BYTES {
                return None;
            }
            let crc = cursor.u32()?;
            let payload = cursor.raw(len as usize)?;
            if crc32(payload) != crc {
                return None;
            }
            decode_payload(payload, &mut records).map(|()| cursor)
        })();
        match parsed {
            Some(cursor) => dec = cursor,
            None => {
                return SegmentRead {
                    truncated_bytes: dec.remaining() as u64,
                    records,
                };
            }
        }
    }
    SegmentRead {
        records,
        truncated_bytes: 0,
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:010}.log"))
}

/// Segment indices present in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push(index);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Everything [`read_wal_dir`] recovered from a log directory.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Valid records across all segments, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes refused at and after the first bad record (later segments
    /// included: a mid-log corruption invalidates everything behind it,
    /// because record order is the replay contract).
    pub truncated_bytes: u64,
    /// Highest segment index present (even if corrupt), for the writer to
    /// continue numbering past.
    pub max_segment: Option<u64>,
}

/// Reads every segment in `dir` in index order, stopping at the first bad
/// record anywhere in the log.
pub fn read_wal_dir(dir: &Path) -> std::io::Result<WalScan> {
    let segments = list_segments(dir)?;
    let mut scan = WalScan {
        records: Vec::new(),
        truncated_bytes: 0,
        max_segment: segments.last().copied(),
    };
    let mut poisoned = false;
    for &index in &segments {
        let path = segment_path(dir, index);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if poisoned {
            scan.truncated_bytes += bytes.len() as u64;
            continue;
        }
        let read = read_segment(&bytes);
        scan.records.extend(read.records);
        if read.truncated_bytes > 0 {
            scan.truncated_bytes += read.truncated_bytes;
            poisoned = true;
        }
    }
    Ok(scan)
}

/// Accounting for one [`WalWriter::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Records (logged operations, not frames) written by this flush.
    pub records: u64,
    /// Framed bytes written by this flush.
    pub bytes: u64,
}

/// Buffered, rotating WAL writer.
///
/// Appends only push the raw record into an in-memory pending list — no
/// encoding, no checksumming — so the per-ingest hot-path cost is one
/// `Vec` push. [`WalWriter::flush`] does all the work in bulk at tick
/// boundaries: coalesce the reports into batch frames, encode + CRC into
/// a reused scratch buffer, one `write` to the operating system,
/// optionally `fsync`ing when configured for power-loss durability rather
/// than crash durability. Both buffers keep their capacity across
/// flushes, so a steady-state tick allocates nothing on the logging path.
/// Because the framing happens here, not at append, the bytes depend only
/// on the sequence of appended ops.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: BufWriter<File>,
    segment: u64,
    segment_bytes: u64,
    next_seq: u64,
    pending: Vec<WalRecord>,
    scratch: Vec<u8>,
    max_segment_bytes: u64,
    fsync: bool,
}

impl WalWriter {
    /// Opens a fresh segment `first_segment` in `dir` (created if missing),
    /// continuing the sequence counter at `next_seq`.
    pub fn create(
        dir: &Path,
        first_segment: u64,
        next_seq: u64,
        max_segment_bytes: u64,
        fsync: bool,
    ) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = Self::open_segment(dir, first_segment)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            file,
            segment: first_segment,
            segment_bytes: WAL_MAGIC.len() as u64,
            next_seq,
            pending: Vec::new(),
            scratch: Vec::new(),
            max_segment_bytes: max_segment_bytes.max(1),
            fsync,
        })
    }

    fn open_segment(dir: &Path, index: u64) -> std::io::Result<BufWriter<File>> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(dir, index))?;
        let mut file = BufWriter::new(file);
        file.write_all(WAL_MAGIC)?;
        Ok(file)
    }

    /// Appends one operation to the in-memory pending list and returns its
    /// sequence number. Nothing is encoded or reaches the file until
    /// [`Self::flush`].
    ///
    /// # Errors
    ///
    /// Returns [`OversizedRecord`] — without buffering anything or
    /// consuming a sequence number — when the encoded payload would exceed
    /// [`MAX_RECORD_BYTES`]. The cap must hold at append time: the reader
    /// enforces it too, so a framed over-cap record would read as
    /// corruption at recovery and silently truncate every committed record
    /// behind it. Every fixed-width op is far under the cap by
    /// construction; only [`WalOp::Extension`] can hit it.
    #[inline]
    pub fn append(&mut self, op: WalOp) -> Result<u64, OversizedRecord> {
        let payload_bytes = op.payload_bytes();
        if payload_bytes > MAX_RECORD_BYTES as u64 {
            return Err(OversizedRecord { payload_bytes });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(WalRecord { seq, op });
        Ok(seq)
    }

    /// Sequence number of the most recently appended record (0 when none
    /// ever was).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records appended but not yet flushed.
    pub fn buffered_records(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Current segment index.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Bytes written to the current segment (flushed, header included).
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Frames every pending record in bulk ([`encode_records`]: reports
    /// coalesced into batches), writes them to the current segment, and
    /// flushes to the operating system (plus `fsync` when configured).
    pub fn flush(&mut self) -> std::io::Result<FlushStats> {
        self.scratch.clear();
        encode_records(&mut self.scratch, &self.pending);
        let stats = FlushStats {
            records: self.pending.len() as u64,
            bytes: self.scratch.len() as u64,
        };
        self.pending.clear();
        if !self.scratch.is_empty() {
            self.file.write_all(&self.scratch)?;
            self.segment_bytes += self.scratch.len() as u64;
        }
        self.file.flush()?;
        if self.fsync {
            self.file.get_ref().sync_data()?;
        }
        Ok(stats)
    }

    /// Whether the current segment has grown past the rotation threshold.
    pub fn wants_rotation(&self) -> bool {
        self.segment_bytes >= self.max_segment_bytes
    }

    /// Closes the current segment and opens the next. Call only with an
    /// empty buffer (i.e. after [`Self::flush`]).
    pub fn rotate(&mut self) -> std::io::Result<()> {
        debug_assert!(self.pending.is_empty(), "rotate mid-buffer loses records");
        self.file.flush()?;
        let next = self.segment + 1;
        self.file = Self::open_segment(&self.dir, next)?;
        self.segment = next;
        self.segment_bytes = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Deletes every segment with an index below `keep_from` — the
    /// snapshot-triggered truncation (everything below is covered by the
    /// snapshot's `last_seq`).
    pub fn delete_segments_below(&self, keep_from: u64) -> std::io::Result<u64> {
        let mut deleted = 0;
        for index in list_segments(&self.dir)? {
            if index < keep_from {
                fs::remove_file(segment_path(&self.dir, index))?;
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seq: u64, id: CellId, time_s: f64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Report {
                id,
                telemetry: Telemetry {
                    time_s,
                    voltage_v: 3.7,
                    current_a: 1.0,
                    temperature_c: 25.0,
                },
            },
        }
    }

    fn sample_segment() -> (Vec<u8>, Vec<WalRecord>) {
        let records = vec![
            WalRecord {
                seq: 1,
                op: WalOp::Register {
                    id: 7,
                    initial_soc: 0.9,
                    capacity_ah: 3.0,
                },
            },
            report(2, 7, 1.0),
            WalRecord {
                seq: 3,
                op: WalOp::Commit { tick: 1 },
            },
            WalRecord {
                seq: 4,
                op: WalOp::Deregister { id: 7 },
            },
        ];
        let mut bytes = WAL_MAGIC.to_vec();
        for record in &records {
            encode_record(&mut bytes, record);
        }
        (bytes, records)
    }

    #[test]
    fn roundtrip_clean_segment() {
        let (bytes, records) = sample_segment();
        let read = read_segment(&bytes);
        assert_eq!(read.records, records);
        assert_eq!(read.truncated_bytes, 0);
    }

    #[test]
    fn truncation_drops_only_the_tail() {
        let (bytes, records) = sample_segment();
        for cut in 0..bytes.len() {
            let read = read_segment(&bytes[..cut]);
            assert!(read.records.len() <= records.len());
            assert_eq!(
                read.records,
                records[..read.records.len()],
                "cut at {cut}: prefix mismatch"
            );
        }
    }

    #[test]
    fn bit_flip_never_yields_a_corrupt_record() {
        let (bytes, records) = sample_segment();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x10;
            let read = read_segment(&flipped);
            // Every surviving record must be one of the originals, in
            // order: the flip can only shorten the log, never corrupt it.
            for (got, want) in read.records.iter().zip(&records) {
                assert_eq!(got, want, "flip at byte {byte}");
            }
        }
    }

    #[test]
    fn bad_magic_refuses_whole_file() {
        let (mut bytes, _) = sample_segment();
        bytes[0] ^= 0xFF;
        let read = read_segment(&bytes);
        assert!(read.records.is_empty());
        assert_eq!(read.truncated_bytes, bytes.len() as u64);
    }

    #[test]
    fn writer_flush_rotate_and_truncate() {
        let dir = std::env::temp_dir().join(format!("pinnsoc_wal_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut wal = WalWriter::create(&dir, 0, 1, 256, false).unwrap();
        for k in 0..20u64 {
            wal.append(WalOp::Report {
                id: k,
                telemetry: Telemetry {
                    time_s: k as f64,
                    voltage_v: 3.7,
                    current_a: 1.0,
                    temperature_c: 25.0,
                },
            })
            .unwrap();
        }
        wal.append(WalOp::Commit { tick: 1 }).unwrap();
        let stats = wal.flush().unwrap();
        assert_eq!(stats.records, 21);
        assert!(wal.wants_rotation(), "256-byte threshold long passed");
        wal.rotate().unwrap();
        assert_eq!(wal.segment(), 1);
        wal.append(WalOp::Commit { tick: 2 }).unwrap();
        wal.flush().unwrap();

        let scan = read_wal_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 22);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.max_segment, Some(1));
        assert_eq!(scan.records.last().unwrap().seq, 22);

        assert_eq!(wal.delete_segments_below(1).unwrap(), 1);
        let scan = read_wal_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 1, "only segment 1 remains");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Payload widths of the frames in a segment body (magic stripped).
    fn frame_lens(mut body: &[u8]) -> Vec<usize> {
        let mut lens = Vec::new();
        while !body.is_empty() {
            let len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
            lens.push(len);
            body = &body[8 + len..];
        }
        lens
    }

    /// Frames one payload with a valid CRC, whatever it holds.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The batch split at the cap: 26,214 reports fit one frame, 26,215
    /// take two, every payload stays within `MAX_RECORD_BYTES`, and both
    /// read back to the exact records.
    #[test]
    fn batch_split_at_the_record_cap() {
        assert_eq!(MAX_BATCH_REPORTS, 26_214);
        for (reports, frames) in [(MAX_BATCH_REPORTS, 1), (MAX_BATCH_REPORTS + 1, 2)] {
            let records: Vec<WalRecord> = (0..reports as u64)
                .map(|k| report(k + 1, k * 7, k as f64))
                .collect();
            let mut bytes = WAL_MAGIC.to_vec();
            encode_records(&mut bytes, &records);
            let lens = frame_lens(&bytes[WAL_MAGIC.len()..]);
            assert_eq!(lens.len(), frames, "{reports} reports");
            assert!(lens.iter().all(|&len| len <= MAX_RECORD_BYTES as usize));
            let read = read_segment(&bytes);
            assert_eq!(read.records, records);
            assert_eq!(read.truncated_bytes, 0);
        }
    }

    /// Runs break at every other op and at a gap in the sequence numbers;
    /// the writer's segment is exactly `encode_records` of what it was
    /// given, and reads back to it.
    #[test]
    fn reports_coalesce_into_runs_between_other_ops() {
        let mut records: Vec<WalRecord> = (1..=3).map(|seq| report(seq, seq, 1.0)).collect();
        records.push(WalRecord {
            seq: 4,
            op: WalOp::Commit { tick: 1 },
        });
        records.extend((5..=6).map(|seq| report(seq, seq, 2.0)));
        // A seq gap (a duplicated or spliced record) starts a new batch.
        records.extend((9..=10).map(|seq| report(seq, seq, 3.0)));
        let mut bytes = WAL_MAGIC.to_vec();
        encode_records(&mut bytes, &records);
        let lens = frame_lens(&bytes[WAL_MAGIC.len()..]);
        assert_eq!(
            lens,
            [13 + 3 * 40, 17, 13 + 2 * 40, 13 + 2 * 40],
            "batch, commit, batch, batch"
        );
        assert_eq!(read_segment(&bytes).records, records);

        let dir = std::env::temp_dir().join(format!("pinnsoc_wal_runs_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut wal = WalWriter::create(&dir, 0, 1, u64::MAX, false).unwrap();
        let logged: Vec<WalRecord> = records[..7]
            .iter()
            .map(|r| WalRecord {
                seq: wal.append(r.op.clone()).unwrap(),
                op: r.op.clone(),
            })
            .collect();
        assert_eq!(wal.flush().unwrap().records, 7, "stats count ops");
        let mut expected = WAL_MAGIC.to_vec();
        encode_records(&mut expected, &logged);
        assert_eq!(fs::read(segment_path(&dir, 0)).unwrap(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Batches whose CRC is valid but whose shape is not — no reports, a
    /// body short of or past `count × 40` bytes, a seq range past
    /// `u64::MAX` — end the log at that frame and yield none of it.
    #[test]
    fn malformed_batches_are_refused_whole() {
        let batch = |first_seq: u64, count: u32, bodies: usize, extra: usize| {
            let mut payload = vec![OP_REPORT_BATCH];
            payload.extend_from_slice(&first_seq.to_le_bytes());
            payload.extend_from_slice(&count.to_le_bytes());
            for k in 0..bodies {
                let WalOp::Report { id, telemetry } = report(0, k as u64, 1.0).op else {
                    unreachable!()
                };
                payload.extend_from_slice(&report_body(id, &telemetry));
            }
            payload.extend(std::iter::repeat_n(0xA5, extra));
            framed(&payload)
        };
        let commit = WalRecord {
            seq: 1,
            op: WalOp::Commit { tick: 1 },
        };
        let mut head = WAL_MAGIC.to_vec();
        encode_record(&mut head, &commit);
        for (case, frame) in [
            ("empty", batch(2, 0, 0, 0)),
            ("short body", batch(2, 3, 2, 0)),
            ("long body", batch(2, 2, 3, 0)),
            ("trailing bytes", batch(2, 2, 2, 7)),
            ("seq overflow", batch(u64::MAX, 2, 2, 0)),
        ] {
            let mut bytes = head.clone();
            bytes.extend_from_slice(&frame);
            let read = read_segment(&bytes);
            assert_eq!(read.records, std::slice::from_ref(&commit), "{case}");
            assert_eq!(read.truncated_bytes, frame.len() as u64, "{case}");
        }
        // The last representable seq is fine.
        let mut bytes = head.clone();
        bytes.extend_from_slice(&batch(u64::MAX - 1, 2, 2, 0));
        let read = read_segment(&bytes);
        assert_eq!(read.records.len(), 3);
        assert_eq!(read.records[2].seq, u64::MAX);
    }

    /// A version-1 segment body under the version-2 magic (and the other
    /// way round) reads the same: the reader takes either magic and every
    /// frame kind.
    #[test]
    fn both_magics_read() {
        let (bytes, records) = sample_segment();
        for magic in [WAL_MAGIC, WAL_MAGIC_V1] {
            let mut segment = magic.to_vec();
            segment.extend_from_slice(&bytes[WAL_MAGIC.len()..]);
            assert_eq!(read_segment(&segment).records, records);
        }
    }

    /// Blob length that makes an `Extension` payload exactly `target`
    /// bytes wide for the given name.
    fn blob_len_for_payload(name: &str, target: u64) -> usize {
        (target
            - WalOp::Extension {
                name: name.into(),
                blob: Vec::new(),
            }
            .payload_bytes()) as usize
    }

    #[test]
    fn payload_bytes_matches_encoded_width() {
        let ops = [
            WalOp::Register {
                id: 7,
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
            WalOp::Deregister { id: 7 },
            report(0, 7, 1.0).op,
            WalOp::Commit { tick: 3 },
            WalOp::Extension {
                name: "adapt/session".into(),
                blob: vec![0xAB; 137],
            },
        ];
        for op in ops {
            let mut bytes = Vec::new();
            encode_record(
                &mut bytes,
                &WalRecord {
                    seq: 9,
                    op: op.clone(),
                },
            );
            // Frame is 8 bytes (len + crc); the rest is the payload.
            assert_eq!(
                op.payload_bytes(),
                (bytes.len() - 8) as u64,
                "payload_bytes out of sync with encode_record for {op:?}"
            );
        }
    }

    #[test]
    fn extension_record_roundtrips_bit_exact() {
        let record = WalRecord {
            seq: 11,
            op: WalOp::Extension {
                name: "adapt/session".into(),
                blob: (0..=255u8).cycle().take(1000).collect(),
            },
        };
        let mut bytes = WAL_MAGIC.to_vec();
        encode_record(&mut bytes, &record);
        let read = read_segment(&bytes);
        assert_eq!(read.records, vec![record]);
        assert_eq!(read.truncated_bytes, 0);
    }

    /// The append-time cap, at the boundary: a record at exactly
    /// `MAX_RECORD_BYTES` is accepted and round-trips through the reader;
    /// one byte over is rejected *before* framing, so the log stays clean
    /// and every later committed record survives recovery.
    #[test]
    fn append_cap_boundary_roundtrip_and_rejection() {
        let dir = std::env::temp_dir().join(format!("pinnsoc_wal_cap_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut wal = WalWriter::create(&dir, 0, 1, u64::MAX, false).unwrap();

        // Exactly at the cap: accepted.
        let at_cap = WalOp::Extension {
            name: "cap".into(),
            blob: vec![0x5A; blob_len_for_payload("cap", MAX_RECORD_BYTES as u64)],
        };
        assert_eq!(at_cap.payload_bytes(), MAX_RECORD_BYTES as u64);
        assert_eq!(wal.append(at_cap.clone()), Ok(1));

        // One byte over: rejected, no sequence number consumed, nothing
        // buffered.
        let over_cap = WalOp::Extension {
            name: "cap".into(),
            blob: vec![0x5A; blob_len_for_payload("cap", MAX_RECORD_BYTES as u64 + 1)],
        };
        assert_eq!(
            wal.append(over_cap),
            Err(OversizedRecord {
                payload_bytes: MAX_RECORD_BYTES as u64 + 1
            })
        );
        assert_eq!(wal.buffered_records(), 1, "rejected record must not buffer");

        // A committed record *after* the rejection must survive recovery —
        // the exact failure mode the write-side cap exists to prevent.
        assert_eq!(wal.append(WalOp::Commit { tick: 1 }), Ok(2));
        wal.flush().unwrap();

        let scan = read_wal_dir(&dir).unwrap();
        assert_eq!(scan.truncated_bytes, 0, "log must parse clean");
        assert_eq!(
            scan.records,
            vec![
                WalRecord { seq: 1, op: at_cap },
                WalRecord {
                    seq: 2,
                    op: WalOp::Commit { tick: 1 }
                },
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
