//! pinnsoc-durable: crash-safe fleet state.
//!
//! A checksummed, length-prefixed write-ahead log of absorbed telemetry
//! plus periodic binary snapshots of the full [`pinnsoc_fleet`] cell
//! store, with [`recover`] replaying snapshot + WAL tail into a fresh
//! engine whose subsequent estimates are **bit-identical** to an
//! uninterrupted one.
//!
//! Design rules:
//!
//! - **Reader corruption-tolerant by construction.** Every WAL frame —
//!   one record, or a batch of one tick's reports — carries its own
//!   CRC-32 behind a length prefix; the reader truncates at the first bad
//!   frame (torn writes look like truncation), and the snapshot is one
//!   CRC-protected blob written via temp-file + rename. No input —
//!   truncated, bit-flipped, adversarial — makes the readers panic or
//!   yield a corrupt record.
//! - **Writer off the tick hot path.** Appends buffer in memory; file
//!   I/O happens once per tick at [`DurableFleet::process_pending`], with
//!   rotation and snapshot-triggered truncation folded into the same
//!   boundary.
//! - **The record cap holds on both sides.** [`MAX_RECORD_BYTES`] is
//!   enforced by the reader (a corrupt length prefix cannot trigger a
//!   huge allocation) *and* by [`WalWriter::append`], which rejects an
//!   oversized record with [`wal::OversizedRecord`] before framing it —
//!   a record the writer framed but the reader refused would read as
//!   corruption at recovery and silently truncate every committed record
//!   behind it. Only variable-width extension blobs
//!   ([`DurableFleet::set_extension`]) can hit the cap; the fixed-width
//!   ops are all under 64 bytes, and report batches split at
//!   [`MAX_BATCH_REPORTS`].
//! - **Recovery is a tick boundary.** Replay applies records only up to
//!   the last valid commit, so recovered state is a state the
//!   uninterrupted engine also passed through — the basis of the
//!   bit-identity contract (details on [`fleet`'s module docs](fleet)).
//!
//! ```no_run
//! use pinnsoc_durable::{recover, DurableConfig, DurableFleet};
//! # fn engine() -> pinnsoc_fleet::FleetEngine { unimplemented!() }
//! let mut fleet = DurableFleet::create(engine(), DurableConfig::new("/var/lib/fleet"))?;
//! fleet.register(7, pinnsoc_fleet::CellConfig::default());
//! fleet.process_pending()?; // tick boundary: commit + flush
//! drop(fleet); // ...process dies...
//! let (fleet, report) = recover(DurableConfig::new("/var/lib/fleet"), 0)?;
//! assert_eq!(report.tick, 1);
//! # std::io::Result::Ok(())
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod codec;
pub mod crc;
mod obs;
pub mod snapshot;
pub mod wal;

pub mod fleet;

pub use crc::crc32;
pub use fleet::{recover, DurableConfig, DurableFleet, RecoveryReport};
pub use obs::record_recovery;
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, snapshot_path, write_snapshot, SnapshotData,
    SNAPSHOT_FILE, SNAPSHOT_MAGIC,
};
pub use wal::{
    encode_record, encode_records, read_segment, read_wal_dir, FlushStats, OversizedRecord,
    SegmentRead, WalOp, WalRecord, WalScan, WalWriter, MAX_BATCH_REPORTS, MAX_RECORD_BYTES,
    WAL_MAGIC,
};
