//! [`DurableFleet`]: a [`FleetEngine`] whose mutations flow through the
//! WAL, plus [`recover`] — snapshot + WAL-tail replay into a fresh engine
//! whose subsequent estimates are bit-identical to an uninterrupted one.
//!
//! ## Why replay is bit-identical
//!
//! - Cells shard by `id % shards`, and the snapshot stores cells in
//!   shard-major slot order, so import reproduces every `(shard, slot)`
//!   placement; registers replayed after the snapshot append in their
//!   original order.
//! - The WAL logs reports *as ingested*, before the accept/reject
//!   decision: absorb outcomes are deterministic functions of the report
//!   stream, so replay re-derives every rejection (and the telemetry
//!   books) exactly.
//! - Replay applies records only up to the last valid commit, and runs a
//!   processing pass at each one — integrator updates happen against the
//!   same per-cell report sequences, and network estimates are recomputed
//!   from the same latest-telemetry values under the same model weights.
//! - Everything past the last commit (a torn tick) is dropped, counted,
//!   and re-delivered by whoever resumes the feed — recovered state is
//!   always a tick boundary the uninterrupted engine also passed through.
//!
//! What is *not* persisted: registry version numbers (process-local, they
//! restart at 1 — [`RecoveryReport::snapshot_model_version`] reports the
//! old one), worker/thread configuration (a runtime choice, passed to
//! [`recover`]), and observability state.

use crate::obs::DurableObs;
use crate::snapshot::{read_snapshot, snapshot_path, write_snapshot, SnapshotData};
use crate::wal::{list_segments, read_wal_dir, OversizedRecord, WalOp, WalWriter};
use pinnsoc::SocModel;
use pinnsoc_battery::CellParams;
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry};
use pinnsoc_obs::ObsHub;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Durability configuration for one fleet directory.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding `snapshot.bin` and the `wal-*.log` segments.
    pub dir: PathBuf,
    /// Segment rotation threshold, bytes.
    pub max_segment_bytes: u64,
    /// Automatic snapshot cadence in committed ticks (`0` disables the
    /// cadence; snapshots then happen only at creation, recovery, and
    /// explicit [`DurableFleet::snapshot_now`] calls).
    pub snapshot_every_ticks: u64,
    /// `fsync` WAL flushes and snapshot writes. Off (the default), state
    /// survives process crashes (the paper-reproduction threat model);
    /// on, it also survives power loss, at a per-tick latency cost.
    pub fsync: bool,
}

impl DurableConfig {
    /// Defaults: 8 MiB segments, a snapshot every 64 ticks, no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_segment_bytes: 8 << 20,
            snapshot_every_ticks: 64,
            fsync: false,
        }
    }
}

/// What [`recover`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Committed tick the snapshot captured.
    pub snapshot_tick: u64,
    /// Highest WAL sequence folded into the snapshot.
    pub snapshot_last_seq: u64,
    /// Cells in the snapshot.
    pub snapshot_cells: usize,
    /// Registry version at snapshot time (versions restart at 1 in the
    /// recovered engine — the counter is process-local).
    pub snapshot_model_version: u64,
    /// WAL records applied on top of the snapshot.
    pub records_replayed: u64,
    /// Commit records among them (= ticks re-processed).
    pub commits_replayed: u64,
    /// Valid records dropped because no commit followed them (the torn
    /// tick in flight when the process died).
    pub dropped_uncommitted_records: u64,
    /// Bytes refused by the corruption-tolerant reader (torn tail writes,
    /// flipped bits).
    pub truncated_tail_bytes: u64,
    /// Committed tick of the recovered engine.
    pub tick: u64,
    /// Named extension blobs carried by the snapshot (adaptation session
    /// state), for higher layers to restore from.
    pub extensions: Vec<(String, Vec<u8>)>,
}

impl RecoveryReport {
    /// Ticks the replayed WAL tail ran past the snapshot.
    pub fn snapshot_age_ticks(&self) -> u64 {
        self.tick - self.snapshot_tick
    }
}

fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Justification for the `expect` on every fixed-width append: those ops
/// encode to under 64 bytes (see [`WalOp::payload_bytes`]), far below
/// [`crate::wal::MAX_RECORD_BYTES`] — only variable-width extension blobs
/// can be oversized, and [`DurableFleet::set_extension`] surfaces that.
const FIXED_WIDTH_OP: &str = "fixed-width WAL op is always under MAX_RECORD_BYTES";

/// A [`FleetEngine`] wrapped in crash safety: registrations, ingests, and
/// tick boundaries append to a buffered WAL flushed at each
/// [`DurableFleet::process_pending`], with periodic snapshots truncating
/// the log. The hot path pays one small in-memory append per mutation;
/// all file I/O happens at tick boundaries.
pub struct DurableFleet {
    engine: FleetEngine,
    wal: WalWriter,
    config: DurableConfig,
    /// Committed ticks since the log began (monotonic across restarts —
    /// unlike the engine's own per-process counters).
    tick: u64,
    ticks_since_snapshot: u64,
    /// Latest extension blobs, embedded into every subsequent snapshot.
    extensions: Vec<(String, Vec<u8>)>,
    /// Start and end of the boundary flush inside the latest
    /// [`Self::process_pending`] — the encode + checksum + write cost the
    /// group-commit design keeps out of the ingest/process hot path.
    last_flush: Option<(Instant, Instant)>,
    obs: Option<DurableObs>,
}

impl std::fmt::Debug for DurableFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableFleet")
            .field("dir", &self.config.dir)
            .field("tick", &self.tick)
            .field("cells", &self.engine.len())
            .field("segment", &self.wal.segment())
            .finish_non_exhaustive()
    }
}

impl DurableFleet {
    /// Wraps `engine` with durability rooted at `config.dir`, which must
    /// not already contain fleet state (use [`recover`] for that). Writes
    /// the baseline snapshot immediately, so the directory is recoverable
    /// from the first moment on.
    pub fn create(engine: FleetEngine, config: DurableConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        if snapshot_path(&config.dir).exists() || !list_segments(&config.dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "durability directory already holds fleet state — use recover()",
            ));
        }
        let wal = WalWriter::create(&config.dir, 0, 1, config.max_segment_bytes, config.fsync)?;
        let mut fleet = Self {
            engine,
            wal,
            config,
            tick: 0,
            ticks_since_snapshot: 0,
            extensions: Vec::new(),
            last_flush: None,
            obs: None,
        };
        fleet.snapshot_now()?;
        Ok(fleet)
    }

    /// Attaches `pinnsoc_durable_*` metrics to `hub`. Recording happens
    /// only at tick boundaries (flushes, snapshots, rotations) — the
    /// logged bytes and the engine's estimates are identical either way.
    pub fn attach_obs(&mut self, hub: &Arc<ObsHub>) {
        self.obs = Some(DurableObs::new(hub));
    }

    /// The wrapped engine, for estimates and fleet queries.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Mutable engine access — for [`FleetEngine::attach_obs`], registry
    /// swaps, and prediction passes. State mutations made through this
    /// seam bypass the WAL and will not survive a crash; cell
    /// registration and telemetry must flow through [`Self::register`] /
    /// [`Self::ingest`].
    pub fn engine_mut(&mut self) -> &mut FleetEngine {
        &mut self.engine
    }

    /// The durability configuration.
    pub fn config(&self) -> &DurableConfig {
        &self.config
    }

    /// Committed ticks since the log began (monotonic across restarts).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Bytes written to the live WAL segment so far (flushed appends only)
    /// — the size rotation decisions are made against.
    pub fn wal_segment_bytes(&self) -> u64 {
        self.wal.segment_bytes()
    }

    /// Wall time of the WAL flush inside the most recent
    /// [`Self::process_pending`]: the bulk encode + checksum + write done
    /// at the tick boundary. Ingest-time appends defer all of that work
    /// here, so `tick wall − flush wall` is the hot-path cost a latency
    /// budget should be measured against (`durable_baseline` does exactly
    /// that).
    pub fn last_flush_seconds(&self) -> f64 {
        self.last_flush
            .map_or(0.0, |(start, end)| (end - start).as_secs_f64())
    }

    /// Start and end instants of the WAL flush inside the most recent
    /// [`Self::process_pending`] (`None` before the first), for a caller
    /// to place the flush on its own trace timeline.
    pub fn last_flush_span(&self) -> Option<(Instant, Instant)> {
        self.last_flush
    }

    /// Registers a cell, logging it. Returns `false` (and logs nothing)
    /// for duplicate ids.
    pub fn register(&mut self, id: CellId, config: CellConfig) -> bool {
        let (initial_soc, capacity_ah) = (config.initial_soc, config.capacity_ah);
        let registered = self.engine.register(id, config);
        if registered {
            self.wal
                .append(WalOp::Register {
                    id,
                    initial_soc,
                    capacity_ah,
                })
                .expect(FIXED_WIDTH_OP);
        }
        registered
    }

    /// Deregisters a cell, logging it. Returns `false` (and logs nothing)
    /// for unknown ids.
    pub fn deregister(&mut self, id: CellId) -> bool {
        let removed = self.engine.deregister(id);
        if removed {
            self.wal
                .append(WalOp::Deregister { id })
                .expect(FIXED_WIDTH_OP);
        }
        removed
    }

    /// Queues one telemetry report, logging it. Every report is logged —
    /// even rejected ones — because replay re-derives the accept/reject
    /// decisions to keep the telemetry books bit-identical.
    pub fn ingest(&mut self, id: CellId, telemetry: Telemetry) -> bool {
        self.wal
            .append(WalOp::Report { id, telemetry })
            .expect(FIXED_WIDTH_OP);
        self.engine.ingest(id, telemetry)
    }

    /// [`Self::ingest`] for a batch: logs every report in arrival order,
    /// then hands the batch to [`FleetEngine::ingest_batch`]. The WAL
    /// bytes and engine state are identical to ingesting frame by frame.
    /// Returns how many frames addressed registered cells.
    pub fn ingest_batch(&mut self, frames: &[(CellId, Telemetry)]) -> usize {
        for &(id, telemetry) in frames {
            self.wal
                .append(WalOp::Report { id, telemetry })
                .expect(FIXED_WIDTH_OP);
        }
        self.engine.ingest_batch(frames)
    }

    /// One durable tick: processes queued telemetry, appends the commit
    /// record, flushes the WAL buffer to disk, and — on the configured
    /// cadence — snapshots and truncates the log.
    pub fn process_pending(&mut self) -> io::Result<(usize, usize)> {
        let totals = self.engine.process_pending();
        self.tick += 1;
        self.ticks_since_snapshot += 1;
        self.wal
            .append(WalOp::Commit { tick: self.tick })
            .expect(FIXED_WIDTH_OP);
        let flush_start = Instant::now();
        let flushed = self.wal.flush()?;
        self.last_flush = Some((flush_start, Instant::now()));
        if let Some(obs) = self.obs.as_ref() {
            let registry = obs.hub.registry();
            registry.add(obs.records, flushed.records);
            registry.add(obs.bytes, flushed.bytes);
            registry.add(obs.commits, 1);
            registry.observe(obs.flush_seconds, self.last_flush_seconds());
            registry.set(obs.segment_bytes, self.wal.segment_bytes() as f64);
            registry.set(obs.tick, self.tick as f64);
        }
        if self.config.snapshot_every_ticks > 0
            && self.ticks_since_snapshot >= self.config.snapshot_every_ticks
        {
            self.snapshot_now()?;
        } else if self.wal.wants_rotation() {
            self.wal.rotate()?;
            if let Some(obs) = self.obs.as_ref() {
                obs.hub.registry().add(obs.rotations, 1);
            }
        }
        Ok(totals)
    }

    /// Flushes buffered WAL records to disk without a commit marker —
    /// they replay only if a later commit covers them. Useful before a
    /// planned pause mid-tick; [`Self::process_pending`] flushes
    /// automatically at every tick boundary.
    pub fn flush_wal(&mut self) -> io::Result<crate::wal::FlushStats> {
        self.wal.flush()
    }

    /// Stores (or replaces) a named extension blob — the persistence seam
    /// for state this crate doesn't know about (the adaptation session).
    /// The update is WAL-logged, so it becomes durable at the next commit
    /// (tick boundary) instead of waiting for the next snapshot; blobs
    /// also ride inside every subsequent snapshot and come back through
    /// [`RecoveryReport::extensions`].
    ///
    /// # Errors
    ///
    /// Returns [`OversizedRecord`] — leaving both the WAL and the current
    /// blob untouched — when the encoded record would exceed
    /// [`crate::wal::MAX_RECORD_BYTES`] (the one op a caller can make
    /// arbitrarily large). Callers with over-cap state must shard it
    /// across multiple named extensions.
    pub fn set_extension(&mut self, name: &str, blob: Vec<u8>) -> Result<(), OversizedRecord> {
        self.wal.append(WalOp::Extension {
            name: name.to_string(),
            blob: blob.clone(),
        })?;
        match self.extensions.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = blob,
            None => self.extensions.push((name.to_string(), blob)),
        }
        Ok(())
    }

    /// The current blob for `name`, if one was set or recovered.
    pub fn extension(&self, name: &str) -> Option<&[u8]> {
        self.extensions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, blob)| blob.as_slice())
    }

    /// Writes a snapshot of the current state and truncates the WAL to a
    /// fresh segment. Runs automatically on the configured tick cadence;
    /// call it explicitly after out-of-band mutations worth anchoring
    /// (e.g. a model hot-swap — snapshots are the only place model
    /// weights persist).
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        let start = self.obs.as_ref().map(|_| Instant::now());
        // Anchor any records still in the buffer (registrations before the
        // first tick): they flush here and land inside the snapshot's
        // `last_seq` horizon.
        self.wal.flush()?;
        let registry = self.engine.registry();
        let model = registry.current();
        let model_json = serde_json::to_string(&*model)
            .map_err(|e| invalid_data(format!("model encode: {e}")))?
            .into_bytes();
        let ekf_fallback_json = match &self.engine.config().ekf_fallback {
            None => None,
            Some(params) => Some(
                serde_json::to_string(params)
                    .map_err(|e| invalid_data(format!("EKF params encode: {e}")))?
                    .into_bytes(),
            ),
        };
        let data = SnapshotData {
            last_seq: self.wal.last_seq(),
            tick: self.tick,
            model_version: registry.version(),
            model_json,
            shards: self.engine.config().shards,
            micro_batch: self.engine.config().micro_batch,
            ekf_fallback_json,
            telemetry: self.engine.telemetry_stats(),
            cells: self.engine.export_cells(),
            extensions: self.extensions.clone(),
        };
        write_snapshot(&self.config.dir, &data, self.config.fsync)?;
        // Everything up to `last_seq` is now in the snapshot: rotate to a
        // fresh segment and drop the covered ones.
        self.wal.rotate()?;
        self.wal.delete_segments_below(self.wal.segment())?;
        self.ticks_since_snapshot = 0;
        if let (Some(obs), Some(start)) = (self.obs.as_ref(), start) {
            let registry = obs.hub.registry();
            registry.add(obs.snapshots, 1);
            registry.observe(obs.snapshot_seconds, start.elapsed().as_secs_f64());
            registry.set(obs.segment_bytes, self.wal.segment_bytes() as f64);
        }
        Ok(())
    }
}

/// Rebuilds a [`DurableFleet`] from `config.dir`: reads the snapshot,
/// replays the WAL tail up to its last valid commit, then re-anchors the
/// directory (fresh snapshot of the recovered state, old segments
/// dropped) so a crash loop never replays stale sequence numbers.
///
/// `workers` configures the rebuilt engine's worker threads (a runtime
/// choice, deliberately not persisted — estimates are bit-identical for
/// any value, per the fleet contract).
///
/// # Errors
///
/// Besides I/O failures: a missing or corrupt snapshot (`InvalidData`) —
/// there is no model to serve without one. WAL corruption is never an
/// error; the log is truncated at the first bad record by construction.
pub fn recover(
    config: DurableConfig,
    workers: usize,
) -> io::Result<(DurableFleet, RecoveryReport)> {
    let snapshot = read_snapshot(&config.dir)?
        .ok_or_else(|| invalid_data("no usable snapshot in durability directory"))?;
    let model: SocModel = serde_json::from_str(
        std::str::from_utf8(&snapshot.model_json)
            .map_err(|e| invalid_data(format!("snapshot model decode: {e}")))?,
    )
    .map_err(|e| invalid_data(format!("snapshot model decode: {e}")))?;
    let ekf_fallback: Option<CellParams> = match &snapshot.ekf_fallback_json {
        None => None,
        Some(json) => Some(
            serde_json::from_str(
                std::str::from_utf8(json)
                    .map_err(|e| invalid_data(format!("snapshot EKF params decode: {e}")))?,
            )
            .map_err(|e| invalid_data(format!("snapshot EKF params decode: {e}")))?,
        ),
    };
    let mut engine = FleetEngine::new(
        model,
        FleetConfig {
            shards: snapshot.shards,
            micro_batch: snapshot.micro_batch,
            workers,
            ekf_fallback,
            ..FleetConfig::default()
        },
    );
    engine.import_cells(&snapshot.cells);
    engine.restore_telemetry_stats(snapshot.telemetry);

    let scan = read_wal_dir(&config.dir)?;
    // Replay stops at the last valid commit: records after it belong to a
    // tick that never completed.
    let last_commit = scan
        .records
        .iter()
        .rposition(|r| r.seq > snapshot.last_seq && matches!(r.op, WalOp::Commit { .. }));
    let mut report = RecoveryReport {
        snapshot_tick: snapshot.tick,
        snapshot_last_seq: snapshot.last_seq,
        snapshot_cells: snapshot.cells.len(),
        snapshot_model_version: snapshot.model_version,
        records_replayed: 0,
        commits_replayed: 0,
        dropped_uncommitted_records: 0,
        truncated_tail_bytes: scan.truncated_bytes,
        tick: snapshot.tick,
        extensions: Vec::new(),
    };
    let mut extensions = snapshot.extensions;
    let mut applied_seq = snapshot.last_seq;
    let replay_end = last_commit.map_or(0, |i| i + 1);
    for record in &scan.records[..replay_end] {
        // Skip snapshot-covered records and duplicated frames (a record
        // retried across a torn flush appears twice with one seq).
        if record.seq <= applied_seq {
            continue;
        }
        applied_seq = record.seq;
        report.records_replayed += 1;
        match &record.op {
            WalOp::Register {
                id,
                initial_soc,
                capacity_ah,
            } => {
                engine.register(
                    *id,
                    CellConfig {
                        initial_soc: *initial_soc,
                        capacity_ah: *capacity_ah,
                    },
                );
            }
            WalOp::Deregister { id } => {
                engine.deregister(*id);
            }
            WalOp::Report { id, telemetry } => {
                engine.ingest(*id, *telemetry);
            }
            WalOp::Commit { tick } => {
                engine.process_pending();
                report.commits_replayed += 1;
                report.tick = *tick;
            }
            WalOp::Extension { name, blob } => {
                // Same last-write-wins semantics as `set_extension`;
                // commit-bounded like every other replayed mutation.
                match extensions.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => existing.clone_from(blob),
                    None => extensions.push((name.clone(), blob.clone())),
                }
            }
        }
    }
    report.extensions = extensions.clone();
    report.dropped_uncommitted_records = scan.records[replay_end..]
        .iter()
        .filter(|r| r.seq > applied_seq)
        .count() as u64;

    // Re-anchor: continue segment numbering past anything on disk, write a
    // fresh snapshot of the recovered state, and drop the old segments —
    // replayed-and-dropped sequence numbers must never be reused against
    // surviving files.
    let next_segment = scan.max_segment.map_or(0, |s| s + 1);
    let wal = WalWriter::create(
        &config.dir,
        next_segment,
        applied_seq + 1,
        config.max_segment_bytes,
        config.fsync,
    )?;
    let mut fleet = DurableFleet {
        engine,
        wal,
        config,
        tick: report.tick,
        ticks_since_snapshot: 0,
        extensions,
        last_flush: None,
        obs: None,
    };
    fleet.snapshot_now()?;
    Ok((fleet, report))
}
