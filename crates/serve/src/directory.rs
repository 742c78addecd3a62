//! The tier's id directory: where each reporting cell lands in the
//! id-sorted snapshot, kept across ticks so a steady tick writes only the
//! cells that changed, and the lanes' estimate buffers it reads them from.
//!
//! Each lane keeps its engine's estimates in a [`LaneEstimates`] buffer,
//! one compact [`EstimateEntry`] per engine position (shard-then-slot
//! order, see [`FleetEngine::breakdown_at`]). The lane's own task refreshes
//! it right after its pass, in parallel with the other lanes: only the
//! positions the pass changed, read shard by shard in slot order, or every
//! position when the buffer is not known to be current (first tick, a
//! membership change, a failed pass, a recovered lane).
//!
//! [`ServeTier::tick`](crate::ServeTier::tick) then publishes every live
//! lane's reporting cells in id order, on the tick thread, without reading
//! the engines' cell state. The directory maps each cell's engine position
//! to its rank in id order, and each rank back to its lane and position.
//! Positions and ranks hold while no lane's
//! [`FleetEngine::membership_epoch`] moves and no lane goes down or comes
//! back, so a tick takes one of two paths:
//!
//! - **Patch.** Each lane's [`FleetEngine::for_each_changed`] names the
//!   cells its pass just estimated; their ranks are set in a rank bitmap.
//!   The buffer being refilled is the one published two ticks ago, so it
//!   also misses the previous tick's changes, kept in a second bitmap. One
//!   merge over the union of both bitmaps, in rank order, expands this
//!   tick's ranks from the lane buffers and copies last tick's from the
//!   current snapshot. The writes are sequential, so a tick where every
//!   cell changes does the work of a full sweep, and a tick where a few
//!   hundred change touches only those. If a reader still holds that
//!   buffer, the tick starts from a copy of the current snapshot instead
//!   and patches this tick's ranks only.
//! - **Rebuild.** On the first tick, when an epoch moved (register,
//!   deregister, a cell's first report, an import), when a lane went down
//!   or came back, or when the tier asks for one (a recovered lane, or a
//!   tick that failed before publishing after its passes consumed their
//!   changed lists), the directory sweeps every live lane's reporting
//!   positions into 16-byte (id, lane, position) records and sorts them by
//!   id. That order is the new rank order; every rank is then read from the
//!   lane buffers by the same merge.
//!
//! Either way the buffer ends id-ascending with exactly the live engines'
//! reporting cells, so the snapshot and its aggregates do not depend on
//! which path ran.

use crate::snapshot::ServeSnapshot;
use pinnsoc_fleet::{CellId, EstimateBreakdown, EstimateEntry, FleetEngine, SocEstimate};
use std::sync::Arc;

/// One snapshot entry.
type Entry = (CellId, EstimateBreakdown);

/// Placeholder for buffer slots the merge is about to overwrite.
const VACANT: Entry = (
    0,
    EstimateBreakdown {
        best: (0.0, SocEstimate::Coulomb),
        network: None,
        network_fresh: false,
        coulomb: 0.0,
        ekf: None,
        ekf_soc_std: None,
    },
);

/// Rank of a position whose cell has not reported.
const NO_RANK: u32 = u32::MAX;

/// One lane's estimates by engine position, kept by the lane's task.
#[derive(Debug, Default)]
pub(crate) struct LaneEstimates {
    /// One entry per engine position; positions whose cell has not
    /// reported hold a placeholder.
    entries: Vec<EstimateEntry>,
    /// The engine's membership epoch when `entries` were last brought up
    /// to date, or `None` while they are not known to be current.
    epoch: Option<u64>,
}

impl LaneEstimates {
    /// Marks the entries stale ahead of anything that may change the
    /// engine without a [`Self::refresh`] after it (a pass that can fail,
    /// a new engine), and returns the epoch they were current at.
    pub(crate) fn invalidate(&mut self) -> Option<u64> {
        self.epoch.take()
    }

    /// Makes room for an engine of `cells` cells. The tier calls this on
    /// the tick thread before the lane's task runs, so the buffer comes
    /// from the tier thread's allocator arena. Grown by a lane-pool helper
    /// instead, it cost ≈ 2 MB more peak RSS (four lanes of 25k cells,
    /// glibc): memory freed into a helper's arena is not reused by other
    /// threads.
    pub(crate) fn reserve(&mut self, cells: usize) {
        self.entries
            .reserve_exact(cells.saturating_sub(self.entries.len()));
    }

    /// Brings the entries up to date after the engine's pass. If they were
    /// current at the engine's present epoch (`known`, from
    /// [`Self::invalidate`]), positions held and only the cells the pass
    /// changed are rewritten; otherwise every position is.
    pub(crate) fn refresh(&mut self, engine: &FleetEngine, known: Option<u64>) {
        let epoch = engine.membership_epoch();
        let entries = &mut self.entries;
        if known != Some(epoch) {
            entries.clear();
            entries.resize(engine.len(), EstimateEntry::default());
            engine.for_each_entry(|position, entry| entries[position] = entry);
        } else {
            engine.for_each_changed_entry(|position, entry| entries[position] = entry);
        }
        self.epoch = Some(epoch);
    }
}

/// Where the cell at one rank lives.
#[derive(Debug, Clone, Copy)]
struct Location {
    lane: u32,
    position: u32,
}

/// Engine position ↔ rank in id order, valid while membership holds.
#[derive(Debug, Default)]
pub(crate) struct IdDirectory {
    /// Each lane's membership epoch when the ranks were last built
    /// (`None` for a lane that was down).
    epochs: Vec<Option<u64>>,
    /// Each lane's rank per engine position (`NO_RANK` if not reporting).
    ranks: Vec<Vec<u32>>,
    /// The id at each rank, ascending: the id column of every snapshot
    /// published until the next rebuild, which all share it.
    ids: Arc<[CellId]>,
    /// The cell at each rank.
    locations: Vec<Location>,
    /// Ranks whose cells this tick's passes changed.
    changed: Vec<u64>,
    /// Ranks at which the buffer published last tick (reclaimed next
    /// tick) is behind the one published this tick.
    behind: Vec<u64>,
}

/// One placed tick: the id-ascending cells and their id and SoC columns.
pub(crate) struct Placed {
    pub(crate) cells: Vec<Entry>,
    pub(crate) ids: Arc<[CellId]>,
    pub(crate) socs: Vec<f64>,
    /// Whether the ranks were rebuilt.
    pub(crate) rebuilt: bool,
    /// Ranks read from the lane buffers (every rank on a rebuild).
    pub(crate) read: usize,
}

impl IdDirectory {
    /// Places this tick's cells, given each lane's engine and refreshed
    /// estimates (`None` while down), the `current` snapshot (published
    /// last tick), and the buffers published the tick before, if no reader
    /// still holds them. `rebuild` forces a rebuild.
    pub(crate) fn place<'e>(
        &mut self,
        lanes: usize,
        live: impl Fn(usize) -> Option<(&'e FleetEngine, &'e LaneEstimates)>,
        current: &ServeSnapshot,
        reclaimed: Option<ServeSnapshot>,
        rebuild: bool,
    ) -> Placed {
        let engine = |lane| live(lane).map(|(engine, _)| engine);
        let rebuild = rebuild
            || self.epochs.len() != lanes
            || (0..lanes)
                .any(|lane| self.epochs[lane] != engine(lane).map(FleetEngine::membership_epoch));
        if rebuild {
            self.rebuild(lanes, &engine);
        } else {
            for lane in 0..lanes {
                let Some(engine) = engine(lane) else { continue };
                let ranks = &self.ranks[lane];
                engine.for_each_changed(|position| {
                    let rank = ranks[position] as usize;
                    self.changed[rank / 64] |= 1 << (rank % 64);
                });
            }
        }
        // Each live lane's estimates, current at the epoch just ranked.
        let estimates: Vec<&[EstimateEntry]> = (0..lanes)
            .map(|lane| match live(lane) {
                Some((engine, estimates)) => {
                    debug_assert_eq!(
                        estimates.epoch,
                        Some(engine.membership_epoch()),
                        "lane {lane} publishes a stale estimate buffer"
                    );
                    &estimates.entries[..]
                }
                None => &[],
            })
            .collect();
        let (mut cells, mut socs) = match reclaimed {
            Some(snapshot) => (snapshot.cells, snapshot.socs),
            None if rebuild => Default::default(),
            // A reader still pins the old buffers: start from a copy of
            // the current ones, which miss only this tick's changes.
            None => {
                self.behind.fill(0);
                (current.cells.clone(), current.socs.clone())
            }
        };
        let len = self.locations.len();
        cells.resize(len, VACANT);
        socs.resize(len, 0.0);
        let mut read = 0;
        for word in 0..self.changed.len() {
            let fresh = std::mem::take(&mut self.changed[word]);
            let mut bits = fresh | std::mem::replace(&mut self.behind[word], fresh);
            read += fresh.count_ones() as usize;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let rank = word * 64 + bit as usize;
                if fresh >> bit & 1 == 1 {
                    let at = self.locations[rank];
                    let breakdown = estimates[at.lane as usize][at.position as usize].breakdown();
                    cells[rank] = (self.ids[rank], breakdown);
                    socs[rank] = breakdown.best.0;
                } else {
                    cells[rank] = current.cells[rank];
                    socs[rank] = current.socs[rank];
                }
            }
        }
        Placed {
            cells,
            ids: Arc::clone(&self.ids),
            socs,
            rebuilt: rebuild,
            read,
        }
    }

    /// Ranks every live lane's reporting cells afresh and marks every rank
    /// changed, in the buffer being filled and the one reclaimed next tick.
    fn rebuild<'e>(&mut self, lanes: usize, engine: &impl Fn(usize) -> Option<&'e FleetEngine>) {
        self.epochs.clear();
        self.epochs
            .extend((0..lanes).map(|lane| engine(lane).map(FleetEngine::membership_epoch)));
        self.ranks.resize_with(lanes, Vec::new);
        let mut records = Vec::new();
        for lane in 0..lanes {
            self.ranks[lane].clear();
            let Some(engine) = engine(lane) else { continue };
            self.ranks[lane].resize(engine.len(), NO_RANK);
            engine.for_each_reporting(|position, id| {
                let position = u32::try_from(position).expect("engine positions fit in u32");
                records.push((
                    id,
                    Location {
                        lane: lane as u32,
                        position,
                    },
                ));
            });
        }
        // Ids are unique across the tier, so this ranks every cell.
        records.sort_unstable_by_key(|&(id, _)| id);
        self.ids = records.iter().map(|&(id, _)| id).collect();
        self.locations.clear();
        self.locations.extend(records.iter().map(|&(_, at)| at));
        for (rank, at) in self.locations.iter().enumerate() {
            self.ranks[at.lane as usize][at.position as usize] = rank as u32;
        }
        let len = self.locations.len();
        self.changed.clear();
        self.changed.extend(
            (0..len)
                .step_by(64)
                .map(|start| !0 >> (64 - (len - start).min(64))),
        );
        self.behind.clear();
        self.behind.resize(self.changed.len(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinnsoc_fleet::testing::untrained_model;
    use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};

    fn engine(shards: usize) -> FleetEngine {
        FleetEngine::new(
            untrained_model(),
            FleetConfig {
                shards,
                workers: 1,
                ..FleetConfig::default()
            },
        )
    }

    fn register(engine: &mut FleetEngine, id: CellId) {
        engine.register(
            id,
            CellConfig {
                initial_soc: 0.5,
                capacity_ah: 2.5,
            },
        );
    }

    fn report(engine: &mut FleetEngine, id: CellId, time_s: f64) {
        engine.ingest(
            id,
            Telemetry {
                time_s,
                voltage_v: 3.5 + 0.01 * id as f64,
                current_a: 1.0,
                temperature_c: 25.0,
            },
        );
    }

    /// One tier's worth of state: the directory, each lane's estimates,
    /// the published snapshot and the one before it.
    struct Tier {
        dir: IdDirectory,
        estimates: Vec<LaneEstimates>,
        current: ServeSnapshot,
        displaced: Option<ServeSnapshot>,
    }

    impl Tier {
        fn new() -> Self {
            Tier {
                dir: IdDirectory::default(),
                estimates: Vec::new(),
                current: ServeSnapshot::empty(),
                displaced: None,
            }
        }

        /// Runs each engine's pass and refreshes its lane's estimates,
        /// places and publishes, checks the snapshot against a
        /// sweep-and-sort build, and returns whether the directory rebuilt
        /// and how many ranks it read.
        fn tick(&mut self, engines: &mut [Option<FleetEngine>], pinned: bool) -> (bool, usize) {
            self.estimates
                .resize_with(engines.len(), LaneEstimates::default);
            for (engine, estimates) in engines.iter_mut().zip(&mut self.estimates) {
                // A lane that is down comes back with a new engine.
                let known = estimates.invalidate();
                if let Some(engine) = engine {
                    engine.process_pending();
                    estimates.refresh(engine, known);
                }
            }
            let reclaimed = if pinned { None } else { self.displaced.take() };
            let estimates = &self.estimates;
            let placed = self.dir.place(
                engines.len(),
                |lane| engines[lane].as_ref().map(|e| (e, &estimates[lane])),
                &self.current,
                reclaimed,
                false,
            );
            let next = ServeSnapshot::build(0, 0, 0, placed.cells, placed.ids, placed.socs);
            self.displaced = Some(std::mem::replace(&mut self.current, next));
            let mut expected = Vec::new();
            for engine in engines.iter().flatten() {
                engine.for_each_breakdown(|id, b| expected.push((id, b.best.0.to_bits())));
            }
            expected.sort_unstable_by_key(|(id, _)| *id);
            let got: Vec<_> = self
                .current
                .cells
                .iter()
                .map(|(id, b)| (*id, b.best.0.to_bits()))
                .collect();
            assert_eq!(got, expected);
            (placed.rebuilt, placed.read)
        }
    }

    #[test]
    fn steady_ticks_patch_only_changed_ranks() {
        let mut engines = [Some(engine(2)), Some(engine(3))];
        let mut tier = Tier::new();
        for id in 0..40 {
            register(engines[(id % 2) as usize].as_mut().unwrap(), id);
        }
        for id in 0..40 {
            report(engines[(id % 2) as usize].as_mut().unwrap(), id, 1.0);
        }
        assert_eq!(tier.tick(&mut engines, false), (true, 40));
        // Nothing reported: nothing read, and the reclaimed buffer (two
        // ticks old) catches up from the current snapshot.
        assert_eq!(tier.tick(&mut engines, false), (false, 0));
        for (time_s, id) in [(2.0, 7), (2.0, 30), (3.0, 7)] {
            report(engines[(id % 2) as usize].as_mut().unwrap(), id, time_s);
        }
        assert_eq!(tier.tick(&mut engines, false), (false, 2));
        report(engines[1].as_mut().unwrap(), 9, 2.0);
        // A pinned old buffer: the tick patches a copy of the current one.
        assert_eq!(tier.tick(&mut engines, true), (false, 1));
        assert_eq!(tier.tick(&mut engines, false), (false, 0));
    }

    type Lanes = [Option<FleetEngine>; 2];

    #[test]
    fn every_kind_of_membership_change_rebuilds() {
        let mut engines = [Some(engine(2)), Some(engine(1))];
        let mut tier = Tier::new();
        for id in 0..10 {
            register(engines[(id % 2) as usize].as_mut().unwrap(), id);
            report(engines[(id % 2) as usize].as_mut().unwrap(), id, 1.0);
        }
        assert!(tier.tick(&mut engines, false).0);
        let changes: [&dyn Fn(&mut Lanes); 5] = [
            // Registering a cell that has not reported yet.
            &|e| register(e[0].as_mut().unwrap(), 20),
            // Its first report.
            &|e| report(e[0].as_mut().unwrap(), 20, 1.0),
            &|e| {
                e[1].as_mut().unwrap().deregister(3);
            },
            // A lane going down, then coming back.
            &|e| e[1] = None,
            &|e| {
                let mut back = engine(1);
                register(&mut back, 5);
                report(&mut back, 5, 1.0);
                e[1] = Some(back);
            },
        ];
        for (i, change) in changes.iter().enumerate() {
            change(&mut engines);
            assert!(tier.tick(&mut engines, false).0, "change {i} must rebuild");
            assert!(!tier.tick(&mut engines, false).0, "change {i} then holds");
        }
    }
}
