//! Read-side snapshots: immutable, id-sorted views of the whole tier,
//! published once per tick and queried without ever touching the engines.
//!
//! ## Consistency model
//!
//! - A snapshot is **tick-atomic**: it reflects every frame drained up to
//!   one tick boundary and nothing later. Readers never see a half-applied
//!   tick.
//! - Readers are **wait-free in practice**: [`SnapshotReader::snapshot`]
//!   holds the publish lock only long enough to clone an `Arc` (no
//!   allocation, no engine access); all query work — histograms,
//!   threshold scans, per-cell lookups — runs against the reader's own
//!   pinned snapshot. A reader iterating a snapshot for minutes costs the
//!   tick loop nothing but delayed buffer reuse.
//! - The tick loop **double-buffers**: publishing swaps an `Arc` pointer
//!   and hands the previous snapshot back; one tick later, once no reader
//!   holds it, its buffers are reclaimed (`Arc::try_unwrap`) and brought
//!   up to date by patching only the ranks that changed in the two ticks
//!   since it was current. A steady tick therefore allocates nothing and
//!   costs what changed, not what exists. If a reader still pins the old
//!   snapshot, the tick clones the current one and patches the clone.
//! - Aggregates are **order-free**: [`SocAggregate`] sums SoCs in integer
//!   fixed point and keeps min and max with their counts, so any order
//!   and any split into partials give the same bits. Each lane keeps its
//!   own cells' partial up to date in its refresh, and publish merges one
//!   partial per live lane. That, and placing cells by id rank, is what
//!   makes tier outputs bit-identical across engine counts, per-engine
//!   shard counts, and worker counts, and equal to
//!   [`pinnsoc_fleet::FleetEngine::stats`] over the same cells. Each
//!   snapshot keeps id and best-estimate SoC columns beside its cells; the
//!   histogram, the threshold scan and the id lookup stream those 8-byte
//!   columns, not the 88-byte entries.
//! - A snapshot is built without reading engine cell state. Each lane
//!   keeps its engine's estimates in a position-indexed buffer, refreshed
//!   by the lane's own task right after its pass (in parallel across
//!   lanes). The tier's id directory (`directory` module) maps each engine
//!   position to its rank in id order and merges the changed ranks from
//!   those buffers into the reclaimed snapshot, in rank order. Only a
//!   membership change (register, deregister, a cell's first report, a
//!   lane crash or recovery) ranks the cells afresh. Patch and rebuild
//!   both hand [`ServeSnapshot`] the same id-ascending cells, so its
//!   contents do not depend on which one ran. Merging the lanes'
//!   aggregates is the last step of a publish; debug builds check the
//!   result against a fold of the published SoC column.

use pinnsoc_fleet::{CellId, EstimateBreakdown, FleetStats, SocAggregate};
use std::sync::{Arc, RwLock};

/// An immutable view of every reporting cell in the tier at one tick
/// boundary, sorted by cell id.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// The tier tick this snapshot was published at (0 = the empty
    /// pre-first-tick snapshot).
    pub tick: u64,
    /// Registered cells across all live engines (reporting or not).
    pub registered: usize,
    /// Engines that contributed (crashed lanes are excluded until
    /// recovered).
    pub live_engines: usize,
    /// `(id, breakdown)` for every reporting cell, ascending by id.
    pub cells: Vec<(CellId, EstimateBreakdown)>,
    /// Each cell's id and best-estimate SoC, in the same order as `cells`
    /// (snapshots with the same cells share one id column).
    pub(crate) ids: Arc<[CellId]>,
    pub(crate) socs: Vec<f64>,
    stats: FleetStats,
}

impl ServeSnapshot {
    /// The empty snapshot readers see before the first tick.
    pub fn empty() -> Self {
        Self::build(
            0,
            0,
            0,
            Vec::new(),
            Arc::default(),
            Vec::new(),
            SocAggregate::EMPTY,
        )
    }

    /// Builds a snapshot from id-ascending cells, their id and
    /// best-estimate SoC columns, and the aggregate of that SoC column.
    pub(crate) fn build(
        tick: u64,
        registered: usize,
        live_engines: usize,
        cells: Vec<(CellId, EstimateBreakdown)>,
        ids: Arc<[CellId]>,
        socs: Vec<f64>,
        aggregate: SocAggregate,
    ) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "snapshot cells must be strictly id-ascending"
        );
        debug_assert!(
            cells.len() == ids.len()
                && cells.len() == socs.len()
                && cells
                    .iter()
                    .zip(ids.iter().zip(&socs))
                    .all(|((id, b), (i, soc))| { id == i && b.best.0.to_bits() == soc.to_bits() }),
            "the id and SoC columns must mirror the cells"
        );
        debug_assert_eq!(
            aggregate,
            SocAggregate::fold(socs.iter().copied()),
            "the kept aggregate must equal a fold of the SoC column"
        );
        let stats = aggregate.finish(registered);
        ServeSnapshot {
            tick,
            registered,
            live_engines,
            cells,
            ids,
            socs,
            stats,
        }
    }

    /// Fleet-level summary over the snapshot's reporting cells (order-free,
    /// so bit-stable across tier topology).
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// One cell's full per-estimator breakdown, by binary search.
    pub fn breakdown(&self, id: CellId) -> Option<&EstimateBreakdown> {
        self.ids
            .binary_search(&id)
            .ok()
            .map(|rank| &self.cells[rank].1)
    }

    /// Histogram of best-estimate SoC over the whole tier, binned by
    /// [`pinnsoc_fleet::soc_histogram`]: `bins` equal buckets over
    /// `[0, 1]`, last bucket closed.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn soc_histogram(&self, bins: usize) -> Vec<usize> {
        pinnsoc_fleet::soc_histogram(self.socs.iter().copied(), bins)
    }

    /// Ids of reporting cells whose best estimate is below `threshold`,
    /// ascending (already sorted — the cells are in id order).
    pub fn cells_below(&self, threshold: f64) -> Vec<CellId> {
        self.ids
            .iter()
            .zip(&self.socs)
            .filter(|(_, &soc)| soc < threshold)
            .map(|(&id, _)| id)
            .collect()
    }
}

/// The publish point: a single `Arc` swap per tick.
#[derive(Debug)]
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<ServeSnapshot>>,
}

impl SnapshotSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SnapshotSlot {
            current: RwLock::new(Arc::new(ServeSnapshot::empty())),
        })
    }

    /// Swaps in `next` and returns the displaced snapshot so the tick
    /// loop can reclaim its buffer once readers let go.
    pub(crate) fn publish(&self, next: Arc<ServeSnapshot>) -> Arc<ServeSnapshot> {
        let mut guard = self.current.write().expect("snapshot lock poisoned");
        std::mem::replace(&mut *guard, next)
    }

    pub(crate) fn load(&self) -> Arc<ServeSnapshot> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }
}

/// A cloneable read handle: pin the current snapshot with
/// [`snapshot`](Self::snapshot), then query it for as long as needed
/// without affecting the tick loop.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    pub(crate) slot: Arc<SnapshotSlot>,
}

impl SnapshotReader {
    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.slot.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinnsoc_fleet::SocEstimate;

    fn cell(id: CellId, soc: f64) -> (CellId, EstimateBreakdown) {
        (
            id,
            EstimateBreakdown {
                best: (soc, SocEstimate::Coulomb),
                network: None,
                network_fresh: false,
                coulomb: soc,
                ekf: None,
                ekf_soc_std: None,
            },
        )
    }

    fn build(
        tick: u64,
        registered: usize,
        cells: Vec<(CellId, EstimateBreakdown)>,
    ) -> ServeSnapshot {
        let ids = cells.iter().map(|(id, _)| *id).collect();
        let socs: Vec<f64> = cells.iter().map(|(_, b)| b.best.0).collect();
        let aggregate = SocAggregate::fold(socs.iter().copied());
        ServeSnapshot::build(tick, registered, 1, cells, ids, socs, aggregate)
    }

    #[test]
    fn build_aggregates_in_id_order() {
        let snap = build(3, 5, vec![cell(1, 0.8), cell(4, 0.5), cell(9, 0.2)]);
        let stats = snap.stats();
        assert_eq!(stats.cells, 5);
        assert_eq!(stats.reporting, 3);
        assert_eq!(stats.min_soc, 0.2);
        assert_eq!(stats.max_soc, 0.8);
        // Id order is 1, 4, 9 → 0.8, 0.5, 0.2; the fixed-point sum of these
        // is exactly 1.5, which the id-order float sum also gives.
        let expected: f64 = (0.8 + 0.5 + 0.2) / 3.0;
        assert_eq!(expected.to_bits(), 0.5f64.to_bits());
        assert_eq!(stats.mean_soc.to_bits(), expected.to_bits());
        // The aggregate is order-free: a permutation gives the same bits.
        let permuted = FleetStats::fold(5, [0.2, 0.8, 0.5]);
        assert_eq!(stats.mean_soc.to_bits(), permuted.mean_soc.to_bits());
        assert_eq!(snap.breakdown(4).expect("present").best.0, 0.5);
        assert!(snap.breakdown(2).is_none());
        assert_eq!(snap.cells_below(0.6), vec![4, 9]);
        // 0.2 → bin 0; 0.5 and 0.8 → bin 1 (half-open buckets).
        assert_eq!(snap.soc_histogram(2), vec![1, 2]);
    }

    #[test]
    fn empty_snapshot_is_well_formed() {
        let snap = ServeSnapshot::empty();
        assert_eq!(snap.stats().reporting, 0);
        assert_eq!(snap.stats().mean_soc, 0.0);
        assert!(snap.cells_below(1.0).is_empty());
        assert_eq!(snap.soc_histogram(4), vec![0; 4]);
    }

    #[test]
    fn publish_swaps_and_returns_previous() {
        let slot = SnapshotSlot::new();
        let reader = SnapshotReader {
            slot: Arc::clone(&slot),
        };
        let pinned = reader.snapshot();
        assert_eq!(pinned.tick, 0);
        let prev = slot.publish(Arc::new(build(1, 0, Vec::new())));
        assert_eq!(prev.tick, 0);
        // The pinned snapshot stays valid after the swap...
        assert_eq!(pinned.tick, 0);
        // ...and new reads see the fresh one.
        assert_eq!(reader.snapshot().tick, 1);
    }
}
