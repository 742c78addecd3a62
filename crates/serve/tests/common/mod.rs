//! The sweep-and-sort oracle the tier tests share: every live engine's
//! reporting cells swept, sorted by id and folded in id order, compared
//! bit for bit with what a published snapshot holds and answers.

use pinnsoc_fleet::{CellId, EstimateBreakdown, SocEstimate};
use pinnsoc_serve::{ServeSnapshot, ServeTier};

/// Bin counts and thresholds every snapshot is queried with.
pub const BINS: [usize; 3] = [1, 7, 32];
pub const THRESHOLDS: [f64; 4] = [0.0, 0.3, 0.55, 1.0];

/// Every field of one breakdown, bit-exact.
pub type Bits = (
    u64,
    SocEstimate,
    Option<u64>,
    bool,
    u64,
    Option<u64>,
    Option<u64>,
);

/// Every field of `b`, bit-exact.
pub fn bits(b: &EstimateBreakdown) -> Bits {
    (
        b.best.0.to_bits(),
        b.best.1,
        b.network.map(f64::to_bits),
        b.network_fresh,
        b.coulomb.to_bits(),
        b.ekf.map(f64::to_bits),
        b.ekf_soc_std.map(f64::to_bits),
    )
}

/// A snapshot's cells, aggregates and query answers, bit-exact.
#[derive(Debug, PartialEq)]
pub struct Published {
    pub cells: Vec<(CellId, Bits)>,
    pub registered: usize,
    pub reporting: usize,
    pub mean_min_max: [u64; 3],
    pub histograms: Vec<Vec<usize>>,
    pub below: Vec<Vec<CellId>>,
}

/// What `snapshot` holds and answers, bit-exact.
pub fn published(snapshot: &ServeSnapshot) -> Published {
    let stats = snapshot.stats();
    assert_eq!(stats.cells, snapshot.registered);
    Published {
        cells: snapshot
            .cells
            .iter()
            .map(|(id, b)| (*id, bits(b)))
            .collect(),
        registered: stats.cells,
        reporting: stats.reporting,
        mean_min_max: [
            stats.mean_soc.to_bits(),
            stats.min_soc.to_bits(),
            stats.max_soc.to_bits(),
        ],
        histograms: BINS.iter().map(|&k| snapshot.soc_histogram(k)).collect(),
        below: THRESHOLDS
            .iter()
            .map(|&t| snapshot.cells_below(t))
            .collect(),
    }
}

/// The sweep-and-sort build: every live engine's reporting cells, sorted
/// by id, with the aggregates folded in id order.
pub fn sweep_and_sort(tier: &ServeTier) -> Published {
    let mut cells = Vec::new();
    let mut registered = 0;
    for e in 0..tier.engines() {
        if let Some(engine) = tier.engine(e) {
            registered += engine.len();
            engine.for_each_breakdown(|id, b| cells.push((id, b)));
        }
    }
    cells.sort_unstable_by_key(|(id, _)| *id);
    let (mut sum, mut min, mut max) = (0.0, f64::MAX, f64::MIN);
    for (_, b) in &cells {
        sum += b.best.0;
        min = min.min(b.best.0);
        max = max.max(b.best.0);
    }
    let mean_min_max = if cells.is_empty() {
        [0f64.to_bits(); 3]
    } else {
        [
            (sum / cells.len() as f64).to_bits(),
            min.to_bits(),
            max.to_bits(),
        ]
    };
    // Equal buckets over [0, 1], the last one closed.
    let histogram = |bins: usize| {
        let mut counts = vec![0; bins];
        for (_, b) in &cells {
            counts[((b.best.0 * bins as f64) as usize).min(bins - 1)] += 1;
        }
        counts
    };
    let below = |threshold: f64| {
        cells
            .iter()
            .filter(|(_, b)| b.best.0 < threshold)
            .map(|(id, _)| *id)
            .collect()
    };
    Published {
        cells: cells.iter().map(|(id, b)| (*id, bits(b))).collect(),
        registered,
        reporting: cells.len(),
        mean_min_max,
        histograms: BINS.iter().map(|&k| histogram(k)).collect(),
        below: THRESHOLDS.iter().map(|&t| below(t)).collect(),
    }
}
