//! Fleet-level SoC aggregates whose bits do not depend on the order the
//! SoCs are folded in.
//!
//! [`SocAggregate`] sums SoCs in integer fixed point, so any order, and any
//! split into partials merged later, gives the same sum; min and max carry
//! how many values hold them, so values can also be removed. The engine's
//! [`crate::FleetEngine::stats`] (shard order) and the serve tier's
//! snapshots (per-lane partials kept up to date by the lanes, merged at
//! publish) therefore report the same bits for the same cells.

/// Fixed-point unit of the sum: a SoC in `[0, 1]` counts as
/// `soc · 2⁵²` rounded to the nearest integer (ties to even), read off the
/// bits of `soc + 1`; see [`fixed`].
const UNIT: f64 = (1u64 << 52) as f64;

/// Fleet-level summary statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Registered cells.
    pub cells: usize,
    /// Cells with at least one accepted telemetry report.
    pub reporting: usize,
    /// Mean best-estimate SoC over reporting cells (0 when none report;
    /// NaN when any reports a NaN SoC). See [`SocAggregate::finish`] for
    /// its error bound.
    pub mean_soc: f64,
    /// Minimum best-estimate SoC over reporting cells, NaN SoCs ignored
    /// (0 when none report, NaN when all report NaN).
    pub min_soc: f64,
    /// Maximum best-estimate SoC over reporting cells, NaN SoCs ignored
    /// (0 when none report, NaN when all report NaN).
    pub max_soc: f64,
}

impl FleetStats {
    /// The summary of a fleet of `registered` cells whose reporting cells
    /// have the best-estimate SoCs `socs`: [`SocAggregate::fold`] then
    /// [`SocAggregate::finish`]. The order of `socs` does not change a
    /// bit of the result.
    pub fn fold(registered: usize, socs: impl IntoIterator<Item = f64>) -> Self {
        SocAggregate::fold(socs).finish(registered)
    }
}

/// An order-free running summary of reporting cells' best-estimate SoCs:
/// how many report, their fixed-point sum, and the min and max with how
/// many values hold each.
///
/// Every value is first made canonical: NaN is counted on its own (it
/// makes the mean NaN and is ignored by min and max); anything else is
/// clamped into `[0, 1]` (best-estimate SoCs already are), and a min or
/// max of zero is stored as +0 whichever zero set it, so min and max are
/// taken over a total order. Folding the same values in any order, or
/// merging any partition of them, therefore gives an equal aggregate,
/// field for field.
///
/// [`Self::remove`] can take away the last copy of the min (or max). The
/// aggregate then knows only that every value left lies above the old min
/// ([`Self::is_exact`] reads false) until an added value at or below it
/// restores it; a caller that keeps a partial up to date rescans its
/// values for the extremes in that case ([`Self::rescan_extremes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocAggregate {
    /// Σ [`fixed`]`(soc)` over non-NaN values.
    sum: i128,
    reporting: usize,
    nan: usize,
    /// The least non-NaN value (+∞ when there is none), or while
    /// `min_count` is 0 a strict lower bound of every value.
    min: f64,
    min_count: usize,
    /// The greatest non-NaN value (−∞ when there is none), or while
    /// `max_count` is 0 a strict upper bound of every value.
    max: f64,
    max_count: usize,
}

impl Default for SocAggregate {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl SocAggregate {
    /// The aggregate of no values.
    pub const EMPTY: Self = SocAggregate {
        sum: 0,
        reporting: 0,
        nan: 0,
        min: f64::INFINITY,
        min_count: 0,
        max: f64::NEG_INFINITY,
        max_count: 0,
    };

    /// The aggregate of `socs`.
    pub fn fold(socs: impl IntoIterator<Item = f64>) -> Self {
        let mut aggregate = Self::EMPTY;
        for soc in socs {
            aggregate.add(soc);
        }
        aggregate
    }

    /// Values counted, NaN included.
    pub fn reporting(&self) -> usize {
        self.reporting
    }

    /// Whether min and max are known: false once [`Self::remove`] took the
    /// last copy of either and no added value has restored it.
    pub fn is_exact(&self) -> bool {
        let empty = self.reporting == self.nan;
        empty || (self.min_count > 0 && self.max_count > 0)
    }

    /// Counts one more value.
    #[inline]
    pub fn add(&mut self, soc: f64) {
        self.reporting += 1;
        let Some(soc) = canonical(soc) else {
            self.nan += 1;
            return;
        };
        self.sum += fixed(soc);
        self.count_extremes(soc);
    }

    /// Takes away one value earlier counted by [`Self::add`].
    #[inline]
    pub fn remove(&mut self, soc: f64) {
        debug_assert!(self.reporting > 0, "removing from an empty aggregate");
        self.reporting -= 1;
        let Some(soc) = canonical(soc) else {
            self.nan -= 1;
            return;
        };
        self.sum -= fixed(soc);
        if self.reporting == self.nan {
            // No value left to bound: back to the empty min and max.
            (self.min, self.min_count) = (f64::INFINITY, 0);
            (self.max, self.max_count) = (f64::NEG_INFINITY, 0);
        } else {
            // The last copy leaves its value behind as a bound. No branch
            // on equality, as in `count_extremes`.
            self.min_count -= usize::from(soc == self.min);
            self.max_count -= usize::from(soc == self.max);
        }
    }

    /// Takes away `count` NaN values earlier counted by [`Self::add`], as
    /// `count` calls of [`Self::remove`]`(f64::NAN)` would.
    pub fn remove_nans(&mut self, count: usize) {
        debug_assert!(self.nan >= count, "removing NaNs that were not counted");
        self.reporting -= count;
        self.nan -= count;
    }

    /// Counts a canonical value into min and max. A value strictly
    /// beyond either is rare after the first few; one equal to either is
    /// not (thousands of cells can sit at a clamped 0), so equality adds
    /// to the counts without a branch a mispredict would make costly.
    #[inline]
    fn count_extremes(&mut self, soc: f64) {
        if soc < self.min || soc > self.max {
            // A zero is stored as +0 whichever zero came first.
            let soc = soc + 0.0;
            // Below a lost min's bound, a value is the new unique min; at
            // the bound it is the only copy of the min.
            if soc < self.min {
                (self.min, self.min_count) = (soc, 1);
            } else if soc == self.min {
                self.min_count += 1;
            }
            if soc > self.max {
                (self.max, self.max_count) = (soc, 1);
            } else if soc == self.max {
                self.max_count += 1;
            }
        } else {
            self.min_count += usize::from(soc == self.min);
            self.max_count += usize::from(soc == self.max);
        }
    }

    /// Recomputes min and max, with how many values hold each, from
    /// `socs`: every value counted, in any order, plus any number of NaNs
    /// (min and max skip them). This makes the aggregate exact again after
    /// [`Self::remove`] took the last copy of an extreme, at the cost of
    /// one compare-only pass; the sum and the counts, which `add` and
    /// `remove` keep exactly, are left as they are.
    pub fn rescan_extremes(&mut self, socs: impl IntoIterator<Item = f64>) {
        let mut extremes = Self::EMPTY;
        for soc in socs.into_iter().filter_map(canonical) {
            extremes.count_extremes(soc);
        }
        (self.min, self.min_count) = (extremes.min, extremes.min_count);
        (self.max, self.max_count) = (extremes.max, extremes.max_count);
        debug_assert!(self.is_exact(), "rescanned values must be the counted ones");
    }

    /// Counts every value `other` counts.
    pub fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.reporting += other.reporting;
        self.nan += other.nan;
        if other.min < self.min {
            (self.min, self.min_count) = (other.min, other.min_count);
        } else if other.min == self.min {
            self.min_count += other.min_count;
        }
        if other.max > self.max {
            (self.max, self.max_count) = (other.max, other.max_count);
        } else if other.max == self.max {
            self.max_count += other.max_count;
        }
    }

    /// The summary of a fleet of `registered` cells whose reporting cells
    /// are the values counted.
    ///
    /// With `n` values counted, none NaN, and μ the exact mean of their
    /// canonical values, `mean_soc` is `fl(fl(S) · 2⁻⁵² / n)` for the
    /// exact integer sum `S`: rounding each value to the fixed-point unit
    /// moves it at most 2⁻⁵³, and each of the two float roundings at most
    /// 2⁻⁵³ relative, so `|mean_soc − μ| ≤ 2⁻⁵² + 2⁻⁵¹ · μ` (under
    /// 6.7 · 10⁻¹⁶, as μ ≤ 1).
    pub fn finish(&self, registered: usize) -> FleetStats {
        debug_assert!(self.is_exact(), "min or max lost to a removal");
        let mut stats = FleetStats {
            cells: registered,
            reporting: self.reporting,
            mean_soc: 0.0,
            min_soc: 0.0,
            max_soc: 0.0,
        };
        if self.reporting == 0 {
            return stats;
        }
        stats.mean_soc = if self.nan > 0 {
            f64::NAN
        } else {
            self.sum as f64 / UNIT / self.reporting as f64
        };
        (stats.min_soc, stats.max_soc) = if self.reporting == self.nan {
            (f64::NAN, f64::NAN)
        } else {
            (self.min, self.max)
        };
        stats
    }
}

/// `None` for NaN; any other value clamped into `[0, 1]`. A value already
/// in range (−0 included, which compares equal to +0) passes untouched
/// after one range check, the only cost on the hot path.
#[inline]
fn canonical(soc: f64) -> Option<f64> {
    if (0.0..=1.0).contains(&soc) {
        Some(soc)
    } else {
        out_of_range(soc)
    }
}

#[cold]
fn out_of_range(soc: f64) -> Option<f64> {
    (!soc.is_nan()).then(|| soc.clamp(0.0, 1.0))
}

/// A canonical value's fixed-point count: `soc + 1` lies in `[1, 2]`,
/// where doubles are spaced 2⁻⁵² apart, so the float addition rounds
/// `soc` to the unit and the bits past 1.0 count the units (2⁵² for
/// 1.0). An add and a subtract, with no saturating float-to-integer
/// conversion.
#[inline]
fn fixed(soc: f64) -> i128 {
    i128::from((soc + 1.0).to_bits() - 1f64.to_bits())
}
