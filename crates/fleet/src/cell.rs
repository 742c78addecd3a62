//! Per-cell state tracked by the fleet engine, stored structure-of-arrays.
//!
//! The serving hot path touches a few fields of *every* cell each tick
//! (latest telemetry for the feature gather, the network-estimate pair for
//! the scatter). A struct-per-cell layout drags the cold fields (Coulomb
//! counter, EKF, counters) through cache on every hot access; splitting the
//! state into parallel arrays ([`CellStore`]) keeps each stage streaming
//! over exactly the bytes it needs: batch assembly gathers `(V, I, T)`
//! straight from three contiguous arrays into the input matrix, and results
//! scatter back with linear writes.

use crate::telemetry::{CellId, Telemetry};
use pinnsoc::SocModel;
use pinnsoc_battery::{CellParams, CoulombCounter, EkfEstimator, EkfState, Soc};
use pinnsoc_nn::Matrix;

/// Complete persisted state of one cell — everything [`CellStore`] tracks
/// besides the transient coalescing generation, flattened for durable
/// snapshots.
///
/// [`CellStore::import_cell`] with this record reproduces a slot whose
/// subsequent absorbs and estimates are bit-identical to the exported
/// cell's. `net_time_s` keeps the raw sentinel encoding (`-inf` for "no
/// network estimate"), so the pair round-trips through `f64::to_bits`
/// without a separate flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPersist {
    /// The cell's fleet-unique id.
    pub id: CellId,
    /// Rated capacity, amp-hours.
    pub capacity_ah: f64,
    /// Latest accepted telemetry fields (valid iff `reports > 0`).
    pub time_s: f64,
    /// Latest accepted terminal voltage, volts.
    pub voltage_v: f64,
    /// Latest accepted current, amps.
    pub current_a: f64,
    /// Latest accepted temperature, °C.
    pub temperature_c: f64,
    /// Telemetry reports accepted since registration.
    pub reports: u64,
    /// Timestamp the latest network estimate covers (`-inf` when none).
    pub net_time_s: f64,
    /// Latest network estimate value.
    pub net_soc: f64,
    /// Running Coulomb-integrated SoC.
    pub coulomb_soc: f64,
    /// Coulomb counter's current-sensor bias, amps.
    pub coulomb_bias_a: f64,
    /// EKF fallback state, when the engine enables the fallback.
    pub ekf: Option<EkfState>,
}

/// Registration-time description of one cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Assumed SoC at registration (seeds the Coulomb integrator and the
    /// EKF, when enabled). Clamped into `[0, 1]`.
    pub initial_soc: f64,
    /// Rated capacity, amp-hours.
    pub capacity_ah: f64,
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            initial_soc: 1.0,
            capacity_ah: 3.0,
        }
    }
}

/// Where a cell's current best SoC estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocEstimate {
    /// Batched Branch-1 network estimate from the latest telemetry.
    Network,
    /// Running Coulomb integration (no network pass has covered the latest
    /// telemetry yet).
    Coulomb,
    /// Extended Kalman filter fallback (enabled per-engine).
    Ekf,
}

/// What [`CellStore::absorb`] did with one telemetry report. Rejections are
/// counted by the engine's [`crate::engine::TelemetryStats`] instead of
/// being silently dropped — transport faults (out-of-order delivery, gateway
/// NaNs, duplicated frames) are facts about the fleet a production operator
/// needs to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbOutcome {
    /// Integrated and recorded as the cell's latest telemetry.
    Accepted,
    /// Accepted with a timestamp equal to the previous report's (a sensor
    /// re-read or a duplicated frame): the latest fields are overwritten but
    /// nothing is integrated over the zero-length interval.
    DuplicateTimestamp,
    /// Rejected without changes: a non-finite field (gateway glitch).
    NonFinite,
    /// Rejected without changes: timestamp older than the latest accepted
    /// report (out-of-order delivery or clock skew).
    TimeReversed,
}

impl AbsorbOutcome {
    /// Whether the report was folded into the cell state.
    pub fn accepted(self) -> bool {
        matches!(
            self,
            AbsorbOutcome::Accepted | AbsorbOutcome::DuplicateTimestamp
        )
    }
}

/// Per-estimator view of one cell's current SoC estimates — the closed-loop
/// validation seam: `pinnsoc-scenario` scores each estimator against the
/// ground-truth simulator separately, not just the engine's `best` pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateBreakdown {
    /// The engine's best estimate and its source (same policy as
    /// [`CellStore::estimate`]).
    pub best: (f64, SocEstimate),
    /// Latest batched network estimate, clamped into `[0, 1]`; `None` until
    /// a batch pass has covered the cell. May be stale — see
    /// [`EstimateBreakdown::network_fresh`].
    pub network: Option<f64>,
    /// Whether the network estimate covers the latest accepted telemetry.
    pub network_fresh: bool,
    /// Running Coulomb-integrated SoC.
    pub coulomb: f64,
    /// EKF fallback SoC, when the engine enables the fallback.
    pub ekf: Option<f64>,
    /// One-sigma uncertainty of the EKF SoC estimate (square root of its
    /// SoC covariance entry) — the confidence signal online-adaptation
    /// harvesting gates pseudo-labels on. `None` when the fallback is
    /// disabled.
    pub ekf_soc_std: Option<f64>,
}

/// One cell's estimates in 40 bytes: the raw per-estimator values its
/// [`EstimateBreakdown`] (80 bytes) expands from, and the one place the
/// best-estimate policy lives. A layer that keeps every cell's estimates
/// between passes (the serve tier's lanes) stores these.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimateEntry {
    /// Latest network estimate, clamped into `[0, 1]`; meaningful only
    /// with `has_network`.
    network: f64,
    coulomb: f64,
    /// EKF SoC and its one-sigma uncertainty; meaningful only with
    /// `has_ekf`.
    ekf: f64,
    ekf_soc_std: f64,
    has_network: bool,
    network_fresh: bool,
    has_ekf: bool,
}

impl EstimateEntry {
    /// The best estimate and its source: the network estimate when it
    /// covers the latest telemetry, otherwise the EKF (when enabled),
    /// otherwise the Coulomb integral.
    #[inline]
    pub fn best(&self) -> (f64, SocEstimate) {
        if self.network_fresh {
            (self.network, SocEstimate::Network)
        } else if self.has_ekf {
            (self.ekf, SocEstimate::Ekf)
        } else {
            (self.coulomb, SocEstimate::Coulomb)
        }
    }

    /// The full per-estimator breakdown.
    #[inline]
    pub fn breakdown(&self) -> EstimateBreakdown {
        EstimateBreakdown {
            best: self.best(),
            network: self.has_network.then_some(self.network),
            network_fresh: self.network_fresh,
            coulomb: self.coulomb,
            ekf: self.has_ekf.then_some(self.ekf),
            ekf_soc_std: self.has_ekf.then_some(self.ekf_soc_std),
        }
    }
}

/// Sentinel for "no network estimate yet" — strictly older than any finite
/// telemetry timestamp, so the freshness check needs no separate flag.
const NO_ESTIMATE: f64 = f64::NEG_INFINITY;

/// Structure-of-arrays state for every cell of one shard.
///
/// All vectors are parallel: index `slot` across them describes one cell.
/// Hot per-tick fields (`time_s`, `voltage_v`, `current_a`,
/// `temperature_c`, `net_time_s`, `net_soc`) are plain `f64` arrays the
/// batch assembly and scatter stages stream over; integrators and counters
/// live in their own arrays and are only touched at ingest.
#[derive(Debug)]
pub struct CellStore {
    pub(crate) ids: Vec<CellId>,
    pub(crate) capacity_ah: Vec<f64>,
    /// Latest accepted telemetry, split by field. Valid iff
    /// `reports[slot] > 0`.
    pub(crate) time_s: Vec<f64>,
    pub(crate) voltage_v: Vec<f64>,
    pub(crate) current_a: Vec<f64>,
    pub(crate) temperature_c: Vec<f64>,
    /// Telemetry reports accepted since registration.
    pub(crate) reports: Vec<u64>,
    /// Timestamp the latest network estimate covers ([`NO_ESTIMATE`] when
    /// none) and its value.
    pub(crate) net_time_s: Vec<f64>,
    pub(crate) net_soc: Vec<f64>,
    /// Processing-pass generation that last marked the cell dirty — the
    /// shard's O(1) coalescing dedup.
    pub(crate) dirty_generation: Vec<u64>,
    pub(crate) coulomb: Vec<CoulombCounter>,
    /// One EKF per cell when the engine-wide fallback is enabled, empty
    /// otherwise.
    pub(crate) ekf: Vec<EkfEstimator>,
}

impl CellStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            capacity_ah: Vec::new(),
            time_s: Vec::new(),
            voltage_v: Vec::new(),
            current_a: Vec::new(),
            temperature_c: Vec::new(),
            reports: Vec::new(),
            net_time_s: Vec::new(),
            net_soc: Vec::new(),
            dirty_generation: Vec::new(),
            coulomb: Vec::new(),
            ekf: Vec::new(),
        }
    }

    /// Registered cell count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no cells are registered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a cell, seeding its integrators from the config, and returns
    /// its slot. When `ekf_params` is given, the engine-wide parameters are
    /// copied with the per-cell capacity overriding the fleet default —
    /// otherwise heterogeneous fleets would integrate SoC at the wrong rate
    /// whenever the EKF fallback answers.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity_ah` is not positive.
    pub fn push(
        &mut self,
        id: CellId,
        config: &CellConfig,
        ekf_params: Option<&CellParams>,
    ) -> usize {
        let slot = self.ids.len();
        let initial = Soc::clamped(config.initial_soc);
        self.ids.push(id);
        self.capacity_ah.push(config.capacity_ah);
        self.time_s.push(0.0);
        self.voltage_v.push(0.0);
        self.current_a.push(0.0);
        self.temperature_c.push(0.0);
        self.reports.push(0);
        self.net_time_s.push(NO_ESTIMATE);
        self.net_soc.push(0.0);
        self.dirty_generation.push(0);
        self.coulomb
            .push(CoulombCounter::new(initial, config.capacity_ah));
        if let Some(params) = ekf_params {
            let mut params = params.clone();
            params.capacity_ah = config.capacity_ah;
            self.ekf.push(EkfEstimator::new(params, initial));
        }
        slot
    }

    /// Most recent accepted telemetry for `slot`, if any has arrived.
    pub fn latest(&self, slot: usize) -> Option<Telemetry> {
        (self.reports[slot] > 0).then(|| Telemetry {
            time_s: self.time_s[slot],
            voltage_v: self.voltage_v[slot],
            current_a: self.current_a[slot],
            temperature_c: self.temperature_c[slot],
        })
    }

    /// Folds one telemetry report into the slot's running integrators.
    /// Rejected reports (see [`AbsorbOutcome`]) change nothing.
    pub fn absorb(&mut self, slot: usize, t: Telemetry) -> AbsorbOutcome {
        if !t.is_finite() {
            return AbsorbOutcome::NonFinite;
        }
        // First report: nothing to integrate over yet.
        let first = self.reports[slot] == 0;
        let dt = if first {
            0.0
        } else {
            t.time_s - self.time_s[slot]
        };
        if dt < 0.0 {
            return AbsorbOutcome::TimeReversed;
        }
        if dt > 0.0 {
            self.coulomb[slot].update(t.current_a, dt);
            if let Some(ekf) = self.ekf.get_mut(slot) {
                ekf.update(t.current_a, t.voltage_v, t.temperature_c, dt);
            }
        }
        self.time_s[slot] = t.time_s;
        self.voltage_v[slot] = t.voltage_v;
        self.current_a[slot] = t.current_a;
        self.temperature_c[slot] = t.temperature_c;
        self.reports[slot] += 1;
        if first || dt > 0.0 {
            AbsorbOutcome::Accepted
        } else {
            AbsorbOutcome::DuplicateTimestamp
        }
    }

    /// Gathers the normalized Branch-1 feature rows for `slots` straight
    /// from the SoA telemetry arrays into `features` (resized to
    /// `slots.len() × 3`; every element assigned). The single gather
    /// implementation every batch pass shares — the bit-exactness contract
    /// requires all passes to assemble features identically.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or contains an out-of-range slot.
    pub(crate) fn gather_features(&self, slots: &[u32], model: &SocModel, features: &mut Matrix) {
        features.reset_for_overwrite(slots.len(), 3);
        // Hoist the normalization constants and write the flat buffer
        // directly: per element this is the same `(x − mean) / std` f64
        // divide followed by an f32 cast that `Branch1::features` performs,
        // so the gather stays bit-identical to the scalar path while
        // skipping the per-row call and bounds machinery.
        let (means, stds) = model.branch1.norm_stats();
        let (mv, mi, mt) = (means[0], means[1], means[2]);
        let (sv, si, st) = (stds[0], stds[1], stds[2]);
        let out = features.as_mut_slice();
        for (r, &slot) in slots.iter().enumerate() {
            let slot = slot as usize;
            let base = r * 3;
            out[base] = ((self.voltage_v[slot] - mv) / sv) as f32;
            out[base + 1] = ((self.current_a[slot] - mi) / si) as f32;
            out[base + 2] = ((self.temperature_c[slot] - mt) / st) as f32;
        }
    }

    /// Records a batched network estimate covering the slot's latest
    /// telemetry timestamp.
    #[inline]
    pub(crate) fn record_network_estimate(&mut self, slot: usize, soc: f64) {
        self.net_time_s[slot] = self.time_s[slot];
        self.net_soc[slot] = soc;
    }

    /// The best current SoC estimate and its source (see
    /// [`EstimateEntry::best`]). `None` until any telemetry has been
    /// accepted.
    pub fn estimate(&self, slot: usize) -> Option<(f64, SocEstimate)> {
        self.entry(slot).map(|entry| entry.best())
    }

    /// Per-estimator breakdown of the slot's current estimates, or `None`
    /// until any telemetry has been accepted.
    pub fn breakdown(&self, slot: usize) -> Option<EstimateBreakdown> {
        self.entry(slot).map(|entry| entry.breakdown())
    }

    /// The slot's current estimates in compact form, or `None` until any
    /// telemetry has been accepted.
    #[inline]
    pub fn entry(&self, slot: usize) -> Option<EstimateEntry> {
        if self.reports[slot] == 0 {
            return None;
        }
        let ekf = self.ekf.get(slot);
        Some(EstimateEntry {
            // The network output is an unclamped regression value; keep
            // fleet aggregates (histograms, time-to-empty) in-range.
            network: self.net_soc[slot].clamp(0.0, 1.0),
            coulomb: self.coulomb[slot].soc().value(),
            ekf: ekf.map_or(0.0, |e| e.soc().value()),
            ekf_soc_std: ekf.map_or(0.0, EkfEstimator::soc_std),
            has_network: self.net_time_s[slot] > NO_ESTIMATE,
            network_fresh: self.net_time_s[slot] >= self.time_s[slot],
            has_ekf: ekf.is_some(),
        })
    }

    /// Removes the cell at `slot` by swapping the last cell into its place
    /// (O(1); every parallel array moves together). Returns the id of the
    /// moved cell when one changed slots — the caller must repoint its index
    /// entry — or `None` when the removed cell was last.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn swap_remove(&mut self, slot: usize) -> Option<CellId> {
        let last = self.ids.len() - 1;
        self.ids.swap_remove(slot);
        self.capacity_ah.swap_remove(slot);
        self.time_s.swap_remove(slot);
        self.voltage_v.swap_remove(slot);
        self.current_a.swap_remove(slot);
        self.temperature_c.swap_remove(slot);
        self.reports.swap_remove(slot);
        self.net_time_s.swap_remove(slot);
        self.net_soc.swap_remove(slot);
        self.dirty_generation.swap_remove(slot);
        self.coulomb.swap_remove(slot);
        if !self.ekf.is_empty() {
            self.ekf.swap_remove(slot);
        }
        (slot != last).then(|| self.ids[slot])
    }

    /// Predicted seconds until empty at the given constant discharge
    /// current (amps), from the best current estimate. `None` when no
    /// estimate exists yet or the current is not a discharge.
    pub fn time_to_empty_s(&self, slot: usize, discharge_current_a: f64) -> Option<f64> {
        if discharge_current_a <= 0.0 {
            return None;
        }
        let (soc, _) = self.estimate(slot)?;
        Some(soc * 3600.0 * self.capacity_ah[slot] / discharge_current_a)
    }

    /// Exports the slot's complete persisted state (see [`CellPersist`]).
    pub fn export_cell(&self, slot: usize) -> CellPersist {
        CellPersist {
            id: self.ids[slot],
            capacity_ah: self.capacity_ah[slot],
            time_s: self.time_s[slot],
            voltage_v: self.voltage_v[slot],
            current_a: self.current_a[slot],
            temperature_c: self.temperature_c[slot],
            reports: self.reports[slot],
            net_time_s: self.net_time_s[slot],
            net_soc: self.net_soc[slot],
            coulomb_soc: self.coulomb[slot].soc().value(),
            coulomb_bias_a: self.coulomb[slot].sensor_bias_a(),
            ekf: self.ekf.get(slot).map(EkfEstimator::state),
        }
    }

    /// Appends a cell rebuilt from persisted state and returns its slot —
    /// the recovery counterpart of [`Self::push`]. As there, `ekf_params`
    /// must be the engine-wide fallback parameters (the per-cell capacity
    /// overrides the fleet default). The coalescing generation restarts at
    /// zero; it only dedups within a single processing pass.
    ///
    /// # Panics
    ///
    /// Panics if `cell.capacity_ah` is not positive, or if the presence of
    /// `ekf_params` disagrees with the persisted EKF state (the snapshot was
    /// taken under a different fallback configuration).
    pub fn import_cell(&mut self, cell: &CellPersist, ekf_params: Option<&CellParams>) -> usize {
        assert_eq!(
            ekf_params.is_some(),
            cell.ekf.is_some(),
            "EKF fallback configuration mismatch between engine and persisted cell"
        );
        let slot = self.ids.len();
        self.ids.push(cell.id);
        self.capacity_ah.push(cell.capacity_ah);
        self.time_s.push(cell.time_s);
        self.voltage_v.push(cell.voltage_v);
        self.current_a.push(cell.current_a);
        self.temperature_c.push(cell.temperature_c);
        self.reports.push(cell.reports);
        self.net_time_s.push(cell.net_time_s);
        self.net_soc.push(cell.net_soc);
        self.dirty_generation.push(0);
        // A persisted SoC is a former `Soc::value()`, always in [0, 1]:
        // `clamped` is the bit-exact identity there.
        self.coulomb.push(
            CoulombCounter::new(Soc::clamped(cell.coulomb_soc), cell.capacity_ah)
                .with_sensor_bias(cell.coulomb_bias_a),
        );
        if let (Some(params), Some(state)) = (ekf_params, cell.ekf) {
            let mut params = params.clone();
            params.capacity_ah = cell.capacity_ah;
            self.ekf.push(EkfEstimator::from_state(params, state));
        }
        slot
    }

    /// Owned read view of one cell's full tracked state.
    pub fn snapshot(&self, slot: usize) -> CellSnapshot {
        CellSnapshot {
            id: self.ids[slot],
            capacity_ah: self.capacity_ah[slot],
            latest: self.latest(slot),
            coulomb_soc: self.coulomb[slot].soc().value(),
            ekf_soc: self.ekf.get(slot).map(|e| e.soc().value()),
            network_estimate: (self.net_time_s[slot] > NO_ESTIMATE)
                .then(|| (self.net_time_s[slot], self.net_soc[slot])),
            reports: self.reports[slot],
            estimate: self.estimate(slot),
        }
    }
}

impl Default for CellStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Owned read view of one cell, assembled from the store's parallel arrays
/// (the SoA layout has no per-cell struct to borrow).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// The cell's fleet-unique id.
    pub id: CellId,
    /// Rated capacity, amp-hours.
    pub capacity_ah: f64,
    /// Most recent accepted telemetry, if any has arrived.
    pub latest: Option<Telemetry>,
    /// Running Coulomb-integrated SoC from the registered initial SoC.
    pub coulomb_soc: f64,
    /// EKF fallback SoC, when the engine enables the fallback.
    pub ekf_soc: Option<f64>,
    /// Latest batched network estimate, with the telemetry timestamp it
    /// covers.
    pub network_estimate: Option<(f64, f64)>,
    /// Telemetry reports accepted since registration.
    pub reports: u64,
    estimate: Option<(f64, SocEstimate)>,
}

impl CellSnapshot {
    /// The best current SoC estimate and its source at snapshot time (same
    /// policy as [`CellStore::estimate`]).
    pub fn estimate(&self) -> Option<(f64, SocEstimate)> {
        self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(time_s: f64, current_a: f64) -> Telemetry {
        Telemetry {
            time_s,
            voltage_v: 3.7,
            current_a,
            temperature_c: 25.0,
        }
    }

    fn store_with_one(initial_soc: f64, capacity_ah: f64) -> CellStore {
        let mut store = CellStore::new();
        store.push(
            1,
            &CellConfig {
                initial_soc,
                capacity_ah,
            },
            None,
        );
        store
    }

    #[test]
    fn absorb_integrates_coulomb_between_reports() {
        let mut store = store_with_one(1.0, 3.0);
        assert_eq!(
            store.absorb(0, telemetry(0.0, 3.0)),
            AbsorbOutcome::Accepted
        );
        // 3 A for 1800 s = 1.5 Ah = half the capacity.
        assert_eq!(
            store.absorb(0, telemetry(1800.0, 3.0)),
            AbsorbOutcome::Accepted
        );
        let (soc, source) = store.estimate(0).expect("has telemetry");
        assert_eq!(source, SocEstimate::Coulomb);
        assert!((soc - 0.5).abs() < 1e-9, "soc {soc}");
        assert_eq!(store.reports[0], 2);
    }

    #[test]
    fn rejects_nan_and_time_reversal() {
        let mut store = store_with_one(1.0, 3.0);
        assert!(store.absorb(0, telemetry(10.0, 1.0)).accepted());
        assert_eq!(
            store.absorb(0, telemetry(5.0, 1.0)),
            AbsorbOutcome::TimeReversed
        );
        let mut bad = telemetry(20.0, 1.0);
        bad.voltage_v = f64::NAN;
        assert_eq!(store.absorb(0, bad), AbsorbOutcome::NonFinite);
        assert_eq!(store.reports[0], 1);
        assert_eq!(store.latest(0).unwrap().time_s, 10.0);
    }

    #[test]
    fn duplicate_timestamp_overwrites_without_integrating() {
        let mut store = store_with_one(0.8, 3.0);
        assert_eq!(
            store.absorb(0, telemetry(10.0, 3.0)),
            AbsorbOutcome::Accepted
        );
        let before = store.estimate(0).unwrap().0;
        // Same timestamp, different reading: latest fields move, the
        // integral does not.
        let mut dup = telemetry(10.0, 5.0);
        dup.voltage_v = 3.5;
        assert_eq!(store.absorb(0, dup), AbsorbOutcome::DuplicateTimestamp);
        assert_eq!(store.estimate(0).unwrap().0, before, "no integration");
        assert_eq!(store.latest(0).unwrap().voltage_v, 3.5);
        assert_eq!(store.reports[0], 2);
    }

    #[test]
    fn breakdown_reports_every_estimator() {
        let params = CellParams::lg_hg2();
        let mut store = CellStore::new();
        store.push(
            1,
            &CellConfig {
                initial_soc: 0.8,
                capacity_ah: params.capacity_ah,
            },
            Some(&params),
        );
        assert_eq!(store.breakdown(0), None, "no telemetry yet");
        store.absorb(0, telemetry(0.0, 1.0));
        store.absorb(0, telemetry(60.0, 1.0));
        let b = store.breakdown(0).expect("has telemetry");
        assert_eq!(b.network, None);
        assert!(!b.network_fresh);
        assert!(b.ekf.is_some());
        assert_eq!(b.best, (b.ekf.unwrap(), SocEstimate::Ekf));
        store.record_network_estimate(0, 0.42);
        let b = store.breakdown(0).unwrap();
        assert_eq!(b.network, Some(0.42));
        assert!(b.network_fresh);
        assert_eq!(b.best, (0.42, SocEstimate::Network));
        // Newer telemetry makes the network estimate stale but keeps it
        // visible in the breakdown.
        store.absorb(0, telemetry(120.0, 1.0));
        let b = store.breakdown(0).unwrap();
        assert_eq!(b.network, Some(0.42));
        assert!(!b.network_fresh);
        assert_eq!(b.best.1, SocEstimate::Ekf);
    }

    #[test]
    fn network_estimate_wins_only_when_fresh() {
        let mut store = store_with_one(1.0, 3.0);
        store.absorb(0, telemetry(10.0, 1.0));
        store.record_network_estimate(0, 0.87);
        assert_eq!(store.estimate(0), Some((0.87, SocEstimate::Network)));
        // Newer telemetry makes the network estimate stale.
        store.absorb(0, telemetry(20.0, 1.0));
        let (_, source) = store.estimate(0).unwrap();
        assert_eq!(source, SocEstimate::Coulomb);
    }

    #[test]
    fn ekf_fallback_when_enabled() {
        let params = CellParams::lg_hg2();
        let mut store = CellStore::new();
        store.push(
            1,
            &CellConfig {
                initial_soc: 0.8,
                capacity_ah: params.capacity_ah,
            },
            Some(&params),
        );
        store.absorb(0, telemetry(0.0, 1.0));
        store.absorb(0, telemetry(60.0, 1.0));
        let (soc, source) = store.estimate(0).unwrap();
        assert_eq!(source, SocEstimate::Ekf);
        assert!((0.0..=1.0).contains(&soc));
    }

    #[test]
    fn time_to_empty_scales_with_current() {
        let mut store = store_with_one(0.5, 3.0);
        store.absorb(0, telemetry(0.0, 0.0));
        // Half of 3 Ah at 1.5 A = 1 hour.
        assert!((store.time_to_empty_s(0, 1.5).unwrap() - 3600.0).abs() < 1e-9);
        assert!((store.time_to_empty_s(0, 3.0).unwrap() - 1800.0).abs() < 1e-9);
        assert_eq!(store.time_to_empty_s(0, 0.0), None);
        assert_eq!(store.time_to_empty_s(0, -1.0), None);
    }

    #[test]
    fn no_estimate_before_first_report() {
        let store = store_with_one(1.0, 3.0);
        assert_eq!(store.estimate(0), None);
        assert_eq!(store.time_to_empty_s(0, 1.0), None);
        assert_eq!(store.latest(0), None);
    }

    #[test]
    fn snapshot_mirrors_store_state() {
        let mut store = store_with_one(0.9, 3.0);
        store.push(7, &CellConfig::default(), None);
        store.absorb(0, telemetry(5.0, 1.0));
        store.record_network_estimate(0, 0.42);
        let snap = store.snapshot(0);
        assert_eq!(snap.id, 1);
        assert_eq!(snap.reports, 1);
        assert_eq!(snap.latest.unwrap().time_s, 5.0);
        assert_eq!(snap.network_estimate, Some((5.0, 0.42)));
        assert_eq!(snap.estimate(), Some((0.42, SocEstimate::Network)));
        assert_eq!(snap.ekf_soc, None);
        let untouched = store.snapshot(1);
        assert_eq!(untouched.id, 7);
        assert_eq!(untouched.latest, None);
        assert_eq!(untouched.estimate(), None);
    }

    #[test]
    fn swap_remove_moves_last_cell_and_keeps_state() {
        let params = CellParams::lg_hg2();
        let mut store = CellStore::new();
        for id in 1..=3u64 {
            store.push(
                id,
                &CellConfig {
                    initial_soc: 0.5 + id as f64 * 0.1,
                    capacity_ah: params.capacity_ah,
                },
                Some(&params),
            );
        }
        store.absorb(0, telemetry(1.0, 1.0));
        store.absorb(2, telemetry(2.0, 2.0));
        store.record_network_estimate(2, 0.33);
        let before = store.snapshot(2);
        // Remove the middle cell: cell 3 moves into slot 1.
        assert_eq!(store.swap_remove(1), Some(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids, vec![1, 3]);
        let moved = store.snapshot(1);
        assert_eq!(moved.id, before.id);
        assert_eq!(moved.latest, before.latest);
        assert_eq!(moved.network_estimate, before.network_estimate);
        assert_eq!(moved.estimate(), before.estimate());
        assert_eq!(moved.ekf_soc, before.ekf_soc);
        // Removing the last cell moves nothing.
        assert_eq!(store.swap_remove(1), None);
        assert_eq!(store.ids, vec![1]);
    }

    #[test]
    fn breakdown_exposes_ekf_uncertainty() {
        let params = CellParams::lg_hg2();
        let mut store = CellStore::new();
        store.push(
            1,
            &CellConfig {
                initial_soc: 0.8,
                capacity_ah: params.capacity_ah,
            },
            Some(&params),
        );
        store.absorb(0, telemetry(0.0, 1.0));
        store.absorb(0, telemetry(60.0, 1.0));
        let b = store.breakdown(0).expect("has telemetry");
        let std = b.ekf_soc_std.expect("EKF enabled");
        assert!(std.is_finite() && std >= 0.0);
        // EKF disabled: no uncertainty either.
        let mut plain = store_with_one(0.8, 3.0);
        plain.absorb(0, telemetry(0.0, 1.0));
        assert_eq!(plain.breakdown(0).unwrap().ekf_soc_std, None);
    }

    #[test]
    fn export_import_roundtrip_is_bit_identical() {
        let params = CellParams::lg_hg2();
        let mut store = CellStore::new();
        store.push(
            9,
            &CellConfig {
                initial_soc: 0.8,
                capacity_ah: params.capacity_ah,
            },
            Some(&params),
        );
        store.absorb(0, telemetry(0.0, 1.0));
        store.absorb(0, telemetry(60.0, 2.0));
        store.record_network_estimate(0, 0.77);
        store.absorb(0, telemetry(120.0, 1.5));
        let persist = store.export_cell(0);
        let mut restored = CellStore::new();
        restored.import_cell(&persist, Some(&params));
        assert_eq!(restored.export_cell(0), persist, "lossless round trip");
        // Subsequent absorbs integrate bit-identically to the original.
        for step in 3..10 {
            let t = telemetry(step as f64 * 60.0, 1.0 + step as f64 * 0.1);
            assert_eq!(store.absorb(0, t), restored.absorb(0, t));
            assert_eq!(
                store.estimate(0).unwrap().0.to_bits(),
                restored.estimate(0).unwrap().0.to_bits()
            );
            assert_eq!(store.breakdown(0), restored.breakdown(0));
        }
    }

    #[test]
    fn export_import_preserves_no_estimate_sentinel() {
        let store = store_with_one(1.0, 3.0);
        let persist = store.export_cell(0);
        assert_eq!(persist.reports, 0);
        assert!(persist.net_time_s == f64::NEG_INFINITY);
        let mut restored = CellStore::new();
        restored.import_cell(&persist, None);
        assert_eq!(restored.estimate(0), None);
        assert_eq!(restored.latest(0), None);
    }

    #[test]
    #[should_panic(expected = "EKF fallback configuration mismatch")]
    fn import_rejects_fallback_mismatch() {
        let store = store_with_one(1.0, 3.0);
        let persist = store.export_cell(0);
        let mut restored = CellStore::new();
        restored.import_cell(&persist, Some(&CellParams::lg_hg2()));
    }

    #[test]
    fn negative_timestamps_are_valid_telemetry() {
        // The NO_ESTIMATE sentinel must not collide with real (even very
        // negative) timestamps.
        let mut store = store_with_one(1.0, 3.0);
        store.absorb(0, telemetry(-1e12, 1.0));
        assert_eq!(store.estimate(0).unwrap().1, SocEstimate::Coulomb);
        store.record_network_estimate(0, 0.5);
        assert_eq!(store.estimate(0).unwrap().1, SocEstimate::Network);
    }
}
