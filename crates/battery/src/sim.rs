//! Time-domain cell simulator: ECM + thermal model + exact Coulomb
//! integration of the ground-truth SoC.
//!
//! This is the workspace's stand-in for the physical cells behind the Sandia
//! and LG datasets: every synthetic dataset sample is a [`SimRecord`]
//! produced here.

use crate::chemistry::CellParams;
use crate::ecm::{Ecm, EcmOrder};
use crate::thermal::LumpedThermal;
use crate::types::{CellState, SimRecord, Soc, StopReason};
use serde::{Deserialize, Serialize};

/// A completed simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRun {
    /// Sampled records, oldest first.
    pub records: Vec<SimRecord>,
    /// Why the run ended.
    pub stop: StopReason,
}

impl SimRun {
    /// Total charge throughput (∫|I|dt), amp-hours.
    pub fn charge_throughput_ah(&self) -> f64 {
        let mut ah = 0.0;
        for w in self.records.windows(2) {
            let dt = w[1].time_s - w[0].time_s;
            ah += w[0].current_a.abs() * dt / 3600.0;
        }
        ah
    }
}

/// Stateful electro-thermal cell simulator.
///
/// # Examples
///
/// ```
/// use pinnsoc_battery::{CellParams, CellSim, Soc};
///
/// let mut sim = CellSim::new(CellParams::lg_hg2(), Soc::FULL, 25.0);
/// // Discharge at 1C for one minute, sampled every second.
/// let run = sim.run_constant_current(3.0, 60.0, 1.0, 1.0);
/// assert!(run.records.last().unwrap().soc < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CellSim {
    ecm: Ecm,
    thermal: LumpedThermal,
    state: CellState,
    time_s: f64,
}

impl CellSim {
    /// Creates a rested cell at the given SoC and ambient temperature,
    /// using the default second-order ECM.
    pub fn new(params: CellParams, initial_soc: Soc, ambient_c: f64) -> Self {
        Self::with_order(params, initial_soc, ambient_c, EcmOrder::Two)
    }

    /// Creates a simulator with an explicit ECM order.
    pub fn with_order(
        params: CellParams,
        initial_soc: Soc,
        ambient_c: f64,
        order: EcmOrder,
    ) -> Self {
        let thermal = LumpedThermal::new(&params, ambient_c);
        let ecm = Ecm::new(params, order);
        Self {
            ecm,
            thermal,
            state: CellState::rested(initial_soc, ambient_c),
            time_s: 0.0,
        }
    }

    /// Current cell state.
    pub fn state(&self) -> &CellState {
        &self.state
    }

    /// Elapsed simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The cell parameters in use.
    pub fn params(&self) -> &CellParams {
        self.ecm.params()
    }

    /// Changes the ambient temperature (between cycles).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        self.thermal.set_ambient_c(ambient_c);
    }

    /// Resets to a rested state at the given SoC without changing ambient.
    pub fn reset(&mut self, soc: Soc) {
        self.state = CellState::rested(soc, self.thermal.ambient_c());
        self.time_s = 0.0;
    }

    /// Advances one step of `dt_s` seconds at constant `current_a`
    /// (positive = discharge) and returns the end-of-interval measurement.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive or `current_a` is not finite.
    pub fn step(&mut self, current_a: f64, dt_s: f64) -> SimRecord {
        assert!(dt_s > 0.0, "time step must be positive");
        assert!(current_a.is_finite(), "current must be finite");
        let heat = self.ecm.heat_generation(&self.state, current_a);
        self.state.rc_voltages = self.ecm.step_polarization(&self.state, current_a, dt_s);
        self.state.soc = self.state.soc.shifted(self.ecm.soc_delta(current_a, dt_s));
        self.state.temperature_c = self.thermal.step(self.state.temperature_c, heat, dt_s);
        self.time_s += dt_s;
        SimRecord {
            time_s: self.time_s,
            voltage_v: self.ecm.terminal_voltage(&self.state, current_a),
            current_a,
            temperature_c: self.state.temperature_c,
            soc: self.state.soc.value(),
        }
    }

    /// Terminal voltage that applying `current_a` to the present state would
    /// produce (before polarization has further evolved). Lets a BMS-style
    /// caller limit regen current against the charge cutoff.
    pub fn terminal_voltage_if(&self, current_a: f64) -> f64 {
        self.ecm.terminal_voltage(&self.state, current_a)
    }

    /// Checks whether the given just-measured record should terminate a run
    /// (voltage cutoff in the direction of the current, or an SoC rail).
    pub fn stop_reason_for(&self, record: &SimRecord) -> Option<StopReason> {
        let p = self.ecm.params();
        if record.current_a > 0.0 && record.voltage_v <= p.v_min {
            Some(StopReason::LowVoltageCutoff)
        } else if record.current_a < 0.0 && record.voltage_v >= p.v_max {
            Some(StopReason::HighVoltageCutoff)
        } else if self.state.soc == Soc::EMPTY && record.current_a > 0.0 {
            Some(StopReason::Empty)
        } else if self.state.soc == Soc::FULL && record.current_a < 0.0 {
            Some(StopReason::Full)
        } else {
            None
        }
    }

    /// Runs a current profile given as per-step currents each lasting
    /// `dt_s`, recording every `sample_every_s` seconds. Stops early on
    /// voltage cutoff or an SoC rail.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every_s < dt_s` or either is non-positive.
    pub fn run_profile(
        &mut self,
        currents: impl IntoIterator<Item = f64>,
        dt_s: f64,
        sample_every_s: f64,
    ) -> SimRun {
        assert!(
            dt_s > 0.0 && sample_every_s > 0.0,
            "time steps must be positive"
        );
        assert!(
            sample_every_s >= dt_s - 1e-12,
            "sampling interval must be at least the simulation step"
        );
        let per_sample = (sample_every_s / dt_s).round().max(1.0) as usize;
        let mut records = Vec::new();
        let mut stop = StopReason::ProfileEnd;
        let mut step_idx = 0usize;
        for current in currents {
            let record = self.step(current, dt_s);
            step_idx += 1;
            if step_idx.is_multiple_of(per_sample) {
                records.push(record);
            }
            if let Some(reason) = self.stop_reason_for(&record) {
                if !step_idx.is_multiple_of(per_sample) {
                    records.push(record);
                }
                stop = reason;
                break;
            }
        }
        SimRun { records, stop }
    }

    /// Runs at constant current for up to `duration_s` seconds (or cutoff).
    pub fn run_constant_current(
        &mut self,
        current_a: f64,
        duration_s: f64,
        dt_s: f64,
        sample_every_s: f64,
    ) -> SimRun {
        assert!(duration_s > 0.0, "duration must be positive");
        let steps = (duration_s / dt_s).ceil() as usize;
        self.run_profile(std::iter::repeat_n(current_a, steps), dt_s, sample_every_s)
    }

    /// Constant-current discharge until the low-voltage cutoff or empty.
    ///
    /// `rate_c` is a positive C-rate (e.g. `2.0` for a 2C discharge).
    pub fn discharge_to_cutoff(&mut self, rate_c: f64, dt_s: f64, sample_every_s: f64) -> SimRun {
        assert!(rate_c > 0.0, "discharge rate must be positive");
        let current = self.params().c_rate(rate_c);
        // 3/rate_c hours is always beyond cutoff for a real discharge.
        let max_duration = 3.0 * 3600.0 / rate_c;
        self.run_constant_current(current, max_duration, dt_s, sample_every_s)
    }

    /// Constant-current charge until the high-voltage cutoff or full.
    pub fn charge_to_cutoff(&mut self, rate_c: f64, dt_s: f64, sample_every_s: f64) -> SimRun {
        assert!(rate_c > 0.0, "charge rate must be positive");
        let current = -self.params().c_rate(rate_c);
        let max_duration = 3.0 * 3600.0 / rate_c;
        self.run_constant_current(current, max_duration, dt_s, sample_every_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_cell() -> CellSim {
        CellSim::new(CellParams::lg_hg2(), Soc::FULL, 25.0)
    }

    #[test]
    fn one_hour_1c_discharge_empties_or_cuts_off() {
        let mut sim = full_cell();
        let run = sim.discharge_to_cutoff(1.0, 1.0, 60.0);
        let last = run.records.last().unwrap();
        assert!(
            matches!(run.stop, StopReason::LowVoltageCutoff | StopReason::Empty),
            "stop was {:?}",
            run.stop
        );
        assert!(
            last.soc < 0.1,
            "cell should be nearly empty, soc={}",
            last.soc
        );
        // Duration should be slightly under an hour (IR drop trips cutoff early).
        assert!(last.time_s <= 3600.0 + 1.0);
        assert!(last.time_s > 3000.0);
    }

    #[test]
    fn higher_rate_discharges_less_charge() {
        // The rate-capacity effect the Sandia train/test split relies on:
        // at 3C the cutoff trips earlier, so less charge is extracted.
        let mut s1 = full_cell();
        let r1 = s1.discharge_to_cutoff(1.0, 1.0, 10.0);
        let mut s3 = full_cell();
        let r3 = s3.discharge_to_cutoff(3.0, 1.0, 10.0);
        let final1 = r1.records.last().unwrap().soc;
        let final3 = r3.records.last().unwrap().soc;
        assert!(
            final3 > final1 + 0.01,
            "3C should leave more residual SoC: 1C -> {final1}, 3C -> {final3}"
        );
    }

    #[test]
    fn voltage_monotone_enough_during_discharge() {
        let mut sim = full_cell();
        let run = sim.discharge_to_cutoff(1.0, 1.0, 60.0);
        let first = run.records.first().unwrap().voltage_v;
        let last = run.records.last().unwrap().voltage_v;
        assert!(first > last);
        assert!(last <= sim.params().v_min + 0.05);
    }

    #[test]
    fn cell_heats_under_load_and_cools_at_rest() {
        let mut sim = full_cell();
        let run = sim.run_constant_current(9.0, 600.0, 1.0, 60.0);
        let hot = run.records.last().unwrap().temperature_c;
        assert!(hot > 25.5, "3C for 10 min should heat the cell, got {hot}");
        let rest = sim.run_constant_current(1e-9, 7200.0, 10.0, 600.0);
        let cooled = rest.records.last().unwrap().temperature_c;
        assert!(cooled < hot, "resting must cool the cell");
    }

    #[test]
    fn charge_stops_at_high_cutoff_or_full() {
        let mut sim = CellSim::new(CellParams::lg_hg2(), Soc::new(0.2).unwrap(), 25.0);
        let run = sim.charge_to_cutoff(0.5, 1.0, 60.0);
        assert!(matches!(
            run.stop,
            StopReason::HighVoltageCutoff | StopReason::Full
        ));
        assert!(run.records.last().unwrap().soc > 0.8);
    }

    #[test]
    fn ground_truth_soc_matches_analytic_coulomb_count() {
        let mut sim = full_cell();
        // 0.5C for 30 minutes = exactly 25% SoC drop, regardless of voltages.
        let current = sim.params().c_rate(0.5);
        let run = sim.run_constant_current(current, 1800.0, 1.0, 1800.0);
        let last = run.records.last().unwrap();
        assert!((last.soc - 0.75).abs() < 1e-9, "soc {}", last.soc);
    }

    #[test]
    fn sampling_interval_respected() {
        let mut sim = full_cell();
        let run = sim.run_constant_current(3.0, 600.0, 0.5, 120.0);
        assert!(run.records.len() >= 4);
        let dt = run.records[1].time_s - run.records[0].time_s;
        assert!((dt - 120.0).abs() < 1e-9);
    }

    #[test]
    fn cold_start_has_lower_voltage() {
        let warm = {
            let mut sim = CellSim::new(CellParams::lg_hg2(), Soc::new(0.8).unwrap(), 25.0);
            sim.step(3.0, 1.0).voltage_v
        };
        let cold = {
            let mut sim = CellSim::new(CellParams::lg_hg2(), Soc::new(0.8).unwrap(), -10.0);
            sim.step(3.0, 1.0).voltage_v
        };
        assert!(cold < warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn reset_restores_rested_state() {
        let mut sim = full_cell();
        let _ = sim.run_constant_current(5.0, 300.0, 1.0, 60.0);
        sim.reset(Soc::new(0.6).unwrap());
        assert_eq!(sim.time_s(), 0.0);
        assert_eq!(sim.state().rc_voltages, [0.0, 0.0]);
        assert_eq!(sim.state().soc.value(), 0.6);
    }

    #[test]
    fn charge_throughput_accounting() {
        let mut sim = full_cell();
        let run = sim.run_constant_current(3.0, 1200.0, 1.0, 1.0);
        // 3 A for 20 min = 1 Ah.
        assert!(
            (run.charge_throughput_ah() - 1.0).abs() < 0.01,
            "{}",
            run.charge_throughput_ah()
        );
    }
}
