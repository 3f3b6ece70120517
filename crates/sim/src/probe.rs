//! The constant-probes-in-flight measurement harness (paper §3.2).
//!
//! The paper's traces were collected by keeping a constant number of probe
//! jobs inside the system: each probe is an almost-null job, a new probe is
//! submitted whenever one completes, and probes still waiting after 10 000 s
//! are cancelled and counted as outliers. [`ProbeHarness`] reproduces that
//! protocol as a [`Controller`], so the same measurement can be run against
//! either latency regime and yields a [`TraceSet`] ready for the analysis
//! pipeline — closing the loop from simulated infrastructure to fitted
//! strategy models.

use crate::engine::{Controller, GridSimulation, Notification};
use crate::job::JobId;
use crate::time::SimDuration;
use gridstrat_workload::{ProbeRecord, ProbeStatus, TraceSet};
use std::collections::HashSet;

/// Probe measurement controller.
///
/// Submits `in_flight` probes at start; on every completion, visible
/// failure, or censor-timeout it records a measurement and immediately
/// submits a replacement, until `target` records have been collected.
/// Failures and timeouts are both recorded as outliers at the censoring
/// threshold, matching the paper's fault-inclusive `ρ`.
#[derive(Debug)]
pub struct ProbeHarness {
    name: String,
    target: usize,
    in_flight: usize,
    threshold: SimDuration,
    records: Vec<ProbeRecord>,
    active: HashSet<JobId>,
    submitted: usize,
}

impl ProbeHarness {
    /// Creates a harness that collects `target` probe records with
    /// `in_flight` probes maintained in the system and the given censoring
    /// threshold in seconds.
    pub fn new(name: impl Into<String>, target: usize, in_flight: usize, threshold_s: f64) -> Self {
        assert!(target > 0, "need a positive record target");
        assert!(in_flight > 0, "need at least one probe in flight");
        assert!(threshold_s > 0.0, "threshold must be positive");
        ProbeHarness {
            name: name.into(),
            target,
            in_flight,
            threshold: SimDuration::from_secs(threshold_s),
            records: Vec::with_capacity(target),
            active: HashSet::new(),
            submitted: 0,
        }
    }

    /// Records collected so far.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }

    /// Consumes the harness into a validated [`TraceSet`]
    /// (records sorted by submission time).
    pub fn into_trace(mut self) -> TraceSet {
        self.records.sort_by(|a, b| {
            a.submitted_at
                .partial_cmp(&b.submitted_at)
                .expect("finite timestamps")
        });
        TraceSet::new(self.name.clone(), self.threshold.as_secs(), self.records)
            .expect("harness records are consistent by construction")
    }

    fn launch_probe(&mut self, sim: &mut GridSimulation) {
        // keep submitting only while more measurements are still wanted;
        // probes already in flight will top up the record count
        if self.submitted >= self.target {
            return;
        }
        let id = sim.submit();
        self.submitted += 1;
        self.active.insert(id);
        // censor timer; token = job id for direct correlation
        sim.set_timer(self.threshold, id.token());
    }

    fn record(&mut self, sim: &GridSimulation, id: JobId, latency_s: f64, status: ProbeStatus) {
        let submitted_at = sim.job(id).submitted_at.as_secs();
        self.records.push(ProbeRecord {
            submitted_at,
            latency_s,
            status,
        });
    }
}

impl Controller for ProbeHarness {
    fn start(&mut self, sim: &mut GridSimulation) {
        for _ in 0..self.in_flight.min(self.target) {
            self.launch_probe(sim);
        }
    }

    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        match ev {
            Notification::JobStarted { id, at } => {
                // probes are null jobs: start ≈ completion; measure latency
                // at start exactly as the paper defines it
                if self.active.remove(&id) {
                    let lat = at.since(sim.job(id).submitted_at).as_secs();
                    self.record(sim, id, lat, ProbeStatus::Completed);
                    self.launch_probe(sim);
                }
            }
            Notification::JobFailed { id, .. } => {
                if self.active.remove(&id) {
                    // visible fault: counted in ρ like a timeout
                    self.record(sim, id, self.threshold.as_secs(), ProbeStatus::TimedOut);
                    self.launch_probe(sim);
                }
            }
            Notification::Timer { token, .. } => {
                let id = JobId(token.into());
                if self.active.remove(&id) {
                    sim.cancel(id);
                    self.record(sim, id, self.threshold.as_secs(), ProbeStatus::TimedOut);
                    self.launch_probe(sim);
                }
            }
            Notification::JobFinished { .. } => {}
        }
    }

    fn done(&self) -> bool {
        self.records.len() >= self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GridConfig;
    use gridstrat_workload::WeekModel;

    fn run_oracle(rho: f64, n: usize, seed: u64) -> TraceSet {
        let model = WeekModel::calibrate("probe-test", 500.0, 700.0, rho, 50.0, 10_000.0).unwrap();
        let mut sim = GridSimulation::new(GridConfig::oracle(model), seed).unwrap();
        let mut harness = ProbeHarness::new("probe-test", n, 25, 10_000.0);
        sim.run_controller(&mut harness);
        harness.into_trace()
    }

    #[test]
    fn collects_exactly_target_records() {
        let t = run_oracle(0.1, 500, 1);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn measured_statistics_match_oracle_model() {
        let t = run_oracle(0.15, 3000, 2);
        assert!(
            (t.outlier_ratio() - 0.15).abs() < 0.03,
            "rho {}",
            t.outlier_ratio()
        );
        assert!(
            (t.body_mean() - 500.0).abs() < 50.0,
            "mean {}",
            t.body_mean()
        );
    }

    #[test]
    fn outliers_recorded_at_threshold() {
        let t = run_oracle(0.4, 400, 3);
        for r in &t.records {
            if r.is_outlier() {
                assert_eq!(r.latency_s, 10_000.0);
            } else {
                assert!(r.latency_s < 10_000.0);
            }
        }
        assert!(t.n_outliers() > 0);
    }

    #[test]
    fn trace_feeds_analysis_pipeline() {
        let t = run_oracle(0.1, 1000, 4);
        let e = t.ecdf().unwrap();
        assert_eq!(e.n_total(), 1000);
        // defective cdf saturates near 1 - rho
        assert!((e.value(9_999.0) - 0.9).abs() < 0.05);
    }

    #[test]
    fn works_against_pipeline_with_faults() {
        let mut cfg = GridConfig::pipeline_default();
        cfg.background = None; // keep it fast
        cfg.faults.p_silent_loss = 0.2;
        cfg.faults.p_transient_failure = 0.1;
        let mut sim = GridSimulation::new(cfg, 5).unwrap();
        let mut harness = ProbeHarness::new("pipe", 300, 10, 10_000.0);
        sim.run_controller(&mut harness);
        let t = harness.into_trace();
        assert_eq!(t.len(), 300);
        // silent losses time out, transient failures are counted too:
        // overall fault ratio ≈ 0.2 + 0.8·0.1 = 0.28
        assert!(
            (t.outlier_ratio() - 0.28).abs() < 0.08,
            "rho {}",
            t.outlier_ratio()
        );
        // hop latencies keep body mean near 90 s
        assert!(t.body_mean() > 30.0 && t.body_mean() < 300.0);
    }

    #[test]
    fn constant_in_flight_is_maintained() {
        let t = run_oracle(0.0, 200, 10);
        // run_oracle keeps 25 probes in flight: exactly 25 submitted at t = 0
        let at_zero = t.records.iter().filter(|r| r.submitted_at == 0.0).count();
        assert_eq!(at_zero, 25);
    }

    #[test]
    #[should_panic(expected = "positive record target")]
    fn rejects_zero_target() {
        ProbeHarness::new("x", 0, 5, 100.0);
    }
}
