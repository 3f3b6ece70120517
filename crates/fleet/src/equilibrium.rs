//! Best-response iteration over strategy mixes: is aggressive multiple
//! submission a Nash equilibrium, and at what community size does it stop
//! paying?
//!
//! The game: every user picks one strategy from a finite candidate set;
//! a user's payoff is the (negated) mean task latency they experience in
//! the resulting community. Each iteration measures, for the current
//! population counts,
//!
//! 1. the **incumbent payoff** of every populated candidate (mean latency
//!    of its users in a population-only run), and
//! 2. the **deviation payoff** of every candidate — the mean latency a
//!    single extra probe user would get playing that candidate against
//!    the unchanged population,
//!
//! then moves a fraction of the group with the most to gain to the best
//! response. The loop stops when no populated group could cut its latency
//! by more than `tolerance` (an approximate Nash equilibrium) or after
//! `max_iterations`.
//!
//! Everything is seeded from `(master, iteration, candidate, replication)`
//! via `derive_seed`, and replications are aggregated in index order, so a
//! search is **bit-identical for any thread count**.

use crate::agent::Assignment;
use crate::mix::FleetConfig;
use crate::sweep::FleetWorker;
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::GridScenario;
use gridstrat_sim::GridConfig;
use gridstrat_stats::rng::derive_seed;
use gridstrat_stats::Summary;
use rayon::prelude::*;
use std::sync::Arc;

/// Configuration of a best-response search.
#[derive(Debug, Clone)]
pub struct BestResponseSearch {
    /// Shared fleet configuration (farm, tasks, replications, seed).
    pub fleet: FleetConfig,
    /// Community size the game is played at.
    pub users: usize,
    /// The finite strategy space.
    pub candidates: Vec<StrategyParams>,
    /// Grid-condition overlay applied to the configured farm.
    pub scenario: GridScenario,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Fraction of the most-tempted group switched per iteration
    /// (at least one user always moves).
    pub switch_fraction: f64,
    /// Relative latency improvement below which a deviation does not
    /// count as profitable.
    pub tolerance: f64,
}

/// One iteration of the best-response dynamics.
#[derive(Debug, Clone)]
pub struct BestResponseStep {
    /// Users per candidate at the start of the iteration.
    pub counts: Vec<usize>,
    /// Mean latency of each candidate's incumbent users (`NaN` for
    /// unpopulated candidates), seconds.
    pub incumbent_latency: Vec<f64>,
    /// Mean latency a deviating probe user gets per candidate, seconds.
    pub deviation_latency: Vec<f64>,
    /// Index of the best response (lowest deviation latency).
    pub best_response: usize,
    /// Largest relative latency saving any populated group could realise
    /// by switching to the best response.
    pub max_gain: f64,
}

/// Outcome of a best-response search.
#[derive(Debug, Clone)]
pub struct EquilibriumReport {
    /// The candidate strategy space.
    pub candidates: Vec<StrategyParams>,
    /// Every iteration, in order.
    pub steps: Vec<BestResponseStep>,
    /// Whether the dynamics reached an approximate equilibrium before the
    /// iteration cap.
    pub converged: bool,
    /// Users per candidate at termination.
    pub final_counts: Vec<usize>,
}

impl EquilibriumReport {
    /// The equilibrium (or final) mix as fractions per candidate.
    pub fn final_fractions(&self) -> Vec<f64> {
        let total: usize = self.final_counts.iter().sum();
        self.final_counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

impl BestResponseSearch {
    /// A search with sensible dynamics defaults (cap 12, switch a quarter
    /// of the most-tempted group per step, 5 % tolerance).
    pub fn new(
        fleet: FleetConfig,
        users: usize,
        candidates: Vec<StrategyParams>,
        scenario: GridScenario,
    ) -> Self {
        BestResponseSearch {
            fleet,
            users,
            candidates,
            scenario,
            max_iterations: 12,
            switch_fraction: 0.25,
            tolerance: 0.05,
        }
    }

    /// Runs the best-response dynamics from an even initial split.
    pub fn run(&self) -> EquilibriumReport {
        self.fleet.validate().expect("valid fleet config");
        assert!(self.users > 0, "the game needs at least one user");
        assert!(
            self.candidates.len() >= 2,
            "equilibrium search needs at least two candidates"
        );
        assert!(self.max_iterations > 0, "need at least one iteration");
        assert!(
            self.switch_fraction > 0.0 && self.switch_fraction <= 1.0,
            "switch_fraction must be in (0, 1]"
        );
        let grid = Arc::new(self.scenario.apply_grid(&self.fleet.grid));

        // even initial split (largest remainder, earlier candidates first)
        let k = self.candidates.len();
        let mut counts = vec![self.users / k; k];
        for c in counts.iter_mut().take(self.users % k) {
            *c += 1;
        }

        let mut steps: Vec<BestResponseStep> = Vec::new();
        let mut converged = false;
        for iter in 0..self.max_iterations {
            let iter_seed = derive_seed(self.fleet.seed, iter as u64);
            let step = self.evaluate(&grid, &counts, iter_seed);
            let best = step.best_response;
            let max_gain = step.max_gain;
            // which populated group is most tempted to switch?
            let source = (0..k)
                .filter(|&c| counts[c] > 0 && c != best)
                .max_by(|&a, &b| {
                    gain(step.incumbent_latency[a], step.deviation_latency[best])
                        .partial_cmp(&gain(
                            step.incumbent_latency[b],
                            step.deviation_latency[best],
                        ))
                        .expect("finite gains")
                });
            steps.push(step);
            if max_gain <= self.tolerance {
                converged = true;
                break;
            }
            let Some(source) = source else {
                converged = true; // everyone already plays the best response
                break;
            };
            let moved = ((counts[source] as f64 * self.switch_fraction).round() as usize)
                .clamp(1, counts[source]);
            counts[source] -= moved;
            counts[best] += moved;
        }
        EquilibriumReport {
            candidates: self.candidates.clone(),
            steps,
            converged,
            final_counts: counts,
        }
    }

    /// Measures incumbent and deviation payoffs for one population state.
    ///
    /// Runs `1 + |candidates|` community configurations × `replications`
    /// each in one parallel pass (population first, then one probe
    /// configuration per candidate; the probe is an added `users+1`-th
    /// community member, so every candidate's deviation is measured
    /// against the identical population at identical contention).
    fn evaluate(
        &self,
        grid: &Arc<GridConfig>,
        counts: &[usize],
        iter_seed: u64,
    ) -> BestResponseStep {
        let k = self.candidates.len();
        let reps = self.fleet.replications;
        let population: Vec<Assignment> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| {
                std::iter::repeat_n(
                    Assignment {
                        strategy: self.candidates[c],
                        group: c,
                        adaptive: None,
                    },
                    n,
                )
            })
            .collect();
        // configuration 0 = population only; configuration 1 + d = probe
        // user appended playing candidate d
        let runs: Vec<crate::metrics::FleetRun> = (0..(1 + k) * reps)
            .into_par_iter()
            .map_init(Vec::<Assignment>::new, |scratch, j| {
                let config_idx = j / reps;
                let rep = (j % reps) as u64;
                let rep_seed = derive_seed(derive_seed(iter_seed, config_idx as u64), rep);
                scratch.clear();
                scratch.extend_from_slice(&population);
                if config_idx > 0 {
                    scratch.push(Assignment {
                        strategy: self.candidates[config_idx - 1],
                        group: config_idx - 1,
                        adaptive: None,
                    });
                }
                FleetWorker::build(grid, scratch, &self.fleet, rep_seed).run()
            })
            .collect();

        let incumbent_latency: Vec<f64> = (0..k)
            .map(|c| {
                let mut s = Summary::new();
                for rep in &runs[0..reps] {
                    for u in rep.users.iter().filter(|u| u.group == c) {
                        s.merge(&u.latency);
                    }
                }
                if s.count() == 0 {
                    f64::NAN
                } else {
                    s.mean()
                }
            })
            .collect();
        let deviation_latency: Vec<f64> = (0..k)
            .map(|d| {
                let mut s = Summary::new();
                for rep in &runs[(1 + d) * reps..(2 + d) * reps] {
                    let probe = rep.users.last().expect("probe user present");
                    s.merge(&probe.latency);
                }
                s.mean()
            })
            .collect();
        let best_response = (0..k)
            .min_by(|&a, &b| {
                deviation_latency[a]
                    .partial_cmp(&deviation_latency[b])
                    .expect("finite deviation latencies")
            })
            .expect("at least one candidate");
        // members of the best-response group "switching" to it is a no-op,
        // so only other populated groups count towards the incentive to move
        let max_gain = (0..k)
            .filter(|&c| c != best_response && counts[c] > 0 && incumbent_latency[c].is_finite())
            .map(|c| gain(incumbent_latency[c], deviation_latency[best_response]))
            .fold(0.0f64, f64::max);
        BestResponseStep {
            counts: counts.to_vec(),
            incumbent_latency,
            deviation_latency,
            best_response,
            max_gain,
        }
    }
}

/// Relative latency saving of switching from `from` to `to` (clamped at 0).
fn gain(from: f64, to: f64) -> f64 {
    if from > 0.0 {
        ((from - to) / from).max(0.0)
    } else {
        0.0
    }
}
