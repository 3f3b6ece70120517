//! Golden fingerprints of every replicated-cell entry point: the
//! single-strategy Monte-Carlo executor, the scenario sweep, the fleet
//! sweep (with an adaptive group retuning after every task), the sharded
//! fleet at one and three shards, and the best-response search.
//!
//! Each case folds `to_bits` of every estimate and cell field into one
//! FNV-1a digest. The digests were recorded before the entry points
//! shared one replication driver, so any change to the seed layout, to
//! worker reuse or to aggregation order shows up here as a changed
//! number rather than as a silently different experiment. Sizes are
//! small enough for a debug build.

use gridstrat_core::adaptive::{AdaptiveConfig, RetunePolicy};
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::{
    GridScenario, MonteCarloConfig, MonteCarloEstimate, ScenarioSweep, StrategyExecutor,
};
use gridstrat_fleet::{
    BestResponseSearch, FleetCellOutcome, FleetConfig, FleetSweep, ShardedFleet, StrategyGroup,
    StrategyMix,
};
use gridstrat_workload::{WeekId, WeekModel};

/// FNV-1a over the little-endian bytes of every word.
fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Checks a fingerprint against its recorded `(length, digest)`; prints
/// the words on mismatch so a deliberate re-baselining can see them.
fn check(case: &str, words: &[u64], golden: (usize, u64)) {
    let got = (words.len(), digest(words));
    assert_eq!(
        got, golden,
        "{case}: fingerprint changed; words = {words:#x?}"
    );
}

fn estimate_words(e: &MonteCarloEstimate, out: &mut Vec<u64>) {
    out.extend([
        e.mean_j.to_bits(),
        e.stderr_j.to_bits(),
        e.std_j.to_bits(),
        e.mean_submissions.to_bits(),
        e.mean_parallel.to_bits(),
        e.completed_trials as u64,
    ]);
}

fn cell_words(cell: &FleetCellOutcome, out: &mut Vec<u64>) {
    out.extend([
        cell.users as u64,
        cell.replications as u64,
        cell.mean_latency.to_bits(),
        cell.fairness.to_bits(),
        cell.slot_waste.to_bits(),
        cell.utilization.to_bits(),
        cell.makespan_s.to_bits(),
        cell.tasks_completed as u64,
        cell.tasks_total as u64,
        cell.submissions,
        cell.wasted_starts,
    ]);
    for g in &cell.groups {
        out.extend([
            g.group as u64,
            g.users as u64,
            g.tasks_completed as u64,
            g.latency.count(),
            g.latency.mean().to_bits(),
            g.latency.std().to_bits(),
            g.latency.min().to_bits(),
            g.latency.max().to_bits(),
            g.quantile(0.5).to_bits(),
            g.quantile(0.95).to_bits(),
        ]);
    }
}

fn fleet_config(slots: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small_farm(slots);
    cfg.tasks_per_user = 3;
    cfg.task_exec_s = 300.0;
    cfg.replications = 3;
    cfg.seed = seed;
    cfg
}

fn mixed() -> StrategyMix {
    StrategyMix::new(
        "mixed",
        vec![
            StrategyGroup::new(StrategyParams::Single { t_inf: 3000.0 }, 1.0),
            StrategyGroup::new(
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                1.0,
            ),
            StrategyGroup::new(
                StrategyParams::Delayed {
                    t0: 1500.0,
                    t_inf: 2500.0,
                },
                1.0,
            ),
        ],
    )
}

#[test]
fn strategy_executor_cells() {
    let week = WeekModel::calibrate("golden", 500.0, 700.0, 0.10, 60.0, 10_000.0).unwrap();
    let executor = StrategyExecutor::new(
        week,
        MonteCarloConfig {
            trials: 200,
            seed: 0x601D,
        },
    );
    let mut words = Vec::new();
    for spec in [
        StrategyParams::Single { t_inf: 700.0 },
        StrategyParams::Multiple { b: 3, t_inf: 800.0 },
        StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        },
        StrategyParams::DelayedMultiple {
            b: 2,
            t0: 400.0,
            t_inf: 560.0,
        },
    ] {
        estimate_words(&executor.run(spec), &mut words);
    }
    check("StrategyExecutor::run", &words, GOLDEN_EXECUTOR);
}

#[test]
fn scenario_sweep_cells() {
    // a struct literal: this case pins the run, not the constructor
    let sweep = ScenarioSweep {
        strategies: vec![
            StrategyParams::Multiple { b: 2, t_inf: 800.0 },
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
        ],
        weeks: vec![WeekId::W2006Ix, WeekId::W2007_51],
        scenarios: vec![
            GridScenario::baseline(),
            GridScenario::new("slow-faulty", 2.0, 1.3),
        ],
        config: MonteCarloConfig {
            trials: 60,
            seed: 0x5EE9,
        },
    };
    let mut words = Vec::new();
    for cell in sweep.run() {
        words.push(cell.analytic_e_j.to_bits());
        words.push(cell.analytic_n_parallel.to_bits());
        estimate_words(&cell.estimate, &mut words);
    }
    check("ScenarioSweep::run", &words, GOLDEN_SCENARIO_SWEEP);
}

#[test]
fn fleet_sweep_cells_with_adaptive_delayed_group() {
    let adaptive = StrategyMix::new(
        "adaptive-delayed",
        vec![
            StrategyGroup::adaptive(
                StrategyParams::Delayed {
                    t0: 1500.0,
                    t_inf: 2500.0,
                },
                1.0,
                AdaptiveConfig {
                    retune_every: 1,
                    window: 50,
                    decay: 0.9,
                    min_body: 2,
                    policy: RetunePolicy::EmpiricalBackoff {
                        max_censored_fraction: 0.5,
                        growth: 1.5,
                    },
                },
            ),
            StrategyGroup::new(
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                1.0,
            ),
        ],
    );
    let sweep = FleetSweep::new(
        fleet_config(10, 0xF1EE),
        vec![adaptive],
        vec![6, 9],
        vec![GridScenario::baseline()],
    )
    .expect("valid sweep");
    let mut words = Vec::new();
    for cell in sweep.run() {
        cell_words(&cell, &mut words);
    }
    check("FleetSweep::run", &words, GOLDEN_FLEET_SWEEP);
}

#[test]
fn sharded_fleet_cells() {
    let mut words = Vec::new();
    for shards in [1, 3] {
        let sharded = ShardedFleet::new(
            fleet_config(15, 0x5AAD),
            mixed(),
            12,
            shards,
            GridScenario::baseline(),
        );
        cell_words(&sharded.run(), &mut words);
    }
    check("ShardedFleet::run", &words, GOLDEN_SHARDED);
}

#[test]
fn best_response_report() {
    let mut cfg = fleet_config(10, 0xB357);
    cfg.tasks_per_user = 2;
    cfg.replications = 2;
    let mut search = BestResponseSearch::new(
        cfg,
        8,
        vec![
            StrategyParams::Single { t_inf: 3000.0 },
            StrategyParams::Multiple {
                b: 3,
                t_inf: 3000.0,
            },
        ],
        GridScenario::baseline(),
    );
    search.max_iterations = 3;
    let report = search.run();
    let mut words = vec![u64::from(report.converged)];
    words.extend(report.final_counts.iter().map(|&c| c as u64));
    for step in &report.steps {
        words.extend(step.counts.iter().map(|&c| c as u64));
        words.extend(step.incumbent_latency.iter().map(|l| l.to_bits()));
        words.extend(step.deviation_latency.iter().map(|l| l.to_bits()));
        words.push(step.best_response as u64);
        words.push(step.max_gain.to_bits());
    }
    check("BestResponseSearch::run", &words, GOLDEN_BEST_RESPONSE);
}

const GOLDEN_EXECUTOR: (usize, u64) = (24, 0xd7196dcee07486c2);
const GOLDEN_SCENARIO_SWEEP: (usize, u64) = (64, 0xcfa4c49da9dc15b7);
const GOLDEN_FLEET_SWEEP: (usize, u64) = (62, 0xda26ecf4df4f1ccd);
const GOLDEN_SHARDED: (usize, u64) = (82, 0xdab5656758b72930);
const GOLDEN_BEST_RESPONSE: (usize, u64) = (27, 0x1085c49b4f51ef44);
