//! Batched evaluation of a (strategy-mix × community-size × grid-scenario)
//! grid of community experiments in one parallel pass.
//!
//! The layout mirrors `gridstrat_core::executor::ScenarioSweep`: the flat
//! (cell × replication) index space is distributed over the rayon pool as
//! a whole, each worker keeps one engine + fleet controller alive and
//! rewinds them in place between replications (rebuilding only when its
//! chunk crosses into a different cell), and every replication derives its
//! own RNG streams from `(master, cell, rep)` — so the entire sweep is
//! **bit-identical for any thread count**.

use crate::agent::Assignment;
use crate::controller::FleetController;
use crate::metrics::{FleetCellOutcome, FleetRun};
use crate::mix::{FleetConfig, StrategyMix};
use gridstrat_core::executor::GridScenario;
use gridstrat_sim::{GridConfig, GridSimulation};
use gridstrat_stats::rng::derive_seed;
use rayon::prelude::*;
use std::sync::Arc;

/// Stream index separating the fleet's agent RNGs from the engine RNG
/// within one replication: `engine_seed = rep_seed`,
/// `fleet_seed = derive_seed(rep_seed, FLEET_STREAM)`. Pinned by
/// golden-vector tests alongside [`crate::agent::user_stream_seed`].
pub const FLEET_STREAM: u64 = 0xF1EE7;

/// One engine and the fleet controller that drives it, seeded from one
/// engine seed (`fleet_seed = derive_seed(engine_seed, FLEET_STREAM)`)
/// and rewound in place between replications — the unit every sweep,
/// shard and equilibrium run is made of.
pub(crate) struct FleetWorker {
    pub(crate) sim: GridSimulation,
    pub(crate) fleet: FleetController,
}

impl FleetWorker {
    pub(crate) fn build(
        grid: &Arc<GridConfig>,
        assignments: &[Assignment],
        cfg: &FleetConfig,
        engine_seed: u64,
    ) -> Self {
        FleetWorker {
            sim: GridSimulation::new(Arc::clone(grid), engine_seed)
                .expect("fleet grids are validated by FleetConfig"),
            fleet: FleetController::new(
                assignments,
                cfg.tasks_per_user,
                cfg.task_exec_s,
                cfg.arrival,
                derive_seed(engine_seed, FLEET_STREAM),
                cfg.group_window,
            ),
        }
    }

    pub(crate) fn rewind(&mut self, engine_seed: u64) {
        self.sim.reset(engine_seed);
        self.fleet.reset(derive_seed(engine_seed, FLEET_STREAM));
    }

    pub(crate) fn run(&mut self) -> FleetRun {
        self.sim.run_controller(&mut self.fleet);
        self.fleet.collect(&self.sim)
    }
}

struct CellPlan {
    mix: usize,
    users: usize,
    scenario: usize,
    grid: Arc<GridConfig>,
    assignments: Vec<Assignment>,
    seed: u64,
}

/// A (mix × community-size × scenario) grid of community experiments.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Shared per-cell configuration (farm, workload shape, replications,
    /// master seed).
    pub config: FleetConfig,
    /// Strategy mixes to evaluate.
    pub mixes: Vec<StrategyMix>,
    /// Community sizes to evaluate.
    pub community_sizes: Vec<usize>,
    /// Grid-condition overlays applied to the configured farm.
    pub scenarios: Vec<GridScenario>,
}

impl FleetSweep {
    /// Builds a sweep; every axis must be non-empty and the configuration
    /// valid.
    pub fn new(
        config: FleetConfig,
        mixes: Vec<StrategyMix>,
        community_sizes: Vec<usize>,
        scenarios: Vec<GridScenario>,
    ) -> Self {
        config.validate().expect("valid fleet config");
        assert!(!mixes.is_empty(), "sweep needs at least one mix");
        assert!(
            !community_sizes.is_empty(),
            "sweep needs at least one community size"
        );
        assert!(!scenarios.is_empty(), "sweep needs at least one scenario");
        assert!(
            community_sizes.iter().all(|&u| u > 0),
            "community sizes must be positive"
        );
        for m in &mixes {
            m.validate().expect("valid strategy mix");
        }
        FleetSweep {
            config,
            mixes,
            community_sizes,
            scenarios,
        }
    }

    /// Number of cells in the grid.
    pub fn n_cells(&self) -> usize {
        self.mixes.len() * self.community_sizes.len() * self.scenarios.len()
    }

    /// Total community replications the sweep will run.
    pub fn n_runs_total(&self) -> usize {
        self.n_cells() * self.config.replications
    }

    /// Evaluates the whole grid in one parallel pass.
    ///
    /// Returns one aggregated outcome per cell, in cell order (mix-major,
    /// then community size, then scenario). Bit-identical for any thread
    /// count.
    pub fn run(&self) -> Vec<FleetCellOutcome> {
        let reps = self.config.replications;
        let mut plans = Vec::with_capacity(self.n_cells());
        for (m, mix) in self.mixes.iter().enumerate() {
            for &users in &self.community_sizes {
                for (s, scenario) in self.scenarios.iter().enumerate() {
                    let cell = plans.len() as u64;
                    plans.push(CellPlan {
                        mix: m,
                        users,
                        scenario: s,
                        grid: Arc::new(scenario.apply_grid(&self.config.grid)),
                        assignments: mix.assignments(users),
                        seed: derive_seed(self.config.seed, cell),
                    });
                }
            }
        }

        let total = plans.len() * reps;
        let plans_ref = &plans;
        let cfg = &self.config;
        let runs: Vec<FleetRun> = (0..total)
            .into_par_iter()
            .map_init(
                || None::<(usize, FleetWorker)>,
                move |slot, k| {
                    let cell = k / reps;
                    let plan = &plans_ref[cell];
                    let rep_seed = derive_seed(plan.seed, (k % reps) as u64);
                    match slot {
                        Some((c, worker)) if *c == cell => worker.rewind(rep_seed),
                        _ => {
                            let worker =
                                FleetWorker::build(&plan.grid, &plan.assignments, cfg, rep_seed);
                            *slot = Some((cell, worker));
                        }
                    }
                    let (_, worker) = slot.as_mut().expect("worker just installed");
                    worker.run()
                },
            )
            .collect();

        plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                FleetCellOutcome::aggregate(
                    self.mixes[plan.mix].name.clone(),
                    plan.users,
                    self.scenarios[plan.scenario].name.clone(),
                    &runs[c * reps..(c + 1) * reps],
                )
            })
            .collect()
    }
}

/// Runs a single community cell (mix, size, scenario) outside a sweep —
/// the convenience entry point for examples and one-off experiments.
pub fn run_cell(
    config: &FleetConfig,
    mix: &StrategyMix,
    users: usize,
    scenario: &GridScenario,
) -> FleetCellOutcome {
    FleetSweep::new(
        config.clone(),
        vec![mix.clone()],
        vec![users],
        vec![scenario.clone()],
    )
    .run()
    .remove(0)
}
