//! Batched evaluation of a (strategy-mix × community-size × grid-scenario)
//! grid of community experiments in one parallel pass.
//!
//! Cells run through [`gridstrat_core::executor::replicate`], which owns
//! the seed layout, per-worker engine + fleet reuse and index-order
//! aggregation, so the entire sweep is **bit-identical for any thread
//! count**.

use crate::agent::Assignment;
use crate::controller::FleetController;
use crate::metrics::{FleetCellOutcome, FleetRun};
use crate::mix::{FleetConfig, StrategyMix};
use gridstrat_core::executor::{replicate, GridScenario, Worker};
use gridstrat_sim::{GridConfig, GridSimulation};
use gridstrat_stats::rng::derive_seed;
use std::sync::Arc;

/// Stream index separating the fleet's agent RNGs from the engine RNG
/// within one replication: `engine_seed = rep_seed`,
/// `fleet_seed = derive_seed(rep_seed, FLEET_STREAM)`. Pinned by
/// golden-vector tests alongside [`crate::agent::user_stream_seed`].
pub const FLEET_STREAM: u64 = 0xF1EE7;

/// One community configuration: a farm, its population and the shared
/// workload shape.
pub(crate) struct FleetCell<'a> {
    pub(crate) grid: Arc<GridConfig>,
    pub(crate) assignments: Vec<Assignment>,
    pub(crate) config: &'a FleetConfig,
}

/// One engine and the fleet controller that drives it, seeded from one
/// engine seed (`fleet_seed = derive_seed(engine_seed, FLEET_STREAM)`)
/// and rewound in place between replications — the unit every sweep,
/// shard and equilibrium run is made of.
pub(crate) struct FleetWorker {
    pub(crate) sim: GridSimulation,
    pub(crate) fleet: FleetController,
}

impl Worker<FleetCell<'_>> for FleetWorker {
    type Output = FleetRun;

    fn build(cell: &FleetCell<'_>, engine_seed: u64) -> Self {
        let cfg = cell.config;
        FleetWorker {
            sim: GridSimulation::new(Arc::clone(&cell.grid), engine_seed)
                .expect("fleet grids are validated by FleetConfig"),
            fleet: FleetController::new(
                &cell.assignments,
                cfg.tasks_per_user,
                cfg.task_exec_s,
                cfg.arrival,
                derive_seed(engine_seed, FLEET_STREAM),
                cfg.group_window,
            ),
        }
    }

    fn rewind(&mut self, engine_seed: u64) {
        self.sim.reset(engine_seed);
        self.fleet.reset(derive_seed(engine_seed, FLEET_STREAM));
    }

    fn run(&mut self) -> FleetRun {
        self.sim.run_controller(&mut self.fleet);
        self.fleet.collect(&self.sim)
    }
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
    /// Builds a sweep. Errors when an axis is empty, a community size is
    /// zero, or the configuration or a mix is invalid.
    pub fn new(
        config: FleetConfig,
        mixes: Vec<StrategyMix>,
        community_sizes: Vec<usize>,
        scenarios: Vec<GridScenario>,
    ) -> Result<Self, String> {
        config.validate()?;
        if mixes.is_empty() {
            return Err("sweep needs at least one mix".into());
        }
        if community_sizes.is_empty() {
            return Err("sweep needs at least one community size".into());
        }
        if scenarios.is_empty() {
            return Err("sweep needs at least one scenario".into());
        }
        if community_sizes.contains(&0) {
            return Err("community sizes must be positive".into());
        }
        for m in &mixes {
            m.validate()?;
        }
        Ok(FleetSweep {
            config,
            mixes,
            community_sizes,
            scenarios,
        })
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
        let mut cells = Vec::with_capacity(self.n_cells());
        let mut labels = Vec::with_capacity(self.n_cells());
        for mix in &self.mixes {
            for &users in &self.community_sizes {
                for scenario in &self.scenarios {
                    cells.push(FleetCell {
                        grid: Arc::new(scenario.apply_grid(&self.config.grid)),
                        assignments: mix.assignments(users),
                        config: &self.config,
                    });
                    labels.push((&mix.name, users, &scenario.name));
                }
            }
        }

        let runs =
            replicate::<_, FleetWorker>(&cells, reps, |c| derive_seed(self.config.seed, c as u64));
        labels
            .into_iter()
            .enumerate()
            .map(|(c, (mix, users, scenario))| {
                FleetCellOutcome::aggregate(
                    mix.clone(),
                    users,
                    scenario.clone(),
                    &runs[c * reps..(c + 1) * reps],
                )
            })
            .collect()
    }
}

/// Runs a single community cell (mix, size, scenario) outside a sweep —
/// the convenience entry point for examples and one-off experiments.
///
/// # Panics
///
/// If [`FleetSweep::new`] rejects the cell.
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
    .unwrap_or_else(|e| panic!("invalid fleet cell: {e}"))
    .run()
    .remove(0)
}
