//! # gridstrat-fleet
//!
//! Multi-user **ecosystem** simulation — the paper's stated future work
//! (§8): what happens to grid latency when *every* user adopts an
//! aggressive submission strategy?
//!
//! The analytic models of `gridstrat-core` assume one user's redundant
//! jobs do not measurably change the grid workload (§3.3) — reasonable
//! for a single user on an 80 000-core infrastructure, false when the
//! whole community bursts. This crate drops that assumption by
//! multiplexing a *population* of users onto one shared pipeline-mode
//! [`gridstrat_sim::GridSimulation`]:
//!
//! * [`FleetController`] — wraps one
//!   [`StrategyController`](gridstrat_core::executor::StrategyController)
//!   per user (built through
//!   [`Strategy::build_controller`](gridstrat_core::strategy::Strategy::build_controller),
//!   so every strategy family works unmodified) and routes engine events
//!   by the [`Owner`](gridstrat_sim::Owner) (user, task epoch) the engine
//!   stamps on every job and timer;
//! * [`StrategyMix`] / [`FleetConfig`] — heterogeneous populations:
//!   fractions of single / multiple / delayed users with their own
//!   parameters, community size, tasks per user, task execution time and
//!   per-user arrival processes;
//! * [`FleetSweep`] — (mix × community-size × scenario) grids evaluated
//!   in one parallel pass, bit-identical for any thread count;
//! * [`ShardedFleet`] — a community partitioned across independent
//!   engine shards coupled by per-epoch background-load exchange, with
//!   bounded-memory streaming metrics (`O(users + groups)`, never per-task
//!   vectors). One engine holds any community size; sharding is a
//!   parallelism and coupling choice;
//! * [`metrics`] — ecosystem metrics: per-strategy latency ECDFs, the
//!   Jain fairness index, the redundant-slot-waste fraction and farm
//!   utilisation;
//! * [`BestResponseSearch`] — best-response iteration over strategy
//!   mixes: is `b`-fold multiple submission a Nash equilibrium, and at
//!   what community size does it stop paying?
//!
//! ## Quickstart
//!
//! ```
//! use gridstrat_fleet::{run_cell, FleetConfig, StrategyMix};
//! use gridstrat_core::cost::StrategyParams;
//! use gridstrat_core::executor::GridScenario;
//!
//! // 16 users, everyone 2-fold bursting, on a scarce 12-slot farm.
//! let mut cfg = FleetConfig::small_farm(12);
//! cfg.tasks_per_user = 2;
//! cfg.replications = 1;
//! let mix = StrategyMix::pure("all-burst", StrategyParams::Multiple { b: 2, t_inf: 3000.0 });
//! let cell = run_cell(&cfg, &mix, 16, &GridScenario::baseline());
//! assert_eq!(cell.tasks_completed, cell.tasks_total);
//! assert!(cell.fairness > 0.0 && cell.fairness <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod agent;
pub mod controller;
pub mod equilibrium;
pub mod metrics;
pub mod mix;
pub mod shard;
pub mod sweep;

pub use agent::{user_stream_seed, ArrivalProcess, Assignment};
pub use controller::FleetController;
pub use equilibrium::{BestResponseSearch, BestResponseStep, EquilibriumReport};
pub use metrics::{jain_index, FleetCellOutcome, FleetRun, GroupReport, GroupStream, UserOutcome};
pub use mix::{apportion, FleetConfig, StrategyGroup, StrategyMix};
pub use shard::{shard_seed, ShardedFleet};
pub use sweep::{run_cell, FleetSweep, FLEET_STREAM};
