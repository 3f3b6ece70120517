//! Population descriptions: weighted strategy mixes and the shared fleet
//! configuration a sweep cell is instantiated from.

use crate::agent::{ArrivalProcess, Assignment};
use gridstrat_core::adaptive::AdaptiveConfig;
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::strategy::DelayedResubmission;
use gridstrat_sim::{GridConfig, SiteConfig};

/// Largest-remainder apportionment of `total` indivisible seats across
/// non-negative `weights` (which need not be normalised but must have a
/// positive, finite sum). Deterministic: remainder ties are broken by
/// index, so the same weights always yield the same counts. Used both for
/// strategy-mix population counts ([`StrategyMix::counts`]) and for
/// splitting a farm's worker slots across engine shards
/// ([`crate::ShardedFleet`]).
pub fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    assert!(
        !weights.is_empty(),
        "apportionment needs at least one seat-holder"
    );
    let wsum: f64 = weights.iter().sum();
    assert!(
        wsum.is_finite() && wsum > 0.0 && weights.iter().all(|w| *w >= 0.0),
        "apportionment weights must be non-negative with a positive sum"
    );
    let quotas: Vec<f64> = weights.iter().map(|w| total as f64 * w / wsum).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // hand the remaining seats to the largest fractional remainders
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra)
            .expect("finite remainders")
            .then(a.cmp(&b))
    });
    for &g in order.iter().take(total - assigned) {
        counts[g] += 1;
    }
    counts
}

/// One component of a [`StrategyMix`]: a strategy instance and the
/// fraction of the community playing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyGroup {
    /// The strategy every user of this group executes.
    pub strategy: StrategyParams,
    /// Relative weight (need not be normalised; must be non-negative).
    pub weight: f64,
    /// When set, this group's users adapt online: each re-tunes its own
    /// timeouts from its own observed job outcomes every `retune_every`
    /// tasks (see [`gridstrat_core::adaptive`]).
    pub adaptive: Option<AdaptiveConfig>,
}

impl StrategyGroup {
    /// A plain (non-adapting) group.
    pub fn new(strategy: StrategyParams, weight: f64) -> Self {
        StrategyGroup {
            strategy,
            weight,
            adaptive: None,
        }
    }

    /// An online-adapting group.
    pub fn adaptive(strategy: StrategyParams, weight: f64, config: AdaptiveConfig) -> Self {
        StrategyGroup {
            strategy,
            weight,
            adaptive: Some(config),
        }
    }
}

/// A heterogeneous population: named fractions of single / multiple /
/// delayed users, each with its own parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyMix {
    /// Mix label (appears in sweep outcomes and report tables).
    pub name: String,
    /// The component groups.
    pub groups: Vec<StrategyGroup>,
}

impl StrategyMix {
    /// A mix with explicit weights; weights must be non-negative with a
    /// positive sum.
    pub fn new(name: impl Into<String>, groups: Vec<StrategyGroup>) -> Self {
        let mix = StrategyMix {
            name: name.into(),
            groups,
        };
        mix.validate().expect("valid strategy mix");
        mix
    }

    /// The homogeneous mix: everyone plays `strategy`.
    pub fn pure(name: impl Into<String>, strategy: StrategyParams) -> Self {
        StrategyMix::new(name, vec![StrategyGroup::new(strategy, 1.0)])
    }

    /// Checks weights and strategy feasibility.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err("a strategy mix needs at least one group".into());
        }
        let mut total = 0.0;
        for (i, g) in self.groups.iter().enumerate() {
            if !(g.weight.is_finite() && g.weight >= 0.0) {
                return Err(format!("group {i}: weight must be >= 0, got {}", g.weight));
            }
            total += g.weight;
            if let StrategyParams::Delayed { t0, t_inf }
            | StrategyParams::DelayedMultiple { t0, t_inf, .. } = g.strategy
            {
                if !DelayedResubmission::feasible(t0, t_inf) {
                    return Err(format!(
                        "group {i}: infeasible delayed pair ({t0}, {t_inf})"
                    ));
                }
            }
            if let Some(cfg) = &g.adaptive {
                cfg.validate().map_err(|e| format!("group {i}: {e}"))?;
            }
        }
        if total <= 0.0 || !total.is_finite() {
            return Err("mix weights must sum to a positive value".into());
        }
        Ok(())
    }

    /// Number of users of each group in a community of `users`, by
    /// largest-remainder [`apportion`]ment (deterministic; ties broken by
    /// group index, so the same mix always yields the same counts).
    pub fn counts(&self, users: usize) -> Vec<usize> {
        let weights: Vec<f64> = self.groups.iter().map(|g| g.weight).collect();
        apportion(users, &weights)
    }

    /// Expands the mix into one [`Assignment`] per user (group-major
    /// blocks, deterministic).
    pub fn assignments(&self, users: usize) -> Vec<Assignment> {
        let counts = self.counts(users);
        let mut out = Vec::with_capacity(users);
        for (group, (g, &n)) in self.groups.iter().zip(&counts).enumerate() {
            out.extend(std::iter::repeat_n(
                Assignment {
                    strategy: g.strategy,
                    group,
                    adaptive: g.adaptive,
                },
                n,
            ));
        }
        out
    }
}

/// The per-cell-invariant part of a fleet experiment: the shared farm, the
/// per-user workload shape, and the Monte-Carlo bookkeeping. Community
/// size, strategy mix and grid scenario are supplied per run (they are the
/// sweep axes).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shared grid (must be pipeline mode — the whole point is that
    /// the community's jobs contend for the same slots).
    pub grid: GridConfig,
    /// Tasks every user must complete.
    pub tasks_per_user: usize,
    /// Execution time one task holds a worker slot for, seconds.
    pub task_exec_s: f64,
    /// Task-arrival process of every user.
    pub arrival: ArrivalProcess,
    /// Independent community replications per sweep cell.
    pub replications: usize,
    /// Master seed of the whole experiment.
    pub seed: u64,
    /// Sliding-window capacity of the per-group streaming latency metrics
    /// (most recent task latencies kept for ECDFs and quantiles). Bounds
    /// metric memory at `O(groups × group_window)` regardless of how many
    /// tasks the community completes.
    pub group_window: usize,
}

impl FleetConfig {
    /// A scarce shared farm of `slots` worker slots with EGEE-like
    /// middleware delays, a ~1-minute cancellation round-trip (so
    /// redundant burst copies can start anyway — the waste mechanism),
    /// mild silent loss, and no non-community background traffic.
    pub fn small_farm(slots: usize) -> Self {
        let mut grid = GridConfig::pipeline_default();
        grid.sites = vec![SiteConfig {
            name: "shared-farm".into(),
            slots,
            weight: 1.0,
        }];
        grid.background = None;
        grid.faults.p_silent_loss = 0.03;
        grid.faults.p_transient_failure = 0.0;
        grid.wms.cancellation_delay_mean_s = 60.0;
        FleetConfig {
            grid,
            tasks_per_user: 5,
            task_exec_s: 600.0,
            arrival: ArrivalProcess::BackToBack,
            replications: 3,
            seed: 0xF1EE7,
            group_window: 4096,
        }
    }

    /// Validates the configuration (pipeline grid, sane workload shape).
    pub fn validate(&self) -> Result<(), String> {
        self.grid.validate()?;
        if !matches!(self.grid.latency, gridstrat_sim::LatencyMode::Pipeline) {
            return Err("fleet experiments require a pipeline-mode grid".into());
        }
        if self.tasks_per_user == 0 {
            return Err("tasks_per_user must be at least 1".into());
        }
        if !(self.task_exec_s.is_finite() && self.task_exec_s >= 0.0) {
            return Err(format!(
                "task_exec_s must be >= 0, got {}",
                self.task_exec_s
            ));
        }
        if self.replications == 0 {
            return Err("at least one replication is required".into());
        }
        if self.group_window == 0 {
            return Err("group metric window must hold at least one latency".into());
        }
        self.arrival.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_inf: f64) -> StrategyParams {
        StrategyParams::Single { t_inf }
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        // the shard-slot path: equal weights split a farm evenly, with
        // earlier shards taking the remainder seats
        assert_eq!(apportion(30, &[1.0, 1.0, 1.0]), vec![10, 10, 10]);
        assert_eq!(apportion(31, &[1.0, 1.0, 1.0]), vec![11, 10, 10]);
        assert_eq!(apportion(2, &[0.5, 0.2, 0.3]), vec![1, 0, 1]);
        for total in [0usize, 1, 7, 100, 4001] {
            let c = apportion(total, &[3.0, 1.0, 2.5, 0.0]);
            assert_eq!(c.iter().sum::<usize>(), total, "total {total}");
            assert_eq!(c[3], 0, "zero weight never seats anyone");
        }
    }

    #[test]
    fn counts_apportion_exactly() {
        let mix = StrategyMix::new(
            "m",
            vec![
                StrategyGroup {
                    strategy: s(700.0),
                    weight: 1.0,
                    adaptive: None,
                },
                StrategyGroup {
                    strategy: StrategyParams::Multiple { b: 2, t_inf: 800.0 },
                    weight: 1.0,
                    adaptive: None,
                },
                StrategyGroup {
                    strategy: StrategyParams::Delayed {
                        t0: 400.0,
                        t_inf: 560.0,
                    },
                    weight: 1.0,
                    adaptive: None,
                },
            ],
        );
        for users in [1usize, 2, 3, 7, 40, 100] {
            let counts = mix.counts(users);
            assert_eq!(counts.iter().sum::<usize>(), users, "users {users}");
        }
        // exact thirds
        assert_eq!(mix.counts(9), vec![3, 3, 3]);
        // largest remainder: 7/3 = 2.33 each, first ties win the extra seat
        assert_eq!(mix.counts(7), vec![3, 2, 2]);
    }

    #[test]
    fn assignments_are_group_major() {
        let mix = StrategyMix::new(
            "m",
            vec![
                StrategyGroup {
                    strategy: s(700.0),
                    weight: 3.0,
                    adaptive: None,
                },
                StrategyGroup {
                    strategy: s(900.0),
                    weight: 1.0,
                    adaptive: None,
                },
            ],
        );
        let a = mix.assignments(4);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].group, 0);
        assert_eq!(a[2].group, 0);
        assert_eq!(a[3].group, 1);
        assert_eq!(a[3].strategy, s(900.0));
    }

    #[test]
    fn pure_mix_is_one_group() {
        let m = StrategyMix::pure("all-single", s(700.0));
        assert_eq!(m.counts(11), vec![11]);
    }

    #[test]
    fn rejects_bad_mixes() {
        assert!(StrategyMix {
            name: "empty".into(),
            groups: vec![]
        }
        .validate()
        .is_err());
        assert!(StrategyMix {
            name: "zero".into(),
            groups: vec![StrategyGroup {
                strategy: s(700.0),
                weight: 0.0,
                adaptive: None,
            }]
        }
        .validate()
        .is_err());
        assert!(StrategyMix {
            name: "infeasible".into(),
            groups: vec![StrategyGroup {
                strategy: StrategyParams::Delayed {
                    t0: 100.0,
                    t_inf: 50.0
                },
                weight: 1.0,
                adaptive: None,
            }]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn small_farm_config_validates() {
        assert!(FleetConfig::small_farm(30).validate().is_ok());
        let mut bad = FleetConfig::small_farm(30);
        bad.tasks_per_user = 0;
        assert!(bad.validate().is_err());
        let mut oracle = FleetConfig::small_farm(30);
        oracle.grid = GridConfig::oracle(
            gridstrat_workload::WeekModel::calibrate("w", 500.0, 700.0, 0.1, 50.0, 1e4).unwrap(),
        );
        assert!(oracle.validate().is_err(), "oracle grids must be rejected");
    }
}
