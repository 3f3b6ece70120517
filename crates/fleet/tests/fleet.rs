//! Integration tests of the multi-user fleet subsystem: end-to-end
//! community runs, sweep determinism across thread counts, worker-reuse
//! bit-identity, and the paper's administrators' complaint (raising `b`
//! degrades everyone's latency) as a pinned regression.

use gridstrat_core::adaptive::{AdaptiveConfig, RetunePolicy};
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::GridScenario;
use gridstrat_fleet::{BestResponseSearch, FleetConfig, FleetSweep, StrategyGroup, StrategyMix};

fn test_config() -> FleetConfig {
    let mut cfg = FleetConfig::small_farm(12);
    cfg.tasks_per_user = 2;
    cfg.task_exec_s = 300.0;
    cfg.replications = 2;
    cfg.seed = 0xF1EE7;
    cfg
}

fn mixed_population() -> StrategyMix {
    StrategyMix::new(
        "mixed",
        vec![
            StrategyGroup {
                strategy: StrategyParams::Single { t_inf: 3000.0 },
                weight: 1.0,
                adaptive: None,
            },
            StrategyGroup {
                strategy: StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                weight: 1.0,
                adaptive: None,
            },
            StrategyGroup {
                strategy: StrategyParams::Delayed {
                    t0: 1500.0,
                    t_inf: 3000.0,
                },
                weight: 1.0,
                adaptive: None,
            },
        ],
    )
}

fn small_sweep(seed: u64) -> FleetSweep {
    let mut cfg = test_config();
    cfg.seed = seed;
    FleetSweep::new(
        cfg,
        vec![
            StrategyMix::pure("all-single", StrategyParams::Single { t_inf: 3000.0 }),
            mixed_population(),
        ],
        vec![9, 15],
        vec![
            GridScenario::baseline(),
            GridScenario::new("2x-faults", 2.0, 1.0),
        ],
    )
}

#[test]
fn community_completes_every_task_with_sane_metrics() {
    let cfg = test_config();
    let out = gridstrat_fleet::run_cell(&cfg, &mixed_population(), 12, &GridScenario::baseline());
    assert_eq!(out.tasks_completed, out.tasks_total);
    assert_eq!(out.tasks_total, 12 * cfg.tasks_per_user * cfg.replications);
    assert!(out.fairness > 0.0 && out.fairness <= 1.0 + 1e-12);
    assert!((0.0..=1.0).contains(&out.slot_waste));
    assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-12);
    assert!(out.mean_latency.is_finite() && out.mean_latency > 0.0);
    assert!(out.makespan_s > 0.0);
    // three groups of four users each, all reporting latencies
    assert_eq!(out.groups.len(), 3);
    for g in &out.groups {
        assert_eq!(g.users, 4);
        assert!(g.latency.count() > 0);
        let e = g.ecdf().expect("group has completed tasks");
        assert_eq!(e.n_total() as u64, g.latency.count());
    }
    // the burst group submits more than the single group per task
    assert!(out.submissions > out.tasks_completed as u64);
}

#[test]
fn tiny_community_with_empty_apportioned_group_runs() {
    // weights [0.5, 0.2, 0.3] over 2 users apportion to [1, 0, 1]; the
    // empty middle group must not panic the aggregation (regression)
    let mut cfg = test_config();
    cfg.replications = 1;
    let mix = StrategyMix::new(
        "sparse",
        vec![
            StrategyGroup {
                strategy: StrategyParams::Single { t_inf: 3000.0 },
                weight: 0.5,
                adaptive: None,
            },
            StrategyGroup {
                strategy: StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                weight: 0.2,
                adaptive: None,
            },
            StrategyGroup {
                strategy: StrategyParams::Delayed {
                    t0: 1500.0,
                    t_inf: 3000.0,
                },
                weight: 0.3,
                adaptive: None,
            },
        ],
    );
    assert_eq!(mix.counts(2), vec![1, 0, 1]);
    let out = gridstrat_fleet::run_cell(&cfg, &mix, 2, &GridScenario::baseline());
    assert_eq!(out.groups.len(), 2);
    assert_eq!(out.groups[0].group, 0);
    assert_eq!(out.groups[1].group, 2);
    assert_eq!(out.tasks_completed, out.tasks_total);
}

#[test]
fn sweep_identical_across_thread_counts() {
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| small_sweep(0xBEEF).run())
    };
    let a = run_with(1);
    let b = run_with(5);
    assert_eq!(a.len(), 8);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.mean_latency.to_bits(),
            y.mean_latency.to_bits(),
            "{}/{}/{}",
            x.mix,
            x.users,
            x.scenario
        );
        assert_eq!(x.fairness.to_bits(), y.fairness.to_bits());
        assert_eq!(x.slot_waste.to_bits(), y.slot_waste.to_bits());
        assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
        assert_eq!(x.tasks_completed, y.tasks_completed);
        assert_eq!(x.submissions, y.submissions);
        for (gx, gy) in x.groups.iter().zip(&y.groups) {
            assert_eq!(gx.latency.mean().to_bits(), gy.latency.mean().to_bits());
        }
    }
}

#[test]
fn sweep_identical_under_rayon_num_threads_env() {
    // the env knob users actually reach for must not change results.
    // NOTE: mutates process-global env for a short window; sound here for
    // the same reasons as the core executor's equivalent test (all env
    // access in the workspace goes through std::env, no FFI getenv).
    let before = small_sweep(0xD0E).run();
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let after = small_sweep(0xD0E).run();
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    for (x, y) in before.iter().zip(&after) {
        assert_eq!(x.mean_latency.to_bits(), y.mean_latency.to_bits());
        assert_eq!(x.slot_waste.to_bits(), y.slot_waste.to_bits());
    }
}

#[test]
fn repeated_sweeps_are_deterministic() {
    let a = small_sweep(7).run();
    let b = small_sweep(7).run();
    let c = small_sweep(8).run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mean_latency.to_bits(), y.mean_latency.to_bits());
    }
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| x.mean_latency.to_bits() != y.mean_latency.to_bits()),
        "different master seeds must change the experiment"
    );
}

#[test]
fn raising_b_degrades_community_latency_and_waste() {
    // The administrators' complaint (paper §8): with the whole community
    // bursting on a scarce farm, redundant copies that start before their
    // cancellation lands burn the very slots users compete for, so
    // latency AND waste grow with b. Pinned on the deterministic seed.
    let mut cfg = FleetConfig::small_farm(30);
    cfg.tasks_per_user = 3;
    cfg.task_exec_s = 600.0;
    cfg.replications = 2;
    cfg.seed = 0xEC0;
    let burst = |b: u32| {
        StrategyMix::pure(
            format!("burst-{b}"),
            StrategyParams::Multiple { b, t_inf: 3000.0 },
        )
    };
    let sweep = FleetSweep::new(
        cfg,
        vec![burst(1), burst(2), burst(4)],
        vec![40],
        vec![GridScenario::baseline()],
    );
    let out = sweep.run();
    assert_eq!(out.len(), 3);
    let (b1, b2, b4) = (&out[0], &out[1], &out[2]);
    assert!(
        b4.mean_latency > b1.mean_latency,
        "b=4 mean {} should exceed b=1 mean {}",
        b4.mean_latency,
        b1.mean_latency
    );
    assert!(
        b4.slot_waste > b2.slot_waste && b2.slot_waste > b1.slot_waste,
        "slot waste must grow with b: {} / {} / {}",
        b1.slot_waste,
        b2.slot_waste,
        b4.slot_waste
    );
    assert!(
        b4.wasted_starts > b1.wasted_starts,
        "wasted starts must grow with b"
    );
    assert!(b1.slot_waste < 0.35, "b=1 waste should be modest");
}

fn adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        retune_every: 2,
        window: 100,
        decay: 0.95,
        min_body: 5,
        policy: RetunePolicy::EmpiricalBackoff {
            max_censored_fraction: 0.5,
            growth: 1.5,
        },
    }
}

/// A mix whose single-resubmission half adapts online; the burst half is
/// plain — exercising mixed adaptive/non-adaptive routing in one engine.
fn adaptive_mix() -> StrategyMix {
    StrategyMix::new(
        "adaptive-vs-burst",
        vec![
            StrategyGroup::adaptive(
                StrategyParams::Single { t_inf: 3000.0 },
                1.0,
                adaptive_config(),
            ),
            StrategyGroup::new(
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                1.0,
            ),
        ],
    )
}

#[test]
fn adaptive_users_complete_and_stay_deterministic() {
    let mut cfg = test_config();
    cfg.tasks_per_user = 6; // enough completions for retunes to fire
    let out = gridstrat_fleet::run_cell(&cfg, &adaptive_mix(), 10, &GridScenario::baseline());
    assert_eq!(out.tasks_completed, out.tasks_total);
    assert!(out.mean_latency.is_finite() && out.mean_latency > 0.0);

    // determinism incl. the retuning path: repeat bit-for-bit
    let again = gridstrat_fleet::run_cell(&cfg, &adaptive_mix(), 10, &GridScenario::baseline());
    assert_eq!(out.mean_latency.to_bits(), again.mean_latency.to_bits());
    assert_eq!(out.submissions, again.submissions);
}

#[test]
fn adaptive_sweep_identical_across_thread_counts_and_reuse() {
    // the sweep reuses one engine + fleet per worker across replications:
    // a retuned adaptive agent must reset to its initial parameters
    // bit-identically, or thread counts would change results
    let mut cfg = test_config();
    cfg.tasks_per_user = 6;
    cfg.replications = 3;
    let sweep = |seed: u64| {
        let mut c = cfg.clone();
        c.seed = seed;
        FleetSweep::new(
            c,
            vec![adaptive_mix()],
            vec![8, 12],
            vec![GridScenario::baseline()],
        )
    };
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| sweep(0xADF1).run())
    };
    let a = run_with(1);
    let b = run_with(6);
    assert_eq!(a.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mean_latency.to_bits(), y.mean_latency.to_bits());
        assert_eq!(x.submissions, y.submissions);
        assert_eq!(x.slot_waste.to_bits(), y.slot_waste.to_bits());
    }
}

#[test]
fn mix_rejects_invalid_adaptive_config() {
    let bad = AdaptiveConfig {
        retune_every: 0,
        ..adaptive_config()
    };
    let mix = StrategyMix {
        name: "bad".into(),
        groups: vec![StrategyGroup::adaptive(
            StrategyParams::Single { t_inf: 3000.0 },
            1.0,
            bad,
        )],
    };
    assert!(mix.validate().is_err());
}

#[test]
fn equilibrium_search_converges_and_is_deterministic() {
    let mut cfg = test_config();
    cfg.replications = 1;
    let candidates = vec![
        StrategyParams::Single { t_inf: 3000.0 },
        StrategyParams::Multiple {
            b: 3,
            t_inf: 3000.0,
        },
    ];
    let search = BestResponseSearch::new(cfg, 12, candidates, GridScenario::baseline());
    let a = search.run();
    let b = search.run();
    assert!(!a.steps.is_empty());
    assert_eq!(
        a.final_counts, b.final_counts,
        "search must be deterministic"
    );
    assert_eq!(a.final_counts.iter().sum::<usize>(), 12);
    assert_eq!(a.converged, b.converged);
    let fr = a.final_fractions();
    assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    for step in &a.steps {
        assert_eq!(step.counts.iter().sum::<usize>(), 12);
        assert!(step.best_response < 2);
        assert!(step.deviation_latency.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn one_engine_holds_more_than_60_000_users() {
    // the owner's user field is a u32: a community this size needs no shards
    let mut cfg = FleetConfig::small_farm(2_000);
    cfg.tasks_per_user = 1;
    cfg.task_exec_s = 1.0;
    cfg.replications = 1;
    let users = 60_001;
    let mix = StrategyMix::pure("all-single", StrategyParams::Single { t_inf: 3000.0 });
    let out = gridstrat_fleet::run_cell(&cfg, &mix, users, &GridScenario::baseline());
    assert_eq!(out.tasks_total, users);
    assert_eq!(out.tasks_completed, out.tasks_total);
}

#[test]
fn one_user_runs_more_than_65_535_tasks() {
    // the owner's epoch field is a u32: task counts past 16 bits route fine
    let mut cfg = FleetConfig::small_farm(1);
    cfg.tasks_per_user = 65_540;
    cfg.task_exec_s = 1.0;
    cfg.replications = 1;
    cfg.grid.horizon = gridstrat_sim::SimDuration::from_secs(1e9);
    let mix = StrategyMix::pure("all-single", StrategyParams::Single { t_inf: 3000.0 });
    let out = gridstrat_fleet::run_cell(&cfg, &mix, 1, &GridScenario::baseline());
    assert_eq!(out.tasks_total, 65_540);
    assert_eq!(out.tasks_completed, out.tasks_total);
}
