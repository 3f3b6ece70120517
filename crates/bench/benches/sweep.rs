//! Criterion benches for the batched [`ScenarioSweep`] runner — the
//! throughput trajectory every future scaling PR (sharding, caching,
//! multi-backend) is measured against.
//!
//! Reported unit: one full `run()` of a fixed sweep. Divide by
//! `n_trials_total()` (printed at startup) for per-trial cost.
//!
//! Beyond the interactive Criterion output, [`bench_sweep_trajectory`]
//! measures the canonical 12-cell × 500-trial sweep with a plain
//! wall-clock harness and writes `BENCH_sweep.json` at the workspace root:
//! trials/sec and cells/sec for the current tree next to the recorded
//! pre-optimization baseline, so the perf trajectory of the hot path is a
//! versioned artefact rather than a claim in a commit message. Set
//! `BENCH_SMOKE=1` (CI does) to run a reduced-size smoke pass that proves
//! the harness still works without producing publishable numbers.
//!
//! [`bench_fleet_trajectory`] does the same for the multi-user fleet
//! subsystem (`gridstrat-fleet`), writing `BENCH_fleet.json` with the
//! community-tasks-per-second throughput point.
//!
//! [`bench_fleet_scale_trajectory`] measures the community-scale regime:
//! a 100 000-user population sharded across 8 engines
//! (`gridstrat_fleet::ShardedFleet`, bounded-memory streaming metrics),
//! writing `BENCH_scale.json` next to the 40-user `BENCH_fleet.json`
//! point.
//!
//! [`bench_adaptive_trajectory`] measures the nonstationary adaptive
//! subsystem (`gridstrat_core::adaptive`): a full
//! (amplitude × retune-period) [`AdaptiveSweep`] — tuned-once and
//! online-retuned task sequences on modulated live grids, scale-tracking
//! retunes, and regret-frontier scoring — writing `BENCH_adaptive.json`
//! with the end-to-end tasks-per-second point plus the headline regret
//! numbers (so the *scientific* result is versioned next to the perf one).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::{GridScenario, MonteCarloConfig, ScenarioSweep};
use gridstrat_workload::WeekId;
use std::time::Instant;

fn strategies() -> Vec<StrategyParams> {
    vec![
        StrategyParams::Single { t_inf: 700.0 },
        StrategyParams::Multiple { b: 3, t_inf: 800.0 },
        StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        },
    ]
}

/// The canonical trajectory workload: 3 strategies × 2 weeks × 2 scenarios
/// = 12 cells. Trial count is a parameter so the smoke pass can shrink it.
fn trajectory_sweep(trials: usize) -> ScenarioSweep {
    ScenarioSweep::new(
        strategies(),
        vec![WeekId::W2006Ix, WeekId::W2007_51],
        vec![
            GridScenario::baseline(),
            GridScenario::new("2x-faults", 2.0, 1.0),
        ],
        MonteCarloConfig {
            trials,
            seed: 0xBE7C,
        },
    )
    .expect("valid trajectory sweep")
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_sweep");
    g.sample_size(10);
    for &trials in &[100usize, 500] {
        let sweep = trajectory_sweep(trials);
        println!(
            "scenario_sweep/run/{trials}: {} cells, {} total trials per run()",
            sweep.n_cells(),
            sweep.n_trials_total()
        );
        g.bench_with_input(BenchmarkId::new("run", trials), &sweep, |b, sweep| {
            b.iter(|| black_box(sweep.run()))
        });
    }
    g.finish();
}

fn bench_sweep_single_cell_overhead(c: &mut Criterion) {
    // one-cell sweep vs the same trials through StrategyExecutor: the
    // batching layer should cost nothing beyond the trials themselves
    use gridstrat_core::executor::StrategyExecutor;

    let mut g = c.benchmark_group("sweep_overhead");
    g.sample_size(10);
    let cfg = MonteCarloConfig {
        trials: 500,
        seed: 0xBE7C,
    };
    let sweep = ScenarioSweep::over_strategies(
        vec![StrategyParams::Single { t_inf: 700.0 }],
        WeekId::W2006Ix,
        cfg,
    )
    .expect("valid one-cell sweep");
    g.bench_function("one_cell_sweep_500_trials", |b| {
        b.iter(|| black_box(sweep.run()))
    });
    let week = WeekId::W2006Ix.model();
    g.bench_function("executor_500_trials", |b| {
        b.iter(|| {
            let ex = StrategyExecutor::new(week.clone(), cfg);
            black_box(ex.run(StrategyParams::Single { t_inf: 700.0 }))
        })
    });
    g.finish();
}

// --- recorded perf trajectory -------------------------------------------------

/// Pre-optimization baseline for the 12-cell × 500-trial trajectory
/// workload, measured with this very harness at commit 96f2ebc (per-trial
/// engine construction, `GridConfig` deep-cloned per trial) on the 1-CPU
/// reference container. Update only when re-measuring the old code path in
/// the same environment as the `current` numbers.
const BASELINE_TRIALS_PER_SEC: f64 = 1_442_211.0;
const BASELINE_CELLS_PER_SEC: f64 = 2_884.4;

/// Measures the trajectory workload with a plain wall-clock harness and
/// writes `BENCH_sweep.json` at the workspace root.
fn bench_sweep_trajectory(_c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (trials, reps) = if smoke { (20, 3) } else { (500, 15) };
    let sweep = trajectory_sweep(trials);
    let total_trials = sweep.n_trials_total() as f64;
    let n_cells = sweep.n_cells() as f64;

    black_box(sweep.run()); // warm-up (page-in, branch predictors, tables)
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sweep.run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = secs[secs.len() / 2];
    let trials_per_sec = total_trials / median;
    let cells_per_sec = n_cells / median;
    let speedup = trials_per_sec / BASELINE_TRIALS_PER_SEC;

    println!(
        "sweep_trajectory/{}: {total_trials} trials in {:.3} ms median -> \
         {trials_per_sec:.0} trials/s, {cells_per_sec:.0} cells/s \
         ({speedup:.2}x vs recorded baseline)",
        if smoke { "smoke" } else { "full" },
        median * 1e3,
    );

    let json = format!(
        "{{\n  \"workload\": {{\n    \"cells\": {n_cells},\n    \"trials_per_cell\": {trials},\n    \"total_trials\": {total_trials},\n    \"seed\": 48764,\n    \"mode\": \"{mode}\"\n  }},\n  \"baseline\": {{\n    \"trials_per_sec\": {BASELINE_TRIALS_PER_SEC},\n    \"cells_per_sec\": {BASELINE_CELLS_PER_SEC},\n    \"note\": \"pre-optimization hot path (per-trial engine construction, per-trial GridConfig deep clone), commit 96f2ebc, same 1-CPU container as current\"\n  }},\n  \"current\": {{\n    \"trials_per_sec\": {trials_per_sec},\n    \"cells_per_sec\": {cells_per_sec},\n    \"median_run_secs\": {median},\n    \"reps\": {reps}\n  }},\n  \"speedup_vs_baseline\": {speedup}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    );
    // smoke runs prove the emitter works but must not clobber the
    // committed full-mode trajectory at the repository root
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_sweep.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json")
    };
    match std::fs::write(path, json) {
        Ok(()) => println!("sweep_trajectory: wrote {path}"),
        Err(e) => println!("sweep_trajectory: could not write {path}: {e}"),
    }
}

// --- fleet trajectory ---------------------------------------------------------

/// Measures the multi-user fleet workload (a `FleetSweep` cell grid) with
/// the same plain wall-clock harness and writes `BENCH_fleet.json` at the
/// workspace root: community tasks per second — the users·tasks throughput
/// point every future fleet scaling PR is measured against. `BENCH_SMOKE=1`
/// shrinks the workload and redirects the artefact under `target/`.
fn bench_fleet_trajectory(_c: &mut Criterion) {
    use gridstrat_core::executor::GridScenario as FleetScenario;
    use gridstrat_fleet::{FleetConfig, FleetSweep, StrategyMix};

    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (users, tasks, reps_per_cell, reps) = if smoke {
        (12usize, 2usize, 1usize, 3usize)
    } else {
        (40, 5, 3, 9)
    };
    let mut cfg = FleetConfig::small_farm(30);
    cfg.tasks_per_user = tasks;
    cfg.replications = reps_per_cell;
    cfg.seed = 0xF1EE7;
    let seed = cfg.seed;
    let sweep = FleetSweep::new(
        cfg,
        vec![
            StrategyMix::pure("all-single", StrategyParams::Single { t_inf: 3_000.0 }),
            StrategyMix::pure(
                "burst-2",
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3_000.0,
                },
            ),
        ],
        vec![users],
        vec![FleetScenario::baseline()],
    )
    .expect("valid fleet sweep");
    let tasks_per_run: usize = sweep.n_runs_total() * users * tasks;

    black_box(sweep.run()); // warm-up
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sweep.run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = secs[secs.len() / 2];
    let tasks_per_sec = tasks_per_run as f64 / median;

    println!(
        "fleet_trajectory/{}: {} community runs ({users} users x {tasks} tasks each) in \
         {:.3} ms median -> {tasks_per_sec:.0} completed tasks/s",
        if smoke { "smoke" } else { "full" },
        sweep.n_runs_total(),
        median * 1e3,
    );

    let json = format!(
        "{{\n  \"workload\": {{\n    \"cells\": {cells},\n    \"replications_per_cell\": {reps_per_cell},\n    \"users\": {users},\n    \"tasks_per_user\": {tasks},\n    \"tasks_per_run\": {tasks_per_run},\n    \"seed\": {seed},\n    \"mode\": \"{mode}\"\n  }},\n  \"current\": {{\n    \"tasks_per_sec\": {tasks_per_sec},\n    \"median_run_secs\": {median},\n    \"reps\": {reps}\n  }}\n}}\n",
        cells = sweep.n_cells(),
        mode = if smoke { "smoke" } else { "full" },
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_fleet.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json")
    };
    match std::fs::write(path, json) {
        Ok(()) => println!("fleet_trajectory: wrote {path}"),
        Err(e) => println!("fleet_trajectory: could not write {path}: {e}"),
    }
}

// --- fleet scale trajectory ---------------------------------------------------

/// Measures a community-scale sharded fleet run — 100 000 users across 8
/// engine shards with per-epoch background-load exchange and streaming
/// `O(users + groups)` metrics — and writes `BENCH_scale.json` at the
/// workspace root: the first throughput point of the community-scale
/// regime, recorded next to `BENCH_fleet.json`'s 40-user point.
/// `BENCH_SMOKE=1` shrinks the community and redirects the artefact under
/// `target/`.
fn bench_fleet_scale_trajectory(_c: &mut Criterion) {
    use gridstrat_core::executor::GridScenario as FleetScenario;
    use gridstrat_fleet::{FleetConfig, ShardedFleet, StrategyGroup, StrategyMix};

    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (users, shards, slots, reps) = if smoke {
        (2_000usize, 2usize, 100usize, 1usize)
    } else {
        (100_000, 8, 4_000, 3)
    };
    let tasks = 1usize;
    let mut cfg = FleetConfig::small_farm(slots);
    cfg.tasks_per_user = tasks;
    cfg.replications = 1;
    cfg.seed = 0xF1EE7;
    let seed = cfg.seed;
    // a representative population: mostly single-resubmission users with a
    // bursting minority. Timeouts are sized for community-scale queue
    // waits (the whole population lands at t = 0, so the back of the
    // queue waits ~users × exec / slots ≈ 15 000 s); the 40-user point's
    // 3 000 s timeouts would churn-cancel forever at this scale.
    let t_inf = 100_000.0;
    let mix = StrategyMix::new(
        "mostly-single",
        vec![
            StrategyGroup::new(StrategyParams::Single { t_inf }, 0.85),
            StrategyGroup::new(StrategyParams::Multiple { b: 2, t_inf }, 0.15),
        ],
    );
    let sharded = ShardedFleet::new(cfg, mix, users, shards, FleetScenario::baseline());
    let tasks_per_run = users * tasks;

    let warm = black_box(sharded.run());
    assert_eq!(
        warm.tasks_completed, warm.tasks_total,
        "scale run must complete every task"
    );
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sharded.run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = secs[secs.len() / 2];
    let tasks_per_sec = tasks_per_run as f64 / median;

    println!(
        "fleet_scale_trajectory/{}: {users} users x {tasks} task over {shards} shards \
         ({slots} slots) in {:.3} s median -> {tasks_per_sec:.0} completed tasks/s",
        if smoke { "smoke" } else { "full" },
        median,
    );

    let json = format!(
        "{{\n  \"workload\": {{\n    \"users\": {users},\n    \"shards\": {shards},\n    \"slots\": {slots},\n    \"tasks_per_user\": {tasks},\n    \"tasks_per_run\": {tasks_per_run},\n    \"epoch_s\": {epoch},\n    \"coupling\": {coupling},\n    \"seed\": {seed},\n    \"mode\": \"{mode}\"\n  }},\n  \"current\": {{\n    \"tasks_per_sec\": {tasks_per_sec},\n    \"median_run_secs\": {median},\n    \"reps\": {reps}\n  }},\n  \"reference\": {{\n    \"note\": \"see BENCH_fleet.json for the 40-user single-engine point, measured by the same harness family\"\n  }}\n}}\n",
        epoch = sharded.epoch_s,
        coupling = sharded.coupling,
        mode = if smoke { "smoke" } else { "full" },
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_scale.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json")
    };
    match std::fs::write(path, json) {
        Ok(()) => println!("fleet_scale_trajectory: wrote {path}"),
        Err(e) => println!("fleet_scale_trajectory: could not write {path}: {e}"),
    }
}

// --- adaptive trajectory ------------------------------------------------------

/// Measures the nonstationary adaptive workload — an `AdaptiveSweep` over
/// (diurnal amplitude × retune period), running tuned-once and
/// online-retuned sequences with regret scoring — and writes
/// `BENCH_adaptive.json` at the workspace root. `BENCH_SMOKE=1` shrinks
/// the workload and redirects the artefact under `target/`.
fn bench_adaptive_trajectory(_c: &mut Criterion) {
    use gridstrat_core::adaptive::{AdaptiveConfig, AdaptiveSweep};
    use gridstrat_workload::WeekModel;

    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (n_tasks, reps) = if smoke { (60usize, 1usize) } else { (600, 3) };
    let base = WeekModel::calibrate("drift-week", 570.0, 886.0, 0.20, 60.0, 10_000.0)
        .expect("valid calibration");
    let sweep = AdaptiveSweep {
        base,
        period_s: 86_400.0,
        amplitudes: vec![0.5, 0.8],
        retune_periods: vec![5, 20],
        family: StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        },
        adaptive: AdaptiveConfig::default(),
        n_tasks,
        seed: 0x5EED,
    };
    // 2 sequences (fixed + adaptive) per cell
    let tasks_per_run = sweep.n_cells() * 2 * n_tasks;

    let cells = black_box(sweep.run()); // warm-up; also the recorded outcome
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sweep.run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = secs[secs.len() / 2];
    let tasks_per_sec = tasks_per_run as f64 / median;

    println!(
        "adaptive_trajectory/{}: {} cells x 2 sequences x {n_tasks} tasks in \
         {:.3} ms median -> {tasks_per_sec:.0} tasks/s",
        if smoke { "smoke" } else { "full" },
        sweep.n_cells(),
        median * 1e3,
    );

    let mut cell_lines = String::new();
    for (i, c) in cells.iter().enumerate() {
        cell_lines.push_str(&format!(
            "    {{ \"amplitude\": {}, \"retune_every\": {}, \"regret_fixed\": {}, \"regret_adaptive\": {}, \"mean_j_fixed\": {}, \"mean_j_adaptive\": {}, \"retunes\": {} }}{}\n",
            c.amplitude,
            c.retune_every,
            c.fixed.mean_regret,
            c.adaptive.mean_regret,
            c.fixed.mean_latency,
            c.adaptive.mean_latency,
            c.retunes,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"workload\": {{\n    \"cells\": {cells_n},\n    \"tasks_per_sequence\": {n_tasks},\n    \"sequences_per_cell\": 2,\n    \"tasks_per_run\": {tasks_per_run},\n    \"seed\": {seed},\n    \"mode\": \"{mode}\"\n  }},\n  \"current\": {{\n    \"tasks_per_sec\": {tasks_per_sec},\n    \"median_run_secs\": {median},\n    \"reps\": {reps}\n  }},\n  \"regret\": [\n{cell_lines}  ]\n}}\n",
        cells_n = sweep.n_cells(),
        seed = sweep.seed,
        mode = if smoke { "smoke" } else { "full" },
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_adaptive.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json")
    };
    match std::fs::write(path, json) {
        Ok(()) => println!("adaptive_trajectory: wrote {path}"),
        Err(e) => println!("adaptive_trajectory: could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_sweep_throughput,
    bench_sweep_single_cell_overhead,
    bench_sweep_trajectory,
    bench_fleet_trajectory,
    bench_fleet_scale_trajectory,
    bench_adaptive_trajectory
);
criterion_main!(benches);
