//! Ecosystem experiment: what happens when *every* user adopts an
//! aggressive submission strategy? (the paper's stated future work, §8)
//!
//! ```text
//! cargo run --release --example ecosystem
//! ```
//!
//! The analytic models assume redundant jobs do not measurably change the
//! grid workload (§3.3) — reasonable for one user on an 80 000-core
//! infrastructure, false if the whole community bursts. Here
//! `gridstrat-fleet` shares a scarce simulated farm among a community of
//! users; redundant burst copies that start before their cancellation
//! lands burn worker slots for their full execution time, so raising `b`
//! degrades everyone's latency — exactly the administrators' complaint
//! the paper cites.
//!
//! Three stages, all bit-identical for any thread count:
//!
//! 1. the classic single-mix scan (everyone bursts with `b = 1, 2, 4`);
//! 2. a [`FleetSweep`] over 3 community sizes × 3 strategy mixes × 2 grid
//!    scenarios reporting fairness, slot waste and per-strategy latency;
//! 3. a best-response loop searching for the equilibrium mix: is b-fold
//!    multiple submission a Nash equilibrium, and at what community size
//!    does it stop paying?

use gridstrat::prelude::*;

const T_INF: f64 = 3_000.0;

fn base_config() -> FleetConfig {
    // a scarce farm: fewer slots than users, so the community saturates
    // it; cancels are WMS round-trips (~1 min before they land)
    let mut cfg = FleetConfig::small_farm(30);
    cfg.tasks_per_user = 5;
    cfg.task_exec_s = 600.0;
    cfg.replications = 3;
    cfg.seed = 0xEC0;
    cfg
}

fn burst_mix(b: u32) -> StrategyMix {
    StrategyMix::pure(
        format!("burst-{b}"),
        StrategyParams::Multiple { b, t_inf: T_INF },
    )
}

fn main() {
    let cfg = base_config();

    // --- stage 1: the classic scan — everyone bursts harder --------------
    println!(
        "community of 40 users x {} tasks on a 30-slot shared farm; every user\n\
         uses b-fold burst submission (copies run 600 s once started, cancels\n\
         take ~1 min to land); {} replications per cell\n",
        cfg.tasks_per_user, cfg.replications
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>11} {:>9}",
        "mix", "mean J", "p95 J", "fairness", "waste", "subs", "util"
    );
    let scan = FleetSweep::new(
        cfg.clone(),
        vec![burst_mix(1), burst_mix(2), burst_mix(4)],
        vec![40],
        vec![GridScenario::baseline()],
    )
    .expect("valid burst scan")
    .run();
    for cell in &scan {
        println!(
            "{:>8} {:>9.0}s {:>9.0}s {:>10.3} {:>8.1}% {:>11} {:>8.1}%",
            cell.mix,
            cell.mean_latency,
            cell.groups[0].quantile(0.95),
            cell.fairness,
            cell.slot_waste * 100.0,
            cell.submissions,
            cell.utilization * 100.0
        );
    }
    println!(
        "\nreading: with everyone bursting, redundant copies consume the very\n\
         slots users compete for — latency and waste grow with b, which is why\n\
         the paper argues for the delayed strategy's Δcost < 1 regime.\n"
    );

    // --- stage 2: mix x community-size x scenario sweep -------------------
    let mixes = vec![
        StrategyMix::pure("all-single", StrategyParams::Single { t_inf: T_INF }),
        burst_mix(2),
        StrategyMix::new(
            "mixed",
            vec![
                StrategyGroup {
                    strategy: StrategyParams::Single { t_inf: T_INF },
                    weight: 0.5,
                    adaptive: None,
                },
                StrategyGroup {
                    strategy: StrategyParams::Multiple { b: 2, t_inf: T_INF },
                    weight: 0.25,
                    adaptive: None,
                },
                StrategyGroup {
                    strategy: StrategyParams::Delayed {
                        t0: 1_500.0,
                        t_inf: T_INF,
                    },
                    weight: 0.25,
                    adaptive: None,
                },
            ],
        ),
    ];
    let sweep = FleetSweep::new(
        cfg.clone(),
        mixes,
        vec![20, 40, 60],
        vec![
            GridScenario::baseline(),
            GridScenario::new("slow+faulty", 2.0, 1.5),
        ],
    )
    .expect("valid fleet sweep");
    println!(
        "fleet sweep: {} cells ({} community runs total)\n",
        sweep.n_cells(),
        sweep.n_runs_total()
    );
    println!(
        "{:>10} {:>6} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "mix", "users", "scenario", "mean J", "fairness", "waste", "util"
    );
    for cell in sweep.run() {
        println!(
            "{:>10} {:>6} {:>12} {:>9.0}s {:>10.3} {:>8.1}% {:>8.1}%",
            cell.mix,
            cell.users,
            cell.scenario,
            cell.mean_latency,
            cell.fairness,
            cell.slot_waste * 100.0,
            cell.utilization * 100.0
        );
        // per-strategy latency breakdown for the heterogeneous mix
        if cell.groups.len() > 1 && cell.scenario == "baseline" {
            for g in &cell.groups {
                println!(
                    "{:>10}   group {}: {:<40} mean {:>6.0}s  p95 {:>6.0}s",
                    "",
                    g.group,
                    format!("{:?}", g.strategy),
                    g.latency.mean(),
                    g.quantile(0.95)
                );
            }
        }
    }

    // --- stage 3: best-response equilibrium search ------------------------
    println!("\nbest-response search: single vs 2-fold vs 4-fold burst, 40 users\n");
    let mut eq_cfg = cfg;
    eq_cfg.tasks_per_user = 3; // keep the search snappy
    let search = BestResponseSearch::new(
        eq_cfg,
        40,
        vec![
            StrategyParams::Single { t_inf: T_INF },
            StrategyParams::Multiple { b: 2, t_inf: T_INF },
            StrategyParams::Multiple { b: 4, t_inf: T_INF },
        ],
        GridScenario::baseline(),
    );
    let report = search.run();
    println!(
        "{:>4} {:>18} {:>26} {:>26} {:>6}",
        "iter", "counts (s/b2/b4)", "incumbent J (s)", "deviation J (s)", "best"
    );
    for (i, step) in report.steps.iter().enumerate() {
        let fmt = |xs: &[f64]| {
            xs.iter()
                .map(|x| {
                    if x.is_nan() {
                        "    -".into()
                    } else {
                        format!("{x:>5.0}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:>4} {:>18} {:>26} {:>26} {:>6}",
            i,
            format!("{:?}", step.counts),
            fmt(&step.incumbent_latency),
            fmt(&step.deviation_latency),
            step.best_response
        );
    }
    let fractions: Vec<String> = report
        .final_fractions()
        .iter()
        .map(|f| format!("{:.0}%", f * 100.0))
        .collect();
    println!(
        "\n{} after {} iteration(s): final mix {:?} -> [{}]",
        if report.converged {
            "converged to an approximate equilibrium"
        } else {
            "stopped at the iteration cap"
        },
        report.steps.len(),
        report.final_counts,
        fractions.join(", ")
    );
    println!(
        "reading: a lone deviator can usually still cut its own latency by\n\
         bursting harder, so the dynamics drift toward aggressive mixes — a\n\
         tragedy of the commons: compare the equilibrium community's incumbent\n\
         latencies with the all-single row of the sweep above. Individually\n\
         rational multiple submission is collectively self-defeating, exactly\n\
         the administrators' complaint the paper cites (§8)."
    );
}
