//! Quickstart: from a latency trace to tuned submission strategies.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's pipeline end to end on one synthetic EGEE week:
//! build the defective latency model, then compare the three client-side
//! strategies — single resubmission (§4), multiple submission (§5) and
//! delayed resubmission (§6) — on expectation, spread and grid cost.

use gridstrat::prelude::*;

fn main() {
    // 1. A week of probe measurements (synthetic stand-in for the paper's
    //    EGEE biomed traces; see DESIGN.md for the calibration).
    let trace = WeekId::W2006Ix.generate(0xE6EE);
    println!(
        "trace `{}`: {} probes, outlier ratio {:.1}%, body mean {:.0}s ± {:.0}s",
        trace.name,
        trace.len(),
        100.0 * trace.outlier_ratio(),
        trace.body_mean(),
        trace.body_std(),
    );

    // 2. The defective latency model F̃(t) = (1-ρ)F_R(t).
    let model = EmpiricalModel::from_trace(&trace).expect("trace is non-degenerate");

    // 3. Single resubmission: optimal timeout t∞ (eqs. 1–2).
    let single = SingleResubmission::optimize(&model);
    println!(
        "\nsingle resubmission : t∞* = {:>5.0}s  E_J = {:>4.0}s  σ_J = {:>4.0}s",
        single.timeout, single.expectation, single.std_dev
    );

    // 4. Multiple submission: burst of b copies (eqs. 3–4).
    for b in [2u32, 5] {
        let multi = MultipleSubmission::optimize(&model, b);
        println!(
            "multiple (b = {b})    : t∞* = {:>5.0}s  E_J = {:>4.0}s  σ_J = {:>4.0}s  ({:+.0}% vs single)",
            multi.timeout,
            multi.expectation,
            multi.std_dev,
            100.0 * (multi.expectation / single.expectation - 1.0),
        );
    }

    // 5. Delayed resubmission: submit a copy at t0, cancel the original at
    //    t∞ (eq. 5) — low latency *and* low grid load.
    let delayed = DelayedResubmission::optimize(&model);
    println!(
        "delayed             : t0* = {:>5.0}s  t∞* = {:>4.0}s  E_J = {:>4.0}s  N_// = {:.2}",
        delayed.t0, delayed.t_inf, delayed.expectation, delayed.n_parallel
    );

    // 6. The ∆cost criterion (eq. 6): is the grid less loaded than under
    //    single resubmission while users are faster?
    let best = optimize_delayed_delta_cost(&model);
    if let StrategyParams::Delayed { t0, t_inf } = best.params {
        println!(
            "\n∆cost optimum       : (t0, t∞) = ({t0:.0}s, {t_inf:.0}s)  E_J = {:.0}s  ∆cost = {:.3}",
            best.expectation, best.delta_cost
        );
        if best.delta_cost < 1.0 {
            println!(
                "→ the delayed strategy loads the grid {:.1}% LESS than plain single \
                 resubmission while finishing {:.1}% faster.",
                100.0 * (1.0 - best.delta_cost),
                100.0 * (1.0 - best.expectation / single.expectation),
            );
        }
    }

    // 7. Trust, but verify: execute all three tuned strategies against the
    //    discrete-event grid in one batched sweep and compare realised
    //    latency against the closed forms.
    let sweep = ScenarioSweep::over_strategies(
        vec![
            SingleResubmission::new(single.timeout).params(),
            MultipleSubmission::optimized(&model, 2).params(),
            DelayedResubmission::new(delayed.t0, delayed.t_inf).params(),
        ],
        WeekId::W2006Ix,
        MonteCarloConfig {
            trials: 2_000,
            seed: 0xE6EE,
        },
    )
    .expect("valid validation sweep");
    println!(
        "\nMonte-Carlo validation ({} trials per strategy):",
        sweep.config.trials
    );
    for cell in sweep.run() {
        let z = (cell.estimate.mean_j - cell.analytic_e_j).abs() / cell.estimate.stderr_j;
        println!(
            "  {:<9}: analytic E_J = {:>4.0}s, simulated {:>4.0}s ± {:.0}s  (z = {z:.1})",
            cell.strategy.name(),
            cell.analytic_e_j,
            cell.estimate.mean_j,
            cell.estimate.stderr_j,
        );
    }
}
