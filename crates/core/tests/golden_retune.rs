//! Golden retune vectors: `retune_params` pinned bit for bit on the small
//! censored windows the fleet's adaptive agents actually retune on.
//!
//! `golden_tuning.rs` pins the optimisers on 900-probe weeks. Fleet
//! retunes run the same searches on snapshots of a handful to a hundred
//! observations, where leading `F̃ = 0` grid points, `t∞` beyond the last
//! sample and outlier-heavy windows are the common case rather than the
//! exception. Every family goes through both policies: the backoff policy
//! (which grows the timeouts instead when the decayed censored fraction is
//! high) and the empirical-snapshot retune (`ScaledPrior` with no prior).

use gridstrat_core::adaptive::{retune_params, AdaptiveConfig, RetunePolicy};
use gridstrat_core::cost::StrategyParams;
use gridstrat_stats::rng::derived_rng;
use gridstrat_stats::{Distribution, LogNormal, StreamingEcdf};

const WINDOWS: [usize; 4] = [5, 12, 40, 100];

const FAMILIES: [StrategyParams; 4] = [
    StrategyParams::Delayed {
        t0: 300.0,
        t_inf: 450.0,
    },
    StrategyParams::DelayedMultiple {
        b: 2,
        t0: 300.0,
        t_inf: 450.0,
    },
    StrategyParams::Single { t_inf: 500.0 },
    StrategyParams::Multiple { b: 3, t_inf: 500.0 },
];

fn policies() -> [RetunePolicy; 2] {
    [
        RetunePolicy::EmpiricalBackoff {
            max_censored_fraction: 0.2,
            growth: 1.5,
        },
        RetunePolicy::ScaledPrior,
    ]
}

/// A full window of `n` observations: lognormal latencies, waits past
/// 700 s censored there, and every seventh observation an exact repeat of
/// an earlier latency.
fn window(n: usize) -> StreamingEcdf {
    let mut est = StreamingEcdf::new(n, 0.9, 10_000.0).expect("valid estimator");
    let law = LogNormal::from_mean_std(400.0, 600.0).expect("valid law");
    let mut rng = derived_rng(11, n as u64);
    let mut last = 250.0;
    for k in 0..n {
        let x = if k % 7 == 6 {
            last
        } else {
            law.sample(&mut rng)
        };
        if x > 700.0 {
            est.observe_censored(700.0);
        } else {
            est.observe_started(x);
            last = x;
        }
    }
    est
}

/// `[t0, t∞]` bits of a retuned parameter set (`t0 = 0` for the 1-D
/// families); panics if the retune changed the family or its `b`.
fn bits(before: StrategyParams, after: StrategyParams) -> [u64; 2] {
    match (before, after) {
        (StrategyParams::Single { .. }, StrategyParams::Single { t_inf }) => [0, t_inf.to_bits()],
        (StrategyParams::Multiple { b, .. }, StrategyParams::Multiple { b: b2, t_inf })
            if b == b2 =>
        {
            [0, t_inf.to_bits()]
        }
        (StrategyParams::Delayed { .. }, StrategyParams::Delayed { t0, t_inf }) => {
            [t0.to_bits(), t_inf.to_bits()]
        }
        (
            StrategyParams::DelayedMultiple { b, .. },
            StrategyParams::DelayedMultiple { b: b2, t0, t_inf },
        ) if b == b2 => [t0.to_bits(), t_inf.to_bits()],
        _ => panic!("retune turned {before:?} into {after:?}"),
    }
}

/// Every case in `WINDOWS × policies × FAMILIES` order.
fn retuned() -> Vec<[u64; 2]> {
    let mut out = Vec::new();
    for n in WINDOWS {
        let est = window(n);
        for policy in policies() {
            let config = AdaptiveConfig {
                window: n,
                min_body: 3,
                policy,
                ..AdaptiveConfig::default()
            };
            for family in FAMILIES {
                out.push(bits(family, retune_params(family, &est, &config)));
            }
        }
    }
    out
}

// Recorded with the two-moment delayed row; the first-moment row must
// reproduce them bit for bit. The backoff policy grows the timeouts by 1.5
// on windows 5 and 12, whose decayed censored fraction exceeds 0.2.
const GOLDEN: [[u64; 2]; 32] = [
    // window 5, backoff: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x407c200000000000, 0x4085180000000000],
    [0x407c200000000000, 0x4085180000000000],
    [0x0000000000000000, 0x4087700000000000],
    [0x0000000000000000, 0x4087700000000000],
    // window 5, snapshot retune: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x4044e0e2c51ea935, 0x404ac4de982d9d32],
    [0x4044e0e2c51ea935, 0x40518617650bafac],
    [0x0000000000000000, 0x404949c0588f7a63],
    [0x0000000000000000, 0x404949c0588f7a63],
    // window 12, backoff: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x407c200000000000, 0x4085180000000000],
    [0x407c200000000000, 0x4085180000000000],
    [0x0000000000000000, 0x4087700000000000],
    [0x0000000000000000, 0x4087700000000000],
    // window 12, snapshot retune: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x40655209ae8baecd, 0x4075481389393ddc],
    [0x40655209ae8baecd, 0x40754661b3478f60],
    [0x0000000000000000, 0x407adbefdb3e2584],
    [0x0000000000000000, 0x407adbefdb3e2584],
    // window 40, backoff: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x404bd3adf6987467, 0x405b41487d4fcddd],
    [0x404bd3adf6987467, 0x405b31522fe0c035],
    [0x0000000000000000, 0x405b310f143ecc02],
    [0x0000000000000000, 0x405b310f143ecc02],
    // window 40, snapshot retune: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x404bd3adf6987467, 0x405b41487d4fcddd],
    [0x404bd3adf6987467, 0x405b31522fe0c035],
    [0x0000000000000000, 0x405b310f143ecc02],
    [0x0000000000000000, 0x405b310f143ecc02],
    // window 100, backoff: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x405433ebe6d36b0e, 0x40642d4311d34e19],
    [0x40534dbef1759d06, 0x40634d431235955c],
    [0x0000000000000000, 0x40642ba7f09da25e],
    [0x0000000000000000, 0x40663e5a1dba1e6f],
    // window 100, snapshot retune: Delayed, DelayedMultiple b = 2, Single, Multiple b = 3
    [0x405433ebe6d36b0e, 0x40642d4311d34e19],
    [0x40534dbef1759d06, 0x40634d431235955c],
    [0x0000000000000000, 0x40642ba7f09da25e],
    [0x0000000000000000, 0x40663e5a1dba1e6f],
];

#[test]
fn windows_hold_censored_and_repeated_observations() {
    for n in WINDOWS {
        let snap = window(n).snapshot().expect("window has body samples");
        assert_eq!(snap.n_total(), n);
        assert!(snap.n_body() >= 3 && snap.n_body() < n, "n = {n}");
    }
}

#[test]
fn retune_params_is_pinned() {
    let got = retuned();
    for (k, (got, want)) in got.iter().zip(&GOLDEN).enumerate() {
        let (n, policy, family) = (WINDOWS[k / 8], policies()[k / 4 % 2], FAMILIES[k % 4]);
        assert_eq!(got, want, "window {n}, {policy:?}, {family:?}");
    }
    assert_eq!(got.len(), GOLDEN.len());
}
