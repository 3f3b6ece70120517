//! Property-based tests for the numerics substrate: the invariants every
//! downstream strategy computation silently relies on.
//!
//! The crates.io `proptest` harness is unavailable offline, so these use a
//! seeded hand-rolled generator: every `#[test]` draws `CASES` random
//! inputs from a fixed stream, making failures exactly reproducible (the
//! failing case index is part of the assertion message).

use gridstrat_stats::dist::{normal_cdf, Distribution};
use gridstrat_stats::optimize::{
    golden_section, grid_min_1d, grid_min_2d, grid_min_2d_rows, GridSpec, Min2d,
};
use gridstrat_stats::rng::derived_rng;
use gridstrat_stats::{Ecdf, Exponential, LogNormal, Pareto, StepFn, Summary, Weibull};
use rand::rngs::StdRng;
use rand::Rng;

const CASES: usize = 128;

fn sorted_breaks(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(1..12usize);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(0.001..1000.0f64)).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.dedup();
    v
}

fn stepfn(rng: &mut StdRng) -> StepFn {
    let breaks = sorted_breaks(rng);
    let values: Vec<f64> = (0..breaks.len() + 1)
        .map(|_| rng.gen_range(-5.0..5.0f64))
        .collect();
    StepFn::new(breaks, values).unwrap()
}

fn samples(rng: &mut StdRng, lo: f64, hi: f64, min_n: usize, max_n: usize) -> Vec<f64> {
    let n = rng.gen_range(min_n..max_n);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn stepfn_integral_is_additive() {
    let mut rng = derived_rng(0x57A7, 1);
    for case in 0..CASES {
        let f = stepfn(&mut rng);
        let a = rng.gen_range(-10.0..1100.0f64);
        let b = rng.gen_range(-10.0..1100.0f64);
        let c = rng.gen_range(-10.0..1100.0f64);
        let whole = f.integral(a, c);
        let split = f.integral(a, b) + f.integral(b, c);
        assert!(
            (whole - split).abs() < 1e-8 * (1.0 + whole.abs()),
            "case {case}: {whole} vs {split}"
        );
    }
}

#[test]
fn stepfn_shift_preserves_integrals() {
    let mut rng = derived_rng(0x57A7, 2);
    for case in 0..CASES {
        let f = stepfn(&mut rng);
        let s = rng.gen_range(-200.0..200.0f64);
        let g = f.shift(s);
        let i_f = f.integral(0.0, 1000.0);
        let i_g = g.integral(s, 1000.0 + s);
        assert!(
            (i_f - i_g).abs() < 1e-7 * (1.0 + i_f.abs()),
            "case {case}: {i_f} vs {i_g}"
        );
    }
}

#[test]
fn stepfn_product_pointwise() {
    let mut rng = derived_rng(0x57A7, 3);
    for case in 0..CASES {
        let f = stepfn(&mut rng);
        let g = stepfn(&mut rng);
        let p = f.product(&g);
        for _ in 0..8 {
            let x = rng.gen_range(-10.0..1100.0f64);
            assert!(
                (p.eval(x) - f.eval(x) * g.eval(x)).abs() < 1e-9,
                "case {case} at x = {x}"
            );
        }
    }
}

#[test]
fn stepfn_compact_is_semantically_identity() {
    let mut rng = derived_rng(0x57A7, 4);
    for case in 0..CASES {
        let f = stepfn(&mut rng);
        let c = f.compact();
        assert!(c.len() <= f.len(), "case {case}");
        for _ in 0..8 {
            let x = rng.gen_range(-10.0..1100.0f64);
            assert_eq!(c.eval(x), f.eval(x), "case {case} at x = {x}");
        }
    }
}

#[test]
fn ecdf_is_monotone_and_bounded() {
    let mut rng = derived_rng(0x57A7, 5);
    for case in 0..CASES {
        let xs = samples(&mut rng, 0.1, 20_000.0, 2, 60);
        if !xs.iter().any(|&x| x < 10_000.0) {
            continue;
        }
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let mut ts: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..25_000.0f64)).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for t in ts {
            let v = e.value(t);
            assert!((0.0..=1.0).contains(&v), "case {case}");
            assert!(v + 1e-12 >= prev, "case {case}");
            assert!(v <= 1.0 - e.outlier_ratio() + 1e-12, "case {case}");
            prev = v;
        }
    }
}

#[test]
fn ecdf_survival_integral_matches_stepfn() {
    let mut rng = derived_rng(0x57A7, 6);
    for case in 0..CASES {
        let xs = samples(&mut rng, 0.1, 20_000.0, 2, 40);
        if !xs.iter().any(|&x| x < 10_000.0) {
            continue;
        }
        let t = rng.gen_range(0.0..12_000.0f64);
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let surv = e.to_stepfn().map(|v| 1.0 - v);
        assert!(
            (e.survival_integral(t) - surv.integral(0.0, t)).abs() < 1e-6,
            "case {case}"
        );
        assert!(
            (e.moment_survival_integral(t) - surv.moment_integral(0.0, t)).abs() < 1e-3,
            "case {case}"
        );
    }
}

#[test]
fn ecdf_product_integrals_match_stepfn() {
    let mut rng = derived_rng(0x57A7, 7);
    for case in 0..CASES {
        let xs = samples(&mut rng, 0.1, 9_000.0, 2, 30);
        let shift = rng.gen_range(0.0..2_000.0f64);
        let l = rng.gen_range(0.0..3_000.0f64);
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let surv = e.to_stepfn().map(|v| 1.0 - v);
        let prod = surv.shift(-shift).product(&surv);
        let (c, d) = e.survival_product_integrals(shift, l);
        assert!((c - prod.integral(0.0, l)).abs() < 1e-6, "case {case}");
        assert!(
            (d - prod.moment_integral(0.0, l)).abs() < 1e-2,
            "case {case}"
        );
    }
}

#[test]
fn distributions_cdf_quantile_inverse() {
    let mut rng = derived_rng(0x57A7, 8);
    for case in 0..CASES {
        let mu = rng.gen_range(3.0..7.0f64);
        let sigma = rng.gen_range(0.2..2.0f64);
        let p = rng.gen_range(0.001..0.999f64);
        let d = LogNormal::new(mu, sigma).unwrap();
        let q = d.quantile(p);
        assert!((d.cdf(q) - p).abs() < 1e-6, "case {case}: p = {p}");
    }
}

#[test]
fn weibull_cdf_monotone() {
    let mut rng = derived_rng(0x57A7, 9);
    for case in 0..CASES {
        let d = Weibull::new(rng.gen_range(0.3..3.0f64), rng.gen_range(10.0..2_000.0f64)).unwrap();
        let a = rng.gen_range(0.0..5_000.0f64);
        let b = rng.gen_range(0.0..5_000.0f64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&d.cdf(hi)), "case {case}");
    }
}

#[test]
fn pareto_support_and_tail() {
    let mut rng = derived_rng(0x57A7, 10);
    for case in 0..CASES {
        let scale = rng.gen_range(1.0..1_000.0f64);
        let alpha = rng.gen_range(0.5..4.0f64);
        let t = rng.gen_range(0.0..1e6f64);
        let d = Pareto::new(scale, alpha).unwrap();
        if t < scale {
            assert_eq!(d.cdf(t), 0.0, "case {case}");
        } else {
            let v = d.cdf(t);
            assert!((0.0..=1.0).contains(&v), "case {case}");
        }
    }
}

#[test]
fn exponential_memorylessness() {
    // P(X > s+t) = P(X > s)·P(X > t)
    let mut rng = derived_rng(0x57A7, 11);
    for case in 0..CASES {
        let rate = rng.gen_range(0.0005..0.1f64);
        let s = rng.gen_range(1.0..500.0f64);
        let t = rng.gen_range(1.0..500.0f64);
        let d = Exponential::new(rate).unwrap();
        let lhs = 1.0 - d.cdf(s + t);
        let rhs = (1.0 - d.cdf(s)) * (1.0 - d.cdf(t));
        assert!((lhs - rhs).abs() < 1e-10, "case {case}");
    }
}

#[test]
fn normal_cdf_is_monotone_bounded() {
    let mut rng = derived_rng(0x57A7, 12);
    for case in 0..CASES {
        let a = rng.gen_range(-8.0..8.0f64);
        let b = rng.gen_range(-8.0..8.0f64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&normal_cdf(hi)), "case {case}");
    }
}

#[test]
fn golden_section_finds_quadratic_minimum() {
    let mut rng = derived_rng(0x57A7, 13);
    for case in 0..CASES {
        let center = rng.gen_range(1.0..99.0f64);
        let r = golden_section(|x| (x - center) * (x - center), 0.0, 100.0, 1e-9);
        assert!((r.x - center).abs() < 1e-5, "case {case}");
    }
}

#[test]
fn grid_min_never_beaten_by_grid_points() {
    let mut rng = derived_rng(0x57A7, 14);
    for case in 0..CASES {
        let offset = rng.gen_range(0.0..10.0f64);
        let f = |x: f64| ((x - offset) * 0.7).sin() + 0.01 * x;
        let grid = GridSpec::new(0.0, 20.0, 200);
        let m = grid_min_1d(f, grid);
        for x in grid.points() {
            assert!(f(x) >= m.value - 1e-12, "case {case} at x = {x}");
        }
    }
}

#[test]
fn grid_min_2d_respects_feasibility() {
    let mut rng = derived_rng(0x57A7, 15);
    for case in 0..CASES {
        let cx = rng.gen_range(1.0..9.0f64);
        let cy = rng.gen_range(1.0..9.0f64);
        let f = move |x: f64, y: f64| (x - cx).powi(2) + (y - cy).powi(2);
        let feas = |x: f64, y: f64| y >= x; // upper triangle
        let m = grid_min_2d(f, (0.0, 10.0), (0.0, 10.0), 24, 6, feas).unwrap();
        assert!(m.y >= m.x, "case {case}");
        // optimal value is the projection onto the feasible set
        let want = if cy >= cx {
            0.0
        } else {
            (cx - cy) * (cx - cy) / 2.0
        };
        assert!(
            m.value <= want + 0.4,
            "case {case}: value {} want {want}",
            m.value
        );
    }
}

#[test]
fn summary_merge_associative() {
    let mut rng = derived_rng(0x57A7, 16);
    for case in 0..CASES {
        let xs = samples(&mut rng, -1e4, 1e4, 1, 50);
        let split = rng.gen_range(0..49usize);
        let k = split.min(xs.len() - 1).max(1).min(xs.len());
        let mut a = Summary::from_slice(&xs[..k]);
        let b = Summary::from_slice(&xs[k..]);
        a.merge(&b);
        let full = Summary::from_slice(&xs);
        assert_eq!(a.count(), full.count(), "case {case}");
        assert!(
            (a.mean() - full.mean()).abs() < 1e-7 * (1.0 + full.mean().abs()),
            "case {case}"
        );
        assert!(
            (a.variance() - full.variance()).abs() < 1e-6 * (1.0 + full.variance().abs()),
            "case {case}"
        );
    }
}

/// The per-query two-pointer merge as it stood before the row sweep, over
/// the ECDF's public body: the oracle the sweep must match bit for bit.
fn product_integrals_one_merge(e: &Ecdf, b: u32, shift: f64, l: f64) -> (f64, f64) {
    if l <= 0.0 {
        return (0.0, 0.0);
    }
    let xs = e.body();
    let n = e.n_total() as f64;
    let mut i1 = xs.partition_point(|&x| x <= 0.0);
    let mut i2 = xs.partition_point(|&x| x <= shift);
    let (mut c, mut d, mut lo) = (0.0, 0.0, 0.0_f64);
    loop {
        let next1 = xs.get(i1).copied().unwrap_or(f64::INFINITY);
        let next2 = xs.get(i2).map_or(f64::INFINITY, |&x| x - shift);
        let hi = next1.min(next2).min(l);
        if hi > lo {
            let p = (1.0 - i1 as f64 / n) * (1.0 - i2 as f64 / n);
            let v = if b == 1 { p } else { p.powi(b as i32) };
            c += v * (hi - lo);
            d += v * 0.5 * (hi * hi - lo * lo);
            lo = hi;
        }
        if hi >= l {
            return (c, d);
        }
        if next1 <= hi {
            i1 += 1;
        }
        if next2 <= hi {
            i2 += 1;
        }
    }
}

#[test]
fn ecdf_product_row_sweep_is_bit_identical_to_one_query() {
    let mut rng = derived_rng(0x57A7, 17);
    for case in 0..CASES {
        // a body with exact duplicates, plus censored outliers
        let mut xs = samples(&mut rng, 0.5, 9_000.0, 1, 40);
        for _ in 0..rng.gen_range(0..8usize) {
            let dup = xs[rng.gen_range(0..xs.len())];
            xs.push(dup);
        }
        xs.extend(samples(&mut rng, 10_000.0, 30_000.0, 0, 6));
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let body = e.body();
        let shift = match rng.gen_range(0..3u32) {
            0 => 0.0,
            1 => body[rng.gen_range(0..body.len())],
            _ => rng.gen_range(0.0..6_000.0f64),
        };
        let last = body[body.len() - 1];
        // window lengths: non-positive, random, beyond the last sample,
        // and landing exactly on breakpoints of either stream
        let mut ls = vec![0.0, -rng.gen_range(0.0..100.0f64), last + 1.0, 2.0 * last];
        for _ in 0..rng.gen_range(0..12usize) {
            ls.push(rng.gen_range(0.0..1.2 * last));
            let x = body[rng.gen_range(0..body.len())];
            ls.push(x);
            ls.push(x - shift);
        }
        ls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for b in [1u32, 2, 3] {
            let mut row = vec![(f64::NAN, f64::NAN); ls.len()];
            e.powered_survival_product_integrals_row(b, shift, &ls, &mut row);
            for (&l, &(c, d)) in ls.iter().zip(&row) {
                let one = e.powered_survival_product_integrals(b, shift, l);
                let oracle = product_integrals_one_merge(&e, b, shift, l);
                for (what, want) in [("one-query", one), ("one-merge oracle", oracle)] {
                    assert_eq!(
                        (c.to_bits(), d.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "case {case}, b = {b}, shift = {shift}, L = {l}: row vs {what}"
                    );
                }
            }
        }
    }
}

/// `∫₀ᵗ (1-F̃)ᵇ` as it stood before the step tables, dividing out every
/// level: the oracle the table lookups must match bit for bit.
fn powered_integral_by_division(e: &Ecdf, b: u32, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let xs = e.body();
    let n = e.n_total() as f64;
    let level = |j: usize| (1.0 - j as f64 / n).powi(b as i32);
    let j = xs.partition_point(|&x| x <= t);
    let (mut acc, mut lo) = (0.0, 0.0);
    for (i, &x) in xs[..j].iter().enumerate() {
        acc += level(i) * (x - lo);
        lo = x;
    }
    let s = if b == 1 { 1.0 - j as f64 / n } else { level(j) };
    acc + s * (t - lo)
}

#[test]
fn ecdf_row_cursors_are_bit_identical_to_point_queries() {
    let mut rng = derived_rng(0x57A7, 19);
    for case in 0..CASES {
        let mut xs = samples(&mut rng, 0.5, 9_000.0, 1, 200);
        for _ in 0..rng.gen_range(0..8usize) {
            let dup = xs[rng.gen_range(0..xs.len())];
            xs.push(dup);
        }
        xs.extend(samples(&mut rng, 10_000.0, 30_000.0, 0, 6));
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let body = e.body();
        let last = body[body.len() - 1];
        let shift = match rng.gen_range(0..3u32) {
            0 => 0.0,
            1 => body[rng.gen_range(0..body.len())],
            _ => rng.gen_range(0.0..6_000.0f64),
        };
        // points with F̃ = 0 below the first sample, exactly on
        // (duplicated) samples and on shifted samples, and beyond the last
        // one; a lone point takes the binary-search path
        let mut ts = vec![shift, 0.5 * body[0], last + 5.0, shift + last + 1.0];
        for _ in 0..rng.gen_range(0..16usize) {
            ts.push(rng.gen_range(0.0..10_000.0f64));
            let x = body[rng.gen_range(0..body.len())];
            ts.push(x);
            ts.push(x + shift);
        }
        ts.retain(|&t| t >= shift);
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let start = rng.gen_range(0..ts.len());
        let ts = &ts[start..];
        for b in [1u32, 2, 3] {
            let mut cdf = vec![f64::NAN; ts.len()];
            let mut a = vec![f64::NAN; ts.len()];
            let mut c = vec![f64::NAN; ts.len()];
            e.first_moment_row(b, shift, ts, &mut cdf, &mut a, &mut c);
            for (k, &t) in ts.iter().enumerate() {
                let l = t - shift;
                let at = format!("case {case}, b = {b}, shift = {shift}, t = {t}");
                assert_eq!(cdf[k].to_bits(), e.value(t).to_bits(), "{at}: F̃");
                let want_a = e.powered_survival_integrals(b, l).0;
                assert_eq!(a[k].to_bits(), want_a.to_bits(), "{at}: A_b");
                let by_division = powered_integral_by_division(&e, b, l);
                assert_eq!(want_a.to_bits(), by_division.to_bits(), "{at}: A_b table");
                if b == 1 {
                    let plain = e.survival_integral(l);
                    assert_eq!(want_a.to_bits(), plain.to_bits(), "{at}: A");
                }
                let want_c = e.powered_survival_product_integrals(b, shift, l).0;
                let oracle = product_integrals_one_merge(&e, b, shift, l).0;
                assert_eq!(c[k].to_bits(), want_c.to_bits(), "{at}: C_b");
                assert_eq!(want_c.to_bits(), oracle.to_bits(), "{at}: C_b merge");
            }
        }
    }
}

#[test]
fn grid_min_2d_lets_any_number_displace_a_nan() {
    let mut rng = derived_rng(0x57A7, 20);
    for case in 0..CASES {
        let (cx, cy) = (rng.gen_range(0.0..10.0f64), rng.gen_range(0.0..10.0f64));
        let p_nan = rng.gen_range(0.0..0.9f64);
        let salt = rng.gen::<u64>();
        // NaN on a pseudo-random share of the plane, a bowl elsewhere
        let f = move |x: f64, y: f64| {
            let h = (x.to_bits() ^ y.to_bits().rotate_left(17) ^ salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if ((h >> 11) as f64) < p_nan * (1u64 << 53) as f64 {
                f64::NAN
            } else {
                (x - cx).powi(2) + (y - cy).powi(2)
            }
        };
        let res = rng.gen_range(2..20usize);
        let m = grid_min_2d(f, (0.0, 10.0), (0.0, 10.0), res, 4, |_, _| true).unwrap();
        // the first round's grid alone holds a number whenever any of its
        // points is one
        let h = 10.0 / res as f64;
        let any_number =
            (0..=res).any(|i| (0..=res).any(|j| !f(i as f64 * h, j as f64 * h).is_nan()));
        assert_eq!(!m.value.is_nan(), any_number, "case {case}");
        if any_number {
            for i in 0..=res {
                for j in 0..=res {
                    let v = f(i as f64 * h, j as f64 * h);
                    assert!(
                        v.is_nan() || m.value <= v,
                        "case {case}: {v} beats {}",
                        m.value
                    );
                }
            }
        }
    }
}

/// The 2-D multi-resolution scan point by point, as it stood before the
/// row-wise search: the oracle `grid_min_2d_rows` must match bit for bit.
fn grid_min_2d_pointwise(
    f: impl Fn(f64, f64) -> f64,
    (mut x_lo, mut x_hi): (f64, f64),
    (mut y_lo, mut y_hi): (f64, f64),
    resolution: usize,
    zoom_rounds: usize,
    feasible: &dyn Fn(f64, f64) -> bool,
) -> Option<Min2d> {
    let mut best: Option<Min2d> = None;
    for _ in 0..=zoom_rounds {
        let dx = (x_hi - x_lo) / resolution as f64;
        let dy = (y_hi - y_lo) / resolution as f64;
        let mut improved: Option<Min2d> = None;
        for i in 0..=resolution {
            let x = x_lo + i as f64 * dx;
            for j in 0..=resolution {
                let y = y_lo + j as f64 * dy;
                if !feasible(x, y) {
                    continue;
                }
                let v = f(x, y);
                if improved.is_none_or(|b| v < b.value) {
                    improved = Some(Min2d { x, y, value: v });
                }
            }
        }
        let Some(round_best) = improved else {
            break;
        };
        if best.is_none_or(|b| round_best.value < b.value) {
            best = Some(round_best);
        }
        let b = best.unwrap();
        x_lo = b.x - dx;
        x_hi = b.x + dx;
        y_lo = b.y - dy;
        y_hi = b.y + dy;
        if dx <= f64::EPSILON && dy <= f64::EPSILON {
            break;
        }
    }
    best
}

#[test]
fn grid_min_2d_rows_is_bit_identical_to_pointwise_scan() {
    let mut rng = derived_rng(0x57A7, 18);
    for case in 0..CASES {
        let (cx, cy) = (rng.gen_range(0.0..10.0f64), rng.gen_range(0.0..10.0f64));
        let (a, b) = (rng.gen_range(0.2..3.0f64), rng.gen_range(-2.0..2.0f64));
        // a coarse quantum makes ties common, exercising the tie-break
        let quantum = [0.0, 0.05, 0.5, 2.0][rng.gen_range(0..4usize)];
        let wall = rng.gen_range(0.0..10.0f64);
        let f = move |x: f64, y: f64| {
            if x + y < wall {
                return f64::INFINITY;
            }
            let v = a * (x - cx).powi(2) + (y - cy).powi(2) + b * (3.0 * x).sin() * y.cos();
            if quantum > 0.0 {
                (v / quantum).round() * quantum
            } else {
                v
            }
        };
        let (k, c) = (rng.gen_range(0.5..2.0f64), rng.gen_range(-3.0..3.0f64));
        let kind = rng.gen_range(0..4u32);
        let feas = move |x: f64, y: f64| match kind {
            0 => true,
            1 => y >= k * x + c,
            2 => x <= y && y <= 2.0 * x, // the delayed-resubmission wedge
            _ => (x - 5.0).powi(2) + (y - 5.0).powi(2) <= k * 12.0,
        };
        let res = rng.gen_range(2..30usize);
        let rounds = rng.gen_range(0..8usize);
        let want = grid_min_2d_pointwise(f, (0.0, 10.0), (0.0, 10.0), res, rounds, &feas);
        let rows = grid_min_2d_rows(
            |x, ys, values| {
                // fill back to front: rows must not rely on call order
                for (v, &y) in values.iter_mut().zip(ys).rev() {
                    *v = f(x, y);
                }
            },
            (0.0, 10.0),
            (0.0, 10.0),
            res,
            rounds,
            feas,
        );
        let wrapper = grid_min_2d(f, (0.0, 10.0), (0.0, 10.0), res, rounds, feas);
        let bits = |m: Option<Min2d>| m.map(|m| [m.x, m.y, m.value].map(f64::to_bits));
        assert_eq!(bits(rows), bits(want), "case {case}: rows vs pointwise");
        assert_eq!(
            bits(wrapper),
            bits(want),
            "case {case}: wrapper vs pointwise"
        );
    }
}
