//! Planner correctness: planned transforms must agree with a naive
//! `O(N²)` DFT — a reference that shares no code with the planner — across
//! every size the pipeline uses, and the process-wide shared plans must be
//! the same plan on every thread and compute the same bits as a freshly
//! built one.

use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::Complex64;
use std::f64::consts::PI;

const SIZES: [usize; 8] = [1, 2, 4, 8, 64, 512, 2048, 4096];

fn random_real(rng: &mut DetRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn random_complex(rng: &mut DetRng, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect()
}

/// The textbook DFT `X[k] = Σ x[i] e^{-2πi k i / n}` (the inverse when
/// `inverse`, normalized by `1/n`). The phase index is reduced mod `n`
/// before the angle is formed, so the reference stays accurate at 4096
/// points.
fn naive_dft(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    let sign = if inverse { 2.0 } else { -2.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (i, &xi) in x.iter().enumerate() {
                acc += xi * Complex64::cis(sign * PI * ((k * i) % n) as f64 / n as f64);
            }
            if inverse {
                acc.scale(1.0 / n as f64)
            } else {
                acc
            }
        })
        .collect()
}

fn promote(x: &[f64]) -> Vec<Complex64> {
    x.iter().map(|&v| Complex64::from_real(v)).collect()
}

#[test]
fn planned_forward_matches_naive_dft() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(s as u64);
        let x = random_complex(&mut rng, n);
        let reference = naive_dft(&x, false);
        let mut buf = x.clone();
        FftPlan::shared(n).unwrap().forward(&mut buf).unwrap();
        for (k, (a, b)) in buf.iter().zip(&reference).enumerate() {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n = {n}, bin {k}");
        }
    }
}

#[test]
fn planned_inverse_matches_naive_inverse_dft() {
    for &n in &[8usize, 256, 1024] {
        let mut rng = DetRng::seed_from_u64(50 + n as u64);
        let x = random_complex(&mut rng, n);
        let reference = naive_dft(&x, true);
        let mut buf = x.clone();
        FftPlan::shared(n).unwrap().inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-12 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn planned_round_trip_recovers_signal() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(100 + s as u64);
        let x = random_complex(&mut rng, n);
        let plan = FftPlan::shared(n).unwrap();
        let mut buf = x.clone();
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_matches_naive_dft() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(200 + s as u64);
        let x = random_real(&mut rng, n);
        let reference = naive_dft(&promote(&x), false);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        assert_eq!(spec.len(), reference.len(), "n = {n}");
        for (a, b) in spec.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_round_trip_recovers_signal() {
    for (s, &n) in SIZES.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(300 + s as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut spec, mut back) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        plan.inverse_into(&spec, &mut work, &mut back).unwrap();
        assert_eq!(back.len(), n);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_inverse_recovers_signal_from_naive_spectrum() {
    // The inverse of a Hermitian spectrum taken by the naive DFT must be
    // the real signal it came from.
    for &n in &[8usize, 256, 1024] {
        let mut rng = DetRng::seed_from_u64(n as u64);
        let x = random_real(&mut rng, n);
        let spec = naive_dft(&promote(&x), false);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut back) = (Vec::new(), Vec::new());
        plan.inverse_into(&spec, &mut work, &mut back).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn real_plan_zero_pads_short_input() {
    let plan = RealFftPlan::shared(16).unwrap();
    let (mut work, mut spec) = (Vec::new(), Vec::new());
    plan.forward_into(&[1.0, 2.0, 3.0], &mut work, &mut spec)
        .unwrap();
    let mut padded = vec![0.0; 16];
    padded[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
    let reference = naive_dft(&promote(&padded), false);
    for (a, b) in spec.iter().zip(&reference) {
        assert!((*a - *b).norm() < 1e-12);
    }
}

#[test]
fn forward_from_real_matches_naive_dft() {
    for &n in &[1usize, 16, 512] {
        let mut rng = DetRng::seed_from_u64(350 + n as u64);
        let x = random_real(&mut rng, n / 2 + 1);
        let mut padded = x.clone();
        padded.resize(n, 0.0);
        let reference = naive_dft(&promote(&padded), false);
        let mut spec = Vec::new();
        FftPlan::shared(n).unwrap().forward_from_real(&x, &mut spec);
        assert_eq!(spec.len(), n);
        for (a, b) in spec.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n = {n}");
        }
    }
}

#[test]
fn planned_transform_preserves_parseval_energy() {
    for &n in &[128usize, 2048] {
        let mut rng = DetRng::seed_from_u64(400 + n as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0),
            "n = {n}: {time_energy} vs {freq_energy}"
        );
    }
}

#[test]
fn real_plan_spectrum_is_hermitian() {
    for &n in &[64usize, 4096] {
        let mut rng = DetRng::seed_from_u64(500 + n as u64);
        let x = random_real(&mut rng, n);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut spec) = (Vec::new(), Vec::new());
        plan.forward_into(&x, &mut work, &mut spec).unwrap();
        assert!(spec[0].im.abs() < 1e-12, "DC bin must be real");
        assert!(spec[n / 2].im.abs() < 1e-12, "Nyquist bin must be real");
        for k in 1..n / 2 {
            let d = (spec[k] - spec[n - k].conj()).norm();
            assert!(d < 1e-12 * n as f64, "n = {n}, bin {k}");
        }
    }
}

#[test]
fn warm_scratch_is_bit_identical_to_fresh_buffers() {
    // The batch pipeline relies on this: a warm scratch must produce the
    // same bits as fresh buffers.
    let mut warm = DspScratch::new();
    let mut rng = DetRng::seed_from_u64(600);
    for round in 0..3 {
        for &n in &[256usize, 1024] {
            let x = random_real(&mut rng, n);
            let plan = RealFftPlan::shared(n).unwrap();
            let mut work = warm.take_complex();
            let mut spec = warm.take_complex();
            plan.forward_into(&x, &mut work, &mut spec).unwrap();

            let (mut cw, mut cs) = (Vec::new(), Vec::new());
            plan.forward_into(&x, &mut cw, &mut cs).unwrap();
            assert_eq!(spec, cs, "round {round}, n = {n}");

            warm.put_complex(spec);
            warm.put_complex(work);
        }
    }
}

/// What one thread saw for one size: the shared plans it was handed and
/// the spectra they computed.
struct Lookup {
    plan: &'static FftPlan,
    rplan: &'static RealFftPlan,
    complex: Vec<Complex64>,
    real: Vec<Complex64>,
}

#[test]
fn shared_plans_are_one_per_size_across_threads_and_match_fresh_plans() {
    const THREADS: usize = 4;
    let sizes = [2usize, 32, 1024, 8192];
    let mut rng = DetRng::seed_from_u64(700);
    let inputs: Vec<Vec<f64>> = sizes.iter().map(|&n| random_real(&mut rng, n)).collect();

    // Each thread looks up every shared plan (racing on first use) and runs
    // both transforms on the same inputs.
    let per_thread: Vec<Vec<Lookup>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    sizes
                        .iter()
                        .zip(&inputs)
                        .map(|(&n, x)| {
                            let plan = FftPlan::shared(n).unwrap();
                            let rplan = RealFftPlan::shared(n).unwrap();
                            let mut complex = promote(x);
                            plan.forward(&mut complex).unwrap();
                            let (mut work, mut real) = (Vec::new(), Vec::new());
                            rplan.forward_into(x, &mut work, &mut real).unwrap();
                            Lookup {
                                plan,
                                rplan,
                                complex,
                                real,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // `FftPlan::new` shares no state with the table. `RealFftPlan::new`
    // runs on the shared half-size complex plan, so its agreement is a
    // consistency check only; the real plan's independent reference is the
    // naive DFT above.
    for (i, (&n, x)) in sizes.iter().zip(&inputs).enumerate() {
        let mut fresh = promote(x);
        FftPlan::new(n).unwrap().forward(&mut fresh).unwrap();
        let (mut work, mut fresh_real) = (Vec::new(), Vec::new());
        RealFftPlan::new(n)
            .unwrap()
            .forward_into(x, &mut work, &mut fresh_real)
            .unwrap();
        let first = &per_thread[0][i];
        for (t, seen) in per_thread.iter().map(|lookups| &lookups[i]).enumerate() {
            assert!(
                std::ptr::eq(seen.plan, first.plan),
                "thread {t}, n = {n}: complex plan differs"
            );
            assert!(
                std::ptr::eq(seen.rplan, first.rplan),
                "thread {t}, n = {n}: real plan differs"
            );
            assert_eq!(
                seen.complex, fresh,
                "thread {t}, n = {n}: complex bits differ"
            );
            assert_eq!(
                seen.real, fresh_real,
                "thread {t}, n = {n}: real bits differ"
            );
        }
    }
}
