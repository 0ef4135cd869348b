//! Butterworth filter design.
//!
//! Classic analog-prototype design digitized with the bilinear transform and
//! realized as a cascade of second-order sections. EarSonar's preprocessing
//! stage uses [`butter_bandpass`] restricted to the 16–20 kHz chirp band
//! (paper §IV-B-1).

use crate::complex::Complex64;
use crate::error::DspError;
use crate::filter::biquad::{Biquad, BiquadCascade};
use std::f64::consts::PI;

/// Relative tolerance below which a pole's imaginary part is treated as zero.
const REAL_POLE_TOL: f64 = 1e-9;

/// Analog Butterworth prototype poles for a given order, normalized to unit
/// cutoff. All poles lie on the unit circle in the left half-plane.
fn prototype_poles(order: usize) -> Vec<Complex64> {
    (0..order)
        .map(|k| {
            let theta = PI * (2.0 * k as f64 + order as f64 + 1.0) / (2.0 * order as f64);
            Complex64::cis(theta)
        })
        .collect()
}

/// Pre-warps a digital cutoff frequency (Hz) to the analog domain for the
/// bilinear transform with sample rate `fs`.
fn prewarp(f_hz: f64, fs: f64) -> f64 {
    2.0 * fs * (PI * f_hz / fs).tan()
}

/// Bilinear transform of an analog pole/zero `s` to the z-domain.
fn bilinear(s: Complex64, fs: f64) -> Complex64 {
    let two_fs = Complex64::from_real(2.0 * fs);
    (two_fs + s) / (two_fs - s)
}

fn validate_order(order: usize) -> Result<(), DspError> {
    if order == 0 {
        return Err(DspError::InvalidParameter {
            name: "order",
            constraint: "must be at least 1",
        });
    }
    if order > 16 {
        return Err(DspError::InvalidParameter {
            name: "order",
            constraint: "orders above 16 are numerically unreliable; use a cascade",
        });
    }
    Ok(())
}

fn validate_cutoff(f_hz: f64, fs: f64) -> Result<(), DspError> {
    if !(fs > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "fs",
            constraint: "sample rate must be positive",
        });
    }
    if !(f_hz > 0.0 && f_hz < fs / 2.0) {
        return Err(DspError::InvalidParameter {
            name: "cutoff",
            constraint: "must lie strictly between 0 and the Nyquist frequency",
        });
    }
    Ok(())
}

/// Groups z-domain poles into denominator coefficient pairs `(a1, a2)`,
/// pairing complex-conjugate poles and coupling real poles two at a time.
/// A leftover single real pole yields a first-order `(a1, 0)` entry.
fn pole_sections(poles: &[Complex64]) -> Vec<(f64, f64)> {
    let mut sections = Vec::new();
    let mut reals: Vec<f64> = Vec::new();
    for p in poles {
        if p.im.abs() <= REAL_POLE_TOL * p.norm().max(1.0) {
            reals.push(p.re);
        } else if p.im > 0.0 {
            sections.push((-2.0 * p.re, p.norm_sqr()));
        }
    }
    reals.sort_by(f64::total_cmp);
    let mut it = reals.chunks_exact(2);
    for pair in &mut it {
        sections.push((-(pair[0] + pair[1]), pair[0] * pair[1]));
    }
    if let [r] = it.remainder() {
        sections.push((-r, 0.0));
    }
    sections
}

/// Normalizes each section so the cascade has unit magnitude at normalized
/// angular frequency `omega_ref`.
fn normalize_sections(sections: &mut [Biquad], omega_ref: f64) {
    for s in sections.iter_mut() {
        let g = s.response(omega_ref).norm();
        debug_assert!(g > 0.0, "reference frequency lies on a filter zero");
        let inv = 1.0 / g;
        s.b0 *= inv;
        s.b1 *= inv;
        s.b2 *= inv;
    }
}

/// Designs a Butterworth low-pass filter.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `order == 0` or `order > 16`,
/// if `fs <= 0`, or if `cutoff_hz` is not strictly between 0 and Nyquist.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::filter::butter_lowpass;
/// let f = butter_lowpass(4, 1_000.0, 48_000.0)?;
/// assert!(f.magnitude_at(100.0, 48_000.0) > 0.99);
/// assert!(f.magnitude_at(10_000.0, 48_000.0) < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn butter_lowpass(order: usize, cutoff_hz: f64, fs: f64) -> Result<BiquadCascade, DspError> {
    validate_order(order)?;
    validate_cutoff(cutoff_hz, fs)?;
    let wc = prewarp(cutoff_hz, fs);
    let z_poles: Vec<Complex64> = prototype_poles(order)
        .into_iter()
        .map(|p| bilinear(p.scale(wc), fs))
        .collect();
    let mut sections: Vec<Biquad> = pole_sections(&z_poles)
        .into_iter()
        .map(|(a1, a2)| {
            if a2 == 0.0 {
                // First-order section: single zero at z = -1.
                Biquad::new(1.0, 1.0, 0.0, a1, 0.0)
            } else {
                Biquad::new(1.0, 2.0, 1.0, a1, a2)
            }
        })
        .collect();
    normalize_sections(&mut sections, 0.0);
    Ok(BiquadCascade::new(sections))
}

/// Designs a Butterworth band-pass filter with edges `(low_hz, high_hz)`.
///
/// The resulting digital filter has order `2 * order` (each prototype pole
/// splits in two under the band-pass transform) and unit gain at the
/// geometric band centre.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the order is invalid, either
/// edge is outside `(0, fs/2)`, or `low_hz >= high_hz`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::filter::butter_bandpass;
/// // The EarSonar preprocessing band: 16-20 kHz at 48 kHz sampling.
/// let f = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0)?;
/// assert!(f.magnitude_at(18_000.0, 48_000.0) > 0.99);
/// assert!(f.magnitude_at(5_000.0, 48_000.0) < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn butter_bandpass(
    order: usize,
    low_hz: f64,
    high_hz: f64,
    fs: f64,
) -> Result<BiquadCascade, DspError> {
    validate_order(order)?;
    validate_cutoff(low_hz, fs)?;
    validate_cutoff(high_hz, fs)?;
    if low_hz >= high_hz {
        return Err(DspError::InvalidParameter {
            name: "low_hz",
            constraint: "must be strictly below high_hz",
        });
    }
    let w1 = prewarp(low_hz, fs);
    let w2 = prewarp(high_hz, fs);
    let bw = w2 - w1;
    let w0_sq = w1 * w2;
    // LP -> BP: each prototype pole p yields the two roots of
    //   s^2 - (bw * p) s + w0^2 = 0.
    let mut z_poles = Vec::with_capacity(2 * order);
    for p in prototype_poles(order) {
        let bp = p.scale(bw);
        let disc = bp * bp - Complex64::from_real(4.0 * w0_sq);
        let sqrt_disc = complex_sqrt(disc);
        let s_plus = (bp + sqrt_disc).scale(0.5);
        let s_minus = (bp - sqrt_disc).scale(0.5);
        z_poles.push(bilinear(s_plus, fs));
        z_poles.push(bilinear(s_minus, fs));
    }
    // Band-pass numerator: `order` zeros at z = +1 and `order` at z = -1;
    // one (+1, -1) pair per section gives (1, 0, -1).
    let mut sections: Vec<Biquad> = pole_sections(&z_poles)
        .into_iter()
        .map(|(a1, a2)| {
            if a2 == 0.0 {
                Biquad::new(1.0, -1.0, 0.0, a1, 0.0)
            } else {
                Biquad::new(1.0, 0.0, -1.0, a1, a2)
            }
        })
        .collect();
    // Reference: digital image of the analog centre frequency sqrt(w1 w2).
    let omega0 = 2.0 * (w0_sq.sqrt() / (2.0 * fs)).atan();
    normalize_sections(&mut sections, omega0);
    Ok(BiquadCascade::new(sections))
}

/// Principal square root of a complex number.
fn complex_sqrt(z: Complex64) -> Complex64 {
    let r = z.norm();
    let theta = z.arg();
    Complex64::from_polar(r.sqrt(), theta / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_poles_lie_on_unit_circle_left_half_plane() {
        for order in 1..=8 {
            for p in prototype_poles(order) {
                assert!((p.norm() - 1.0).abs() < 1e-12);
                assert!(p.re < 1e-12, "pole {p} not in left half-plane");
            }
        }
    }

    #[test]
    fn complex_sqrt_squares_back() {
        for z in [
            Complex64::new(3.0, 4.0),
            Complex64::new(-1.0, 0.5),
            Complex64::new(0.0, -2.0),
            Complex64::new(-4.0, 0.0),
        ] {
            let r = complex_sqrt(z);
            assert!((r * r - z).norm() < 1e-12);
        }
    }

    #[test]
    fn lowpass_gain_profile() {
        let f = butter_lowpass(4, 2_000.0, 48_000.0).unwrap();
        assert!(f.is_stable());
        assert!((f.magnitude_at(0.0, 48_000.0) - 1.0).abs() < 1e-9);
        // -3 dB at the cutoff, by Butterworth definition.
        let g_c = f.magnitude_at(2_000.0, 48_000.0);
        assert!(
            (g_c - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01,
            "{g_c}"
        );
        assert!(f.magnitude_at(8_000.0, 48_000.0) < 0.01);
    }

    #[test]
    fn odd_order_lowpass_has_first_order_section() {
        let f = butter_lowpass(5, 3_000.0, 48_000.0).unwrap();
        assert!(f.is_stable());
        assert_eq!(f.len(), 3); // two biquads + one first-order section
        let g_c = f.magnitude_at(3_000.0, 48_000.0);
        assert!((g_c - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
    }

    #[test]
    fn bandpass_passes_band_and_rejects_outside() {
        let f = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
        assert!(f.is_stable());
        for probe in [17_000.0, 18_000.0, 19_000.0] {
            let g = f.magnitude_at(probe, 48_000.0);
            assert!(g > 0.9, "gain {g} at {probe} Hz");
        }
        for probe in [1_000.0, 8_000.0, 23_500.0] {
            let g = f.magnitude_at(probe, 48_000.0);
            assert!(g < 0.05, "gain {g} at {probe} Hz");
        }
    }

    #[test]
    fn bandpass_edges_are_near_3db() {
        let f = butter_bandpass(3, 16_000.0, 20_000.0, 48_000.0).unwrap();
        for edge in [16_000.0, 20_000.0] {
            let g = f.magnitude_at(edge, 48_000.0);
            assert!(
                (g - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05,
                "edge gain {g} at {edge}"
            );
        }
    }

    #[test]
    fn odd_order_bandpass_is_stable_and_selective() {
        let f = butter_bandpass(5, 16_000.0, 20_000.0, 48_000.0).unwrap();
        assert!(f.is_stable());
        assert!(f.magnitude_at(18_000.0, 48_000.0) > 0.9);
        assert!(f.magnitude_at(12_000.0, 48_000.0) < 0.05);
    }

    #[test]
    fn wide_bandpass_is_stable() {
        // Wide band stresses the real-pole pairing path.
        let f = butter_bandpass(3, 500.0, 20_000.0, 48_000.0).unwrap();
        assert!(f.is_stable());
        assert!(f.magnitude_at(3_000.0, 48_000.0) > 0.9);
    }

    #[test]
    fn filtering_removes_out_of_band_tone() {
        let fs = 48_000.0;
        let n = 4096;
        let mut f = butter_bandpass(4, 16_000.0, 20_000.0, fs).unwrap();
        let in_band: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin())
            .collect();
        let out_band: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 2_000.0 * i as f64 / fs).sin())
            .collect();
        let mixed: Vec<f64> = in_band.iter().zip(&out_band).map(|(a, b)| a + b).collect();
        let y = f.process(&mixed);
        // Steady-state tail should track the in-band tone closely.
        let tail = n / 2..n;
        let err: f64 = tail
            .clone()
            .map(|i| (y[i] - in_band[i]).powi(2))
            .sum::<f64>()
            / tail.len() as f64;
        // Phase shift makes exact matching meaningless; compare energies.
        let e_y: f64 = tail.clone().map(|i| y[i] * y[i]).sum::<f64>() / tail.len() as f64;
        let e_in: f64 = 0.5; // unit sine power
        assert!((e_y - e_in).abs() / e_in < 0.1, "energy {e_y}");
        assert!(err < 2.0); // sanity: bounded deviation (phase shift allowed)
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(butter_lowpass(0, 1_000.0, 48_000.0).is_err());
        assert!(butter_lowpass(4, 0.0, 48_000.0).is_err());
        assert!(butter_lowpass(4, 24_000.0, 48_000.0).is_err());
        assert!(butter_lowpass(4, 1_000.0, -1.0).is_err());
        assert!(butter_bandpass(4, 20_000.0, 16_000.0, 48_000.0).is_err());
        assert!(butter_bandpass(17, 1_000.0, 2_000.0, 48_000.0).is_err());
    }

    #[test]
    fn designs_are_deterministic() {
        let a = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
        let b = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
        assert_eq!(a, b);
    }
}
