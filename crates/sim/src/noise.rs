//! Ambient-noise synthesis.
//!
//! The noise experiments (paper §VI-C-2) "add additional background noise
//! to the collected data to simulate the test environment under different
//! sound pressure levels" — exactly what this module does. Ambient room
//! noise is mostly low-frequency; only its high tail lands inside the
//! 16–20 kHz probe band, which is why the paper could sense at all in a
//! noisy room.
//!
//! [`add_ambient_noise`] adds the noise onto a buffer in place, its
//! Gaussians drawn in blocks by [`SimRng::gaussian_pairs`].

use crate::rng::SimRng;
use earsonar_dsp::decibel::db_to_amplitude;

/// Calibration: the simulator amplitude corresponding to 0 dB SPL of
/// ambient noise at the microphone. Set so that a quiet room (~30 dB) is
/// negligible against a unit-amplitude probe and 60 dB is disruptive,
/// mirroring the paper's FRR trend in Fig. 14(b).
pub const SPL_REF_AMPLITUDE: f64 = 1.6e-4;

/// Spectral balance of ambient noise: fraction of RMS below ~4 kHz
/// (rumble, speech) versus broadband. Only the broadband part intrudes on
/// the probe band.
const LOW_FREQ_FRACTION: f64 = 0.85;

/// Converts a sound pressure level to ambient-noise RMS amplitude in
/// simulator units.
pub fn spl_to_amplitude(db_spl: f64) -> f64 {
    db_to_amplitude(db_spl, SPL_REF_AMPLITUDE)
}

/// Adds ambient noise at `db_spl` sound pressure level, scaled by the
/// earphone's passive `isolation` factor, onto `signal` in place: a
/// low-frequency-weighted component (one-pole-smoothed white noise) plus a
/// broadband component.
///
/// Each sample needs exactly two independent Gaussians (the rumble drive
/// and the broadband term), so it takes one polar-method pair per sample
/// from [`SimRng::gaussian_pairs`] — about half the cost of two Box–Muller
/// draws, with identical statistics.
///
/// # Example
///
/// ```
/// use earsonar_sim::noise::add_ambient_noise;
/// use earsonar_sim::rng::SimRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let (mut quiet, mut loud) = (vec![0.0; 4_800], vec![0.0; 4_800]);
/// add_ambient_noise(&mut quiet, 30.0, 1.0, &mut rng);
/// add_ambient_noise(&mut loud, 70.0, 1.0, &mut rng);
/// let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
/// assert!(rms(&loud) > 50.0 * rms(&quiet));
/// ```
pub fn add_ambient_noise(signal: &mut [f64], db_spl: f64, isolation: f64, rng: &mut SimRng) {
    let rms = spl_to_amplitude(db_spl);
    let low_rms = rms * LOW_FREQ_FRACTION;
    let broad_rms = rms * (1.0 - LOW_FREQ_FRACTION * LOW_FREQ_FRACTION).sqrt();
    // One-pole low-pass drive for the rumble component. The filter has
    // gain 1/sqrt(1-a^2) in RMS for white input; compensate.
    let a = 0.95f64;
    let comp = (1.0 - a * a).sqrt();
    let mut state = 0.0f64;
    let mut samples = signal.iter_mut();
    rng.gaussian_pairs(samples.len(), |w, g| {
        if let Some(s) = samples.next() {
            state = a * state + comp * w;
            *s += isolation * (low_rms * state + broad_rms * g);
        }
    });
}

/// Energy of `x` between `lo` and `hi` hertz: the summed `|X[k]|²` of its
/// Hann-tapered, zero-padded real FFT over the bins inside that band. The
/// tests compare band energies with it.
#[cfg(test)]
pub(crate) fn band_energy(x: &[f64], fs: f64, lo: f64, hi: f64) -> f64 {
    let n = earsonar_dsp::fft::next_pow2(x.len());
    let mut tapered = x.to_vec();
    earsonar_dsp::window::hann_in_place(&mut tapered);
    let (mut work, mut spectrum) = (Vec::new(), Vec::new());
    earsonar_dsp::plan::RealFftPlan::shared(n)
        .unwrap()
        .forward_into(&tapered, &mut work, &mut spectrum)
        .unwrap();
    let bin_hz = fs / n as f64;
    spectrum[..=n / 2]
        .iter()
        .enumerate()
        .filter(|&(k, _)| (lo..=hi).contains(&(k as f64 * bin_hz)))
        .map(|(_, z)| z.norm_sqr())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    /// `len` samples of ambient noise alone, at unit isolation.
    fn ambient(len: usize, db_spl: f64, rng: &mut SimRng) -> Vec<f64> {
        let mut x = vec![0.0; len];
        add_ambient_noise(&mut x, db_spl, 1.0, rng);
        x
    }

    #[test]
    fn amplitude_scales_with_spl() {
        assert!(spl_to_amplitude(60.0) > spl_to_amplitude(45.0));
        // +20 dB = 10x amplitude.
        let r = spl_to_amplitude(60.0) / spl_to_amplitude(40.0);
        assert!((r - 10.0).abs() < 1e-9);
    }

    #[test]
    fn noise_rms_tracks_requested_level() {
        let mut rng = SimRng::seed_from_u64(3);
        for db in [40.0, 55.0, 70.0] {
            let x = ambient(50_000, db, &mut rng);
            let want = spl_to_amplitude(db);
            let got = rms(&x);
            assert!(
                (got / want - 1.0).abs() < 0.1,
                "db {db}: rms {got} vs {want}"
            );
        }
    }

    #[test]
    fn noise_is_low_frequency_dominated() {
        let mut rng = SimRng::seed_from_u64(5);
        let x = ambient(1 << 15, 60.0, &mut rng);
        let low = band_energy(&x, 48_000.0, 0.0, 4_000.0);
        let probe_band = band_energy(&x, 48_000.0, 16_000.0, 20_000.0);
        assert!(low > 3.0 * probe_band, "low {low} vs probe {probe_band}");
        // But the probe band is NOT silent: some noise leaks in.
        assert!(probe_band > 0.0);
    }

    #[test]
    fn quiet_room_barely_perturbs_probe() {
        let mut rng = SimRng::seed_from_u64(8);
        let x = ambient(10_000, 30.0, &mut rng);
        assert!(rms(&x) < 0.01, "rms {}", rms(&x));
    }

    #[test]
    fn isolation_attenuates_added_noise() {
        let mut rng1 = SimRng::seed_from_u64(9);
        let mut rng2 = SimRng::seed_from_u64(9);
        let mut a = vec![0.0; 10_000];
        let mut b = vec![0.0; 10_000];
        add_ambient_noise(&mut a, 60.0, 1.0, &mut rng1);
        add_ambient_noise(&mut b, 60.0, 0.3, &mut rng2);
        assert!((rms(&b) / rms(&a) - 0.3).abs() < 0.02);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(4);
        let mut b = SimRng::seed_from_u64(4);
        assert_eq!(ambient(64, 50.0, &mut a), ambient(64, 50.0, &mut b));
    }
}
