//! Per-person ear-canal geometry.
//!
//! "The length of the human ear canal is usually 2 cm–3.5 cm" (paper
//! §IV-A); EarSonar's segmentation exploits exactly this prior to pick the
//! eardrum echo out of the multipath. Each virtual patient gets a sampled
//! canal geometry, stable across that patient's sessions.

use crate::rng::SimRng;

/// Geometry and broadband acoustics of one ear canal.
#[derive(Debug, Clone, PartialEq)]
pub struct EarCanal {
    /// Distance from the earphone to the eardrum, metres (2–3.5 cm).
    pub eardrum_distance_m: f64,
    /// Canal radius, metres (children: ~2–4 mm).
    pub radius_m: f64,
    /// Broadband gain of the eardrum echo path (product of spreading loss
    /// and coupling), before the eardrum reflectance is applied.
    pub eardrum_path_gain: f64,
    /// Per-wall-reflection distances (m) and gains for early canal
    /// multipath, all shorter than the eardrum distance.
    pub wall_paths: Vec<(f64, f64)>,
    /// Direct speaker→microphone leak gain.
    pub direct_gain: f64,
}

impl EarCanal {
    /// Samples a child's ear-canal geometry.
    pub fn sample_child(rng: &mut SimRng) -> EarCanal {
        // Children aged 4-6: canal toward the short end of the adult range.
        let eardrum_distance_m = rng.gaussian_clamped(0.026, 0.003, 0.020, 0.035);
        let radius_m = rng.gaussian_clamped(0.003, 0.0005, 0.002, 0.0045);
        let eardrum_path_gain = rng.gaussian_clamped(0.50, 0.015, 0.44, 0.56);
        // At 16-20 kHz the canal (diameter ~6 mm, wavelength ~19 mm) is a
        // single-mode waveguide: sound propagates as a plane wave with no
        // discrete wall echoes. Minor irregularities (bends, cerumen)
        // contribute only faint early reflections.
        let n_walls = rng.uniform_usize(1, 3);
        let wall_paths = (0..n_walls)
            .map(|_| {
                let frac = rng.uniform(0.20, 0.45);
                let dist = (eardrum_distance_m * frac).min(0.014);
                let gain = rng.gaussian_clamped(0.02, 0.008, 0.005, 0.045);
                (dist, gain)
            })
            .collect();
        // The paper's prototype mounts the extra microphone parallel to
        // the speaker, acoustically shadowed from it: the direct leak is a
        // small fraction of the eardrum return.
        let direct_gain = rng.gaussian_clamped(0.06, 0.01, 0.03, 0.09);
        EarCanal {
            eardrum_distance_m,
            radius_m,
            eardrum_path_gain,
            wall_paths,
            direct_gain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_geometry_is_within_anatomy() {
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..200 {
            let ear = EarCanal::sample_child(&mut rng);
            assert!((0.020..=0.035).contains(&ear.eardrum_distance_m));
            assert!((0.002..=0.0045).contains(&ear.radius_m));
            assert!(!ear.wall_paths.is_empty());
            for &(d, g) in &ear.wall_paths {
                assert!(d < ear.eardrum_distance_m, "walls reflect before drum");
                assert!(g > 0.0 && g < ear.eardrum_path_gain + 0.2);
            }
        }
    }

    #[test]
    fn geometry_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        assert_eq!(
            EarCanal::sample_child(&mut a),
            EarCanal::sample_child(&mut b)
        );
    }

    #[test]
    fn different_people_have_different_ears() {
        let mut rng = SimRng::seed_from_u64(6);
        let a = EarCanal::sample_child(&mut rng);
        let b = EarCanal::sample_child(&mut rng);
        assert_ne!(a, b);
    }
}
