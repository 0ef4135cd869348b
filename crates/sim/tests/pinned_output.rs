//! Pins the simulator's exact output.
//!
//! Every benchmark input and every `results/` figure is built from
//! simulated recordings, so a change that moves a single sample moves
//! them all. These digests catch such a change inside `cargo test`: each
//! is a 64-bit FNV-1a hash over the little-endian bits of every sample of
//! one recording. The block Gaussian generator behind the noise fills is
//! held to a one-pair-at-a-time polar-method reference bit for bit.

use earsonar_sim::device::EarphoneModel::{self, AthCks550xis, BoseQc20, Ck35051, Ie100Pro};
use earsonar_sim::ear::EarCanal;
use earsonar_sim::motion::Motion::{self, Nodding, Sit, Walking};
use earsonar_sim::recorder::{synthesize_recording, RecorderConfig};
use earsonar_sim::rng::SimRng;
use earsonar_sim::wearing::WearingAngle;
use earsonar_sim::MeeAcoustics;
use earsonar_sim::MeeState::{self, Clear, Mucoid, Purulent, Serous};

type Case = (EarphoneModel, Motion, f64, f64, MeeState, (usize, usize));

/// One recording per row: (device, motion, noise dB SPL, wearing angle in
/// degrees, effusion state, (samples per chirp window, chirps)), seeded
/// with its row number + 1. Together they cover every earphone, 30/45/70
/// dB, three motion states, an off-standard angle and, in the last row, an
/// odd sample count that leaves a white-noise remainder.
const CASES: [Case; 5] = [
    (Ck35051, Sit, 30.0, 0.0, Clear, (240, 24)),
    (AthCks550xis, Walking, 45.0, 0.0, Serous, (240, 24)),
    (Ie100Pro, Nodding, 70.0, 0.0, Mucoid, (240, 24)),
    (BoseQc20, Sit, 45.0, 30.0, Purulent, (240, 24)),
    (Ck35051, Walking, 30.0, 0.0, Clear, (241, 7)),
];

/// The digest of each row of [`CASES`].
const DIGESTS: [u64; 5] = [
    0x6863_f16a_8116_2e4e,
    0x0779_ff6e_6315_d797,
    0x128f_8f3a_25a9_a602,
    0xf94b_7ceb_6cab_89f9,
    0x4743_70a7_ef2a_13c8,
];

/// 64-bit FNV-1a over the bits of `samples`.
fn fnv1a(samples: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in samples.iter().flat_map(|s| s.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn recordings_match_their_pinned_digests() {
    for (row, (device, motion, noise_db_spl, deg, state, (hop, n_chirps))) in
        CASES.into_iter().enumerate()
    {
        let mut rng = SimRng::seed_from_u64(row as u64 + 1);
        let ear = EarCanal::sample_child(&mut rng);
        let response = state.sample_response(18_000.0, &mut rng);
        let mut cfg = RecorderConfig {
            device,
            motion,
            noise_db_spl,
            angle: WearingAngle::new(deg),
            n_chirps,
            ..Default::default()
        };
        cfg.chirp_interval_s = hop as f64 / cfg.chirp.sample_rate;
        let samples = synthesize_recording(&ear, &response, &cfg, &mut rng).samples;
        assert_eq!(samples.len(), hop * n_chirps);
        let got = fnv1a(&samples);
        assert!(got == DIGESTS[row], "row {row}: digest {got:#018x}");
    }
}

/// One polar-method pair at a time: the scalar reference the block
/// generator must reproduce.
fn polar_pair(rng: &mut SimRng) -> (f64, f64) {
    loop {
        let x = rng.uniform(-1.0, 1.0);
        let y = rng.uniform(-1.0, 1.0);
        let s = x * x + y * y;
        if s < 1.0 && s > 0.0 {
            let k = (-2.0 * s.ln() / s).sqrt();
            return (x * k, y * k);
        }
    }
}

#[test]
fn block_gaussian_pairs_equal_the_scalar_polar_method() {
    for pairs in [0usize, 1, 2, 255, 256, 257, 5760, 5761] {
        let mut block = SimRng::seed_from_u64(pairs as u64);
        let mut scalar = block.clone();
        let mut got = Vec::with_capacity(pairs);
        block.gaussian_pairs(pairs, |a, b| got.push((a.to_bits(), b.to_bits())));
        let want: Vec<_> = (0..pairs)
            .map(|_| polar_pair(&mut scalar))
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        assert!(got == want, "{pairs} pairs differ");
        assert_eq!(
            block.uniform(0.0, 1.0).to_bits(),
            scalar.uniform(0.0, 1.0).to_bits(),
            "{pairs} pairs: the streams diverge afterwards"
        );
    }
}
