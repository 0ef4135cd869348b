//! Latency measurement and power modelling (paper §VI-C-6).
//!
//! Table II reports per-stage latency on a smartphone (band-pass filter
//! 1.32 ms, feature extraction 35.89 ms, inference 1.2 ms); Table III
//! reports whole-system power on three handsets (~2.1–2.25 W). We measure
//! the latency of our own stages directly ([`measure_stage_latency`]) and
//! model handset power with an operation-energy model — we cannot
//! instrument a phone's power rail, so the model documents its assumptions
//! and reproduces the relative ordering (see DESIGN.md).
//!
//! This module lives in the benchmark harness, not the detection core:
//! wall-clock reads are banned from the result-producing crates (see
//! `clippy.toml`'s `disallowed-methods`), and latency numbers are a
//! benchmark artifact, not a detection output.

use earsonar::pipeline::EarSonar;
use earsonar::preprocess::Preprocessor;
use earsonar_signal::recording::Recording;
use std::time::Instant;

/// Per-stage latency of one screening, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLatency {
    /// Band-pass filtering.
    pub bandpass_ms: f64,
    /// Event detection + segmentation + absorption analysis + features.
    pub feature_extract_ms: f64,
    /// Classifier inference on the feature vector (for the reference
    /// backend: standardize, project, nearest centre).
    pub inference_ms: f64,
}

impl StageLatency {
    /// Total pipeline latency.
    pub fn total_ms(&self) -> f64 {
        self.bandpass_ms + self.feature_extract_ms + self.inference_ms
    }
}

/// Measures the latency of each stage of `system` screening `recording`,
/// averaging over `repeats` runs.
///
/// The band-pass row times one [`Preprocessor::run`] over the whole
/// recording, a call the screening pipeline never makes. The front end
/// filters each 240-sample chirp window with 72 samples of left context
/// and 72-sample reflected pads: a 456-step forward pass and a 312-step
/// backward pass, 768 filter steps per window, four windows per
/// lane-interleaved pass. One whole-recording pass over 24 chirps takes
/// about 11.7k steps where the pipeline takes about 18.4k in groups of
/// four, so the row is not the pipeline's band-pass cost, and
/// `feature_extract_ms`, the remainder of a full front-end run, absorbs
/// the difference.
///
/// # Errors
///
/// Propagates any pipeline error from the measured stages.
#[allow(clippy::disallowed_methods)] // timing is this module's purpose
pub fn measure_stage_latency(
    system: &EarSonar,
    recording: &Recording,
    repeats: usize,
) -> Result<StageLatency, earsonar::error::EarSonarError> {
    let repeats = repeats.max(1);
    let front_end = system.front_end();
    let pre = Preprocessor::new(front_end.config())?;

    let t0 = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(pre.run(&recording.samples)?);
    }
    let bandpass_ms = t0.elapsed().as_secs_f64() * 1e3 / repeats as f64;

    let t1 = Instant::now();
    let mut processed = std::hint::black_box(front_end.process(recording)?);
    for _ in 1..repeats {
        processed = std::hint::black_box(front_end.process(recording)?);
    }
    let full_ms = t1.elapsed().as_secs_f64() * 1e3 / repeats as f64;
    // The front end includes the band-pass; features alone = full - bandpass.
    let feature_extract_ms = (full_ms - bandpass_ms).max(0.0);

    let t2 = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(system.classify(&processed)?);
    }
    let inference_ms = t2.elapsed().as_secs_f64() * 1e3 / repeats as f64;

    Ok(StageLatency {
        bandpass_ms,
        feature_extract_ms,
        inference_ms,
    })
}

/// A smartphone power profile for the energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhoneProfile {
    /// Handset name as in paper Table III.
    pub name: &'static str,
    /// Baseline platform draw while the app is active (screen, radios), mW.
    pub base_mw: f64,
    /// Incremental CPU draw while the pipeline computes, mW.
    pub cpu_active_mw: f64,
    /// Speaker driver output draw during chirping, mW.
    pub speaker_mw: f64,
    /// Microphone + codec capture draw, mW.
    pub mic_mw: f64,
}

/// The three handsets of paper Table III.
///
/// The profiles are set so the *ordering and scale* match the paper
/// (~2.1 W Huawei < Galaxy < Mi 10); the absolute splits are documented
/// assumptions, not measurements.
pub const PAPER_PHONES: [PhoneProfile; 3] = [
    PhoneProfile {
        name: "Huawei",
        base_mw: 1_985.0,
        cpu_active_mw: 240.0,
        speaker_mw: 70.0,
        mic_mw: 40.0,
    },
    PhoneProfile {
        name: "Galaxy",
        base_mw: 2_005.0,
        cpu_active_mw: 250.0,
        speaker_mw: 70.0,
        mic_mw: 40.0,
    },
    PhoneProfile {
        name: "MI 10",
        base_mw: 2_125.0,
        cpu_active_mw: 290.0,
        speaker_mw: 70.0,
        mic_mw: 43.0,
    },
];

/// Average power (mW) of a continuous screening loop on `phone`: the
/// capture chain runs the whole time; the CPU is active for the compute
/// duty cycle implied by the measured latency and the recording length.
pub fn screening_power_mw(phone: &PhoneProfile, latency: &StageLatency, recording_ms: f64) -> f64 {
    let duty = (latency.total_ms() / recording_ms.max(latency.total_ms())).clamp(0.0, 1.0);
    phone.base_mw + phone.speaker_mw + phone.mic_mw + duty * phone.cpu_active_mw
}

/// Table III in one call: power for every paper phone.
pub fn paper_power_table(latency: &StageLatency, recording_ms: f64) -> Vec<(&'static str, f64)> {
    PAPER_PHONES
        .iter()
        .map(|p| (p.name, screening_power_mw(p, latency, recording_ms)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar::config::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};

    fn latency_fixture() -> StageLatency {
        StageLatency {
            bandpass_ms: 1.3,
            feature_extract_ms: 36.0,
            inference_ms: 1.2,
        }
    }

    #[test]
    fn total_sums_stages() {
        let l = latency_fixture();
        assert!((l.total_ms() - 38.5).abs() < 1e-12);
    }

    #[test]
    fn power_is_in_paper_range() {
        let l = latency_fixture();
        for (name, mw) in paper_power_table(&l, 120.0) {
            assert!(
                (1_800.0..=2_400.0).contains(&mw),
                "{name}: {mw} mW out of range"
            );
        }
    }

    #[test]
    fn mi10_draws_most() {
        let l = latency_fixture();
        let table = paper_power_table(&l, 120.0);
        let max = table.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(max.0, "MI 10");
    }

    #[test]
    fn longer_recordings_lower_duty_cycle_power() {
        let l = latency_fixture();
        let p_short = screening_power_mw(&PAPER_PHONES[0], &l, 50.0);
        let p_long = screening_power_mw(&PAPER_PHONES[0], &l, 10_000.0);
        assert!(p_short > p_long);
    }

    #[test]
    fn measured_latency_is_positive_and_finite() {
        let ds = Dataset::build(&Cohort::generate(4, 31), &DatasetSpec::default());
        let cfg = EarSonarConfig::default();
        let system = EarSonar::fit(&ds.sessions, &cfg).unwrap();
        let lat = measure_stage_latency(&system, &ds.sessions[0].recording, 2).unwrap();
        assert!(lat.bandpass_ms > 0.0 && lat.bandpass_ms.is_finite());
        assert!(lat.feature_extract_ms >= 0.0);
        assert!(lat.inference_ms > 0.0);
        // Inference (nearest-centroid) is much cheaper than features.
        assert!(lat.inference_ms < lat.feature_extract_ms + lat.bandpass_ms + 5.0);
    }
}
