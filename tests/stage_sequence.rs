//! The front end as a sequence of public one-signal stage calls.
//!
//! `FrontEnd::process_with` batches chirps through the band-pass and
//! deconvolution and builds its alignment delay once per capture. Re-run
//! here chirp by chirp from the public functions — band-pass, event
//! check, deconvolution, then `delay_fractional_allpass_with` →
//! `echo_ir_spectrum` → `average_spectra` → `FeatureExtractor::extract_with`
//! — every capture of a seeded cohort must come out with bit-identical
//! features. Stage-by-stage timing harnesses call exactly this sequence, so
//! it is what they measure.

use earsonar::absorption::{average_spectra, echo_ir_spectrum};
use earsonar::channel::{average_irs, pipeline_estimator};
use earsonar::event::detect_events_with_floor;
use earsonar::pipeline::FrontEnd;
use earsonar::preprocess::Preprocessor;
use earsonar::segment::segment_with_anchor;
use earsonar_acoustics::propagation::delay_fractional_allpass_with;
use earsonar_dsp::hilbert::{envelope_with, refine_peak};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;
use earsonar_suite::{config, small_dataset};

/// The per-chirp impulse responses of a capture whose every chirp passes
/// the quality gate (so the gate, which only rejects, changes nothing).
fn impulse_responses(fe: &FrontEnd, scratch: &mut DspScratch, rec: &Recording) -> Vec<Vec<f64>> {
    let cfg = fe.config();
    let preprocessor = Preprocessor::new(cfg).unwrap();
    let estimator = pipeline_estimator(fe.template(), cfg).unwrap();
    let (mut prev_tail, mut contextual) = (Vec::new(), Vec::new());
    let (mut ext, mut filtered) = (Vec::new(), Vec::new());
    let (mut power_sum, mut power_len) = (0.0f64, 0usize);
    let mut irs = Vec::new();
    for window in (0..rec.n_chirps).map_while(|c| rec.try_chirp_window(c)) {
        // The previous window's raw tail is the filter's left context.
        let ctx = prev_tail.len();
        contextual.clear();
        contextual.extend_from_slice(&prev_tail);
        contextual.extend_from_slice(window);
        let keep = window.len().min(preprocessor.context_len());
        prev_tail.clear();
        prev_tail.extend_from_slice(&window[window.len() - keep..]);
        preprocessor
            .run_with(&contextual, &mut ext, &mut filtered)
            .unwrap();
        let filtered = &filtered[ctx..];
        power_sum += earsonar_dsp::simd::sum_sq(filtered);
        power_len += filtered.len();
        let floor = power_sum / power_len as f64;
        if detect_events_with_floor(filtered, floor, cfg).is_ok_and(|e| !e.is_empty()) {
            let mut ir = Vec::new();
            estimator.estimate_with(scratch, filtered, &mut ir).unwrap();
            irs.push(ir);
        }
    }
    irs
}

#[test]
fn one_signal_stage_calls_reproduce_the_front_end_bit_for_bit() {
    let fe = FrontEnd::new(&config()).unwrap();
    let cfg = fe.config();
    let mut scratch = DspScratch::new();
    let data = small_dataset(2);
    assert!(data.sessions.len() >= 8);
    for (i, session) in data.sessions.iter().enumerate() {
        let rec = &session.recording;
        let expected = fe.process_with(&mut scratch, rec).unwrap();
        assert_eq!(
            expected.diagnostics.quality_rejections.total(),
            0,
            "capture {i}: a clean capture passes the gate whole"
        );
        let irs = impulse_responses(&fe, &mut scratch, rec);
        assert_eq!(irs.len(), expected.diagnostics.irs_estimated, "capture {i}");

        let avg_ir = average_irs(&irs).unwrap();
        let mut echo = segment_with_anchor(&avg_ir, 1, cfg).unwrap();
        let mut env = Vec::new();
        envelope_with(&mut scratch, &avg_ir, &mut env);
        let refined = refine_peak(&env, echo.center, 3).unwrap_or(echo.center as f64);
        let target = refined.ceil() + 1.0;
        let shift = target - refined;
        echo.center = target as usize;
        let mut aligned = Vec::new();
        let mut spectra = Vec::new();
        for ir in &irs {
            delay_fractional_allpass_with(ir, shift, avg_ir.len() + 3, &mut scratch, &mut aligned)
                .unwrap();
            if let Ok(s) = echo_ir_spectrum(&aligned, echo.center, 1.0, cfg) {
                spectra.push(s);
            }
        }
        let averaged = average_spectra(&spectra).unwrap();
        let echoes = vec![echo; spectra.len()];
        let features = fe
            .extractor()
            .extract_with(&mut scratch, &spectra, &averaged, &echoes)
            .unwrap();

        assert_eq!(features, expected.features, "capture {i}: features");
        assert_eq!(averaged, expected.spectrum, "capture {i}: spectrum");
        assert_eq!(echoes, expected.echoes, "capture {i}: echoes");
    }
}
