//! Property tests for the quality gate: corruption severity is ordered,
//! so the gate's session-level judgement must be ordered too.
//!
//! The fault injectors draw their randomness independently of severity
//! (which windows drop, where bursts land, the burst noise itself are
//! all fixed per seed), so raising severity at a fixed seed strictly
//! adds corruption. The properties verified here:
//!
//! 1. Session confidence never increases with severity for faults that
//!    corrupt samples in place (clipping, dropout, bursts, DC offset,
//!    earbud removal). Truncation is excluded from this one by design:
//!    it removes windows, and the survivors are pristine, so the mean
//!    score of what remains can fluctuate — the monotone quantity there
//!    is how much usable signal is left, covered by property 2.
//! 2. The accepted-chirp count never increases with severity, for every
//!    fault kind including truncation.
//! 3. Severity zero is a no-op, and a fully clean session is processed
//!    bit-identically whether the gate is enabled or disabled: the gate
//!    observes raw windows and must never perturb accepted ones.
//! 4. A non-finite sample (NaN or ±Inf) costs exactly the window it sits
//!    in: each poisoned window removes one accepted chirp, its neighbours
//!    stay accepted, and any poisoned window zeroes session confidence.

use earsonar::pipeline::FrontEnd;
use earsonar::streaming::ChirpStream;
use earsonar_dsp::plan::DspScratch;
use earsonar_sim::faults::Fault;
use earsonar_sim::recorder::Recording;
use earsonar_suite::{config, small_dataset};

const SEVERITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const SEEDS: [u64; 3] = [2023, 5, 31];

fn clean_recording() -> Recording {
    small_dataset(1).sessions[0].recording.clone()
}

/// Confidence and accepted-chirp count of `rec` under the default gate.
fn gate_outcome(fe: &FrontEnd, rec: &Recording) -> (f64, usize) {
    let mut stream = ChirpStream::new(fe);
    stream
        .push_samples_with(fe, &mut DspScratch::new(), &rec.samples)
        .expect("push");
    let q = stream.quality();
    (q.confidence(), q.chirps_accepted)
}

#[test]
fn session_confidence_is_monotone_in_severity_for_in_place_faults() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let rec = clean_recording();
    for fault in Fault::standard_suite(1.0) {
        if matches!(fault, Fault::Truncation { .. }) {
            continue; // see module docs: survivors are clean by construction
        }
        for seed in SEEDS {
            let mut prev = f64::INFINITY;
            for sev in SEVERITIES {
                let mut corrupted = rec.clone();
                fault.with_severity(sev).apply(&mut corrupted, seed);
                let (conf, _) = gate_outcome(&fe, &corrupted);
                assert!(
                    conf <= prev + 1e-12,
                    "{} seed {seed}: confidence rose from {prev:.6} to {conf:.6} at severity {sev}",
                    fault.name()
                );
                prev = conf;
            }
        }
    }
}

#[test]
fn accepted_chirp_count_is_monotone_in_severity_for_every_fault() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let rec = clean_recording();
    for fault in Fault::standard_suite(1.0) {
        for seed in SEEDS {
            let mut prev = usize::MAX;
            for sev in SEVERITIES {
                let mut corrupted = rec.clone();
                fault.with_severity(sev).apply(&mut corrupted, seed);
                let (_, accepted) = gate_outcome(&fe, &corrupted);
                assert!(
                    accepted <= prev,
                    "{} seed {seed}: accepted chirps rose from {prev} to {accepted} at severity {sev}",
                    fault.name()
                );
                prev = accepted;
            }
        }
    }
}

#[test]
fn zero_severity_is_a_no_op_for_every_fault() {
    let rec = clean_recording();
    for fault in Fault::standard_suite(0.0) {
        let mut touched = rec.clone();
        fault.apply(&mut touched, 7);
        assert_eq!(
            touched.samples,
            rec.samples,
            "{} at severity 0 must not alter samples",
            fault.name()
        );
        assert_eq!(touched.n_chirps, rec.n_chirps);
    }
}

#[test]
fn clean_sessions_are_bit_identical_with_the_gate_on_or_off() {
    // The gate measures raw windows before any processing; a session it
    // fully accepts must therefore produce the exact same features as a
    // run with the gate disabled.
    let cfg_on = config();
    let mut cfg_off = config();
    cfg_off.quality.enabled = false;

    let fe_on = FrontEnd::new(&cfg_on).expect("front end");
    let fe_off = FrontEnd::new(&cfg_off).expect("front end");

    for session in &small_dataset(3).sessions {
        let gated = fe_on.process(&session.recording).expect("gated");
        let ungated = fe_off.process(&session.recording).expect("ungated");
        assert_eq!(
            gated.quality.rejections.total(),
            0,
            "a clean simulated session must pass the gate untouched"
        );
        assert_eq!(
            gated.features, ungated.features,
            "features must be bit-identical"
        );
        assert_eq!(gated.diagnostics, ungated.diagnostics);
        assert_eq!(gated.chirps_used, ungated.chirps_used);
    }
}

#[test]
fn each_non_finite_window_costs_exactly_one_accepted_chirp() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let rec = clean_recording();
    let (clean_conf, clean_accepted) = gate_outcome(&fe, &rec);
    assert_eq!(
        clean_accepted, rec.n_chirps,
        "the clean session must pass the gate untouched"
    );
    assert!(clean_conf > 0.0);

    // One bad sample mid-window, in windows spread over the session.
    let n = rec.n_chirps;
    let windows = [n / 8, 3 * n / 8, 5 * n / 8, 7 * n / 8];
    let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut prev = clean_accepted;
    for poisoned in [0usize, 1, 2, 4] {
        let mut bad = rec.clone();
        for (&c, &v) in windows[..poisoned].iter().zip(&values) {
            bad.samples[c * rec.chirp_hop + rec.chirp_hop / 2] = v;
        }
        let (conf, accepted) = gate_outcome(&fe, &bad);
        assert!(
            accepted <= prev,
            "{poisoned} poisoned window(s): accepted chirps rose from {prev} to {accepted}"
        );
        assert_eq!(
            accepted,
            clean_accepted - poisoned,
            "{poisoned} poisoned window(s) must cost exactly {poisoned} accepted chirp(s)"
        );
        if poisoned > 0 {
            assert_eq!(
                conf, 0.0,
                "{poisoned} poisoned window(s) must zero confidence"
            );
        }
        prev = accepted;
    }
}
