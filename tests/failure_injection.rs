//! Failure injection: the pipeline must degrade with typed errors and
//! quality-gated rejections — never panic, never emit NaN, and never
//! flip to a *different* effusion class — when recordings are corrupted
//! the ways real deployments produce (clipping, dropouts, burst noise,
//! DC offset, earbud removal, truncation).
//!
//! Corruption comes from `earsonar_sim::faults`, the simulator's seeded
//! fault injectors, so every scenario here is reproducible and severity-
//! controlled rather than ad hoc.

use earsonar::pipeline::FrontEnd;
use earsonar::screening::{
    screen_recording_quality, screen_with_retry, RetryPolicy, ScreeningOutcome,
};
use earsonar::streaming::ChirpStream;
use earsonar::EarSonar;
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::source::QueueSource;
use earsonar_sim::faults::{Fault, FaultInjector, FaultySource};
use earsonar_sim::recorder::Recording;
use earsonar_suite::{config, small_dataset};

fn clean_recording() -> Recording {
    small_dataset(1).sessions[0].recording.clone()
}

/// A recording with `fault` applied at `severity` under a fixed seed.
fn faulted(fault: Fault, seed: u64) -> Recording {
    let mut rec = clean_recording();
    fault.apply(&mut rec, seed);
    rec
}

fn assert_finite_or_typed_error(fe: &FrontEnd, rec: &Recording) {
    match fe.process(rec) {
        Ok(p) => {
            assert!(p.features.iter().all(|v| v.is_finite()), "NaN feature");
            assert!(p.spectrum.band_power.is_finite());
        }
        Err(e) => {
            // A typed error is acceptable; its Display must be non-empty.
            assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn every_fault_is_survivable_at_full_severity() {
    let fe = FrontEnd::new(&config()).unwrap();
    for fault in Fault::standard_suite(1.0) {
        let rec = faulted(fault, 99);
        assert_finite_or_typed_error(&fe, &rec);
    }
}

#[test]
fn batch_and_streaming_agree_on_gated_recordings() {
    // The quality gate lives in the shared per-chirp stage, so a faulted
    // recording must produce bit-identical diagnostics, rejections, and
    // features whether processed batch or chirp by chirp.
    let fe = FrontEnd::new(&config()).unwrap();
    for fault in Fault::standard_suite(0.7) {
        let rec = faulted(fault, 42);
        let batch = fe.process(&rec);

        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        for chunk in rec.samples.chunks(97) {
            stream.push_samples_with(&fe, &mut scratch, chunk).unwrap();
        }
        let streamed = stream.finish_with(&fe, &mut scratch);
        match (batch, streamed) {
            (Ok(b), Ok(s)) => {
                assert_eq!(b.features, s.features, "{} features differ", fault.name());
                assert_eq!(b.diagnostics, s.diagnostics, "{} diagnostics", fault.name());
                assert_eq!(b.quality, s.quality, "{} quality", fault.name());
            }
            (Err(b), Err(s)) => {
                assert_eq!(
                    b.to_string(),
                    s.to_string(),
                    "{} errors differ",
                    fault.name()
                );
            }
            (b, s) => panic!(
                "{}: batch {:?} but streaming {:?}",
                fault.name(),
                b.map(|p| p.chirps_used),
                s.map(|p| p.chirps_used)
            ),
        }
    }
}

#[test]
fn gate_counts_dropped_chirps_by_cause() {
    let fe = FrontEnd::new(&config()).unwrap();
    let rec = faulted(Fault::Dropout { severity: 0.8 }, 7);
    let mut stream = ChirpStream::new(&fe);
    stream
        .push_samples_with(&fe, &mut DspScratch::new(), &rec.samples)
        .unwrap();
    let q = stream.quality();
    assert!(
        q.rejections.dropout > 0,
        "dropout fault must trip the dropout gate"
    );
    assert_eq!(q.rejections.total(), q.chirps_pushed - q.chirps_accepted);
    assert!(
        q.confidence() < 0.5,
        "mostly dropped session cannot be confident"
    );
}

#[test]
fn corrupt_captures_recover_to_the_clean_verdict_via_retry() {
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let rec = clean_recording();
    let clean_state = system.screen(&rec).expect("clean verdict");

    for fault in Fault::standard_suite(0.9) {
        // Two corrupted captures, then a clean one: the bounded retry
        // policy must land on exactly the clean verdict.
        let injector = FaultInjector::new(31).with(fault);
        let mut source =
            FaultySource::corrupt_first(QueueSource::repeating(rec.clone(), 3), injector, 2);
        let outcome = screen_with_retry(&system, &mut source, &RetryPolicy::default())
            .expect("retry screening");
        match outcome {
            ScreeningOutcome::Conclusive(report) => {
                assert_eq!(
                    report.state,
                    clean_state,
                    "{}: retry recovered to a different class",
                    fault.name()
                );
            }
            // DC offset is filtered by the band-pass, so the first capture
            // may already conclude; everything else must have retried.
            ScreeningOutcome::Inconclusive(r) => {
                panic!(
                    "{}: inconclusive {:?} despite a clean third capture",
                    fault.name(),
                    r.reason
                )
            }
        }
    }
}

#[test]
fn fully_corrupt_sources_never_yield_a_different_class() {
    // The acceptance bar: with >=50% of chirps corrupted by any single
    // injector and no clean capture to fall back on, screening either
    // still reaches the clean verdict (the fault was filterable) or
    // returns a typed Inconclusive — never a different effusion class.
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let rec = clean_recording();
    let clean_state = system.screen(&rec).expect("clean verdict");

    for fault in Fault::standard_suite(0.9) {
        let injector = FaultInjector::new(77).with(fault);
        let mut source = FaultySource::new(QueueSource::repeating(rec.clone(), 4), injector);
        let outcome = screen_with_retry(&system, &mut source, &RetryPolicy::default())
            .expect("retry screening");
        match &outcome {
            ScreeningOutcome::Conclusive(report) => assert_eq!(
                report.state,
                clean_state,
                "{}: corrupted session flipped the class",
                fault.name()
            ),
            ScreeningOutcome::Inconclusive(report) => {
                assert!(report.attempts >= 1);
                assert!(!outcome.is_conclusive());
            }
        }
    }
}

#[test]
fn dc_offset_is_survivable() {
    let fe = FrontEnd::new(&config()).unwrap();
    let rec = faulted(Fault::DcOffset { severity: 0.5 }, 3);
    // The band-pass removes DC; processing should still succeed.
    let p = fe.process(&rec).expect("DC offset must be filtered out");
    assert!(p.features.iter().all(|v| v.is_finite()));
}

#[test]
fn single_corrupt_session_does_not_break_training() {
    let mut data = small_dataset(6);
    // Corrupt one training session beyond recognition.
    Fault::Dropout { severity: 1.0 }.apply(&mut data.sessions[3].recording, 5);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training with one bad session");
    let verdict = system.screen(&data.sessions[0].recording);
    assert!(verdict.is_ok());
}

#[test]
fn screening_silence_fails_with_no_echo_not_a_panic() {
    let data = small_dataset(4);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let silent = Recording {
        samples: vec![0.0; 240 * 8],
        sample_rate: 48_000.0,
        chirp_hop: 240,
        n_chirps: 8,
        chirp_len: 24,
    };
    let err = system.screen(&silent).unwrap_err();
    assert!(err.to_string().contains("echo") || err.to_string().contains("recording"));
}

#[test]
fn polarity_inversion_changes_nothing() {
    // A microphone with inverted polarity must not change verdicts: the
    // pipeline works on energies.
    let data = small_dataset(4);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let rec = clean_recording();
    let mut flipped = rec.clone();
    for s in &mut flipped.samples {
        *s = -*s;
    }
    assert_eq!(
        system.screen(&rec).unwrap(),
        system.screen(&flipped).unwrap()
    );
}

#[test]
fn a_single_non_finite_sample_ends_inconclusive() {
    // A NaN or infinity compares false against every gate threshold, so
    // it must be caught explicitly: one such sample anywhere in a capture
    // is a broken capture path, and the screening declines to answer
    // instead of returning a class with a NaN confidence.
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let fe = system.front_end();
    let rec = clean_recording();
    let last = rec.samples.len() - 1;
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [0, last / 2, last] {
            let mut bad = rec.clone();
            bad.samples[at] = value;
            let outcome = screen_recording_quality(&system, &bad, &RetryPolicy::default())
                .expect("a non-finite sample is a policy outcome, not an error");
            let ScreeningOutcome::Inconclusive(report) = outcome else {
                panic!("{value} at sample {at}: conclusive {outcome:?}");
            };
            let quality = report.quality.expect("the capture decoded");
            assert_eq!(quality.rejections.non_finite, 1, "{value} at sample {at}");
            assert_eq!(quality.confidence(), 0.0, "{value} at sample {at}");
            assert_finite_or_typed_error(fe, &bad);
        }
    }
}
