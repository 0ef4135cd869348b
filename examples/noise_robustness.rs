//! Noise robustness: how screening quality degrades from a quiet bedroom
//! to a noisy living room — the deployment question behind paper Fig. 14 —
//! followed by the failure modes the clinical study never sees: the
//! structured fault injectors of `earsonar_sim::faults` driven through the
//! quality-gated retry policy, showing graceful degradation to a typed
//! `Inconclusive` instead of a wrong verdict.
//!
//! ```text
//! cargo run --release --example noise_robustness
//! ```

use earsonar::screening::{screen_with_retry, InconclusiveReason, ScreeningOutcome};
use earsonar::{EarSonar, EarSonarConfig, RetryPolicy};
use earsonar_signal::source::QueueSource;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::faults::{Fault, FaultInjector, FaultySource};
use earsonar_sim::session::{RecordSession, Session, SessionConfig};

const ROOMS: [(&str, f64); 4] = [
    ("quiet bedroom", 30.0),
    ("living room", 45.0),
    ("kitchen", 55.0),
    ("street-facing room", 65.0),
];

fn main() {
    // Train once in quiet conditions (the recommended protocol).
    let cohort = Cohort::generate(20, 5);
    let data = Dataset::build(&cohort, &DatasetSpec::default());
    let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("training");
    println!(
        "system trained in quiet conditions on {} sessions\n",
        data.len()
    );

    // Screen held-out patients in progressively noisier rooms.
    let held_out = Cohort::generate(36, 6);
    let patients = &held_out.patients()[20..36];
    println!("{:22} {:>9} {:>12}", "environment", "dB SPL", "accuracy");
    for (room, db) in ROOMS {
        let mut correct = 0usize;
        let mut total = 0usize;
        for patient in patients {
            for day in [0u32, 8, 16, 29] {
                let session = Session::record(
                    patient,
                    day,
                    &SessionConfig {
                        noise_db_spl: db,
                        ..Default::default()
                    },
                    day as u64,
                );
                if let Ok(verdict) = system.screen(&session.recording) {
                    total += 1;
                    if verdict == session.ground_truth {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        println!("{room:22} {db:>9.0} {:>11.1}%", acc * 100.0);
    }
    println!(
        "\npaper's recommendation holds: use EarSonar in a quiet room —\n\
         false rejections grow with ambient level while the system rarely\n\
         invents effusion that is not there."
    );

    // Beyond the paper's confounders: broken captures. Each structured
    // fault corrupts every capture of a session at high severity; the
    // quality-gated retry policy must refuse to guess rather than return
    // a different effusion class.
    println!("\nstructured faults at severity 0.9, every capture corrupted:");
    println!("{:16} {:>28}", "fault", "outcome");
    let patient = &held_out.patients()[0];
    let session = Session::record(patient, 3, &SessionConfig::default(), 11);
    let clean = system
        .screen(&session.recording)
        .expect("clean capture screens");
    for fault in Fault::standard_suite(0.9) {
        let injector = FaultInjector::new(99).with(fault);
        let mut source = FaultySource::new(
            QueueSource::repeating(session.recording.clone(), 4),
            injector,
        );
        let outcome = screen_with_retry(&system, &mut source, &RetryPolicy::default())
            .expect("screening never raises on bad input");
        let line = match outcome {
            ScreeningOutcome::Conclusive(r) => {
                assert_eq!(r.state, clean, "corruption must never flip the class");
                format!("{:?} (confidence {:.2})", r.state, r.confidence)
            }
            ScreeningOutcome::Inconclusive(r) => {
                let why = match r.reason {
                    InconclusiveReason::QuorumNotMet {
                        best_usable,
                        needed,
                    } => {
                        format!("{best_usable}/{needed} usable chirps")
                    }
                    InconclusiveReason::LowConfidence => "confidence too low".into(),
                    InconclusiveReason::NoUsableEcho => "no usable echo".into(),
                    InconclusiveReason::SourceExhausted => "source exhausted".into(),
                };
                format!("INCONCLUSIVE: {why}")
            }
        };
        println!("{:16} {line:>28}", fault.name());
    }
    println!(
        "\nevery fault ends in the clean verdict or an explicit refusal —\n\
         never a different effusion class; see DESIGN.md \"Robustness &\n\
         graceful degradation\"."
    );
}
