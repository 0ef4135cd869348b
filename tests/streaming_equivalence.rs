//! Streaming ≡ batch: the incremental front end must produce bit-identical
//! results to `FrontEnd::process` — same features, same spectrum, same
//! echoes, same diagnostics — no matter how the sample stream is chunked
//! on the way in.

use earsonar::pipeline::FrontEnd;
use earsonar::streaming::ChirpStream;
use earsonar::{EarSonar, EarSonarError};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;
use earsonar_suite::{config, small_dataset};

fn front_end() -> FrontEnd {
    FrontEnd::new(&config()).expect("front end")
}

fn assert_identical(
    batch: &earsonar::pipeline::ProcessedRecording,
    streamed: &earsonar::pipeline::ProcessedRecording,
    label: &str,
) {
    assert_eq!(batch.features, streamed.features, "{label}: features");
    assert_eq!(batch.spectrum, streamed.spectrum, "{label}: spectrum");
    assert_eq!(batch.echoes, streamed.echoes, "{label}: echoes");
    assert_eq!(
        batch.chirps_used, streamed.chirps_used,
        "{label}: chirps_used"
    );
    assert_eq!(
        batch.diagnostics, streamed.diagnostics,
        "{label}: diagnostics"
    );
}

#[test]
fn chirp_by_chirp_push_is_bit_identical_to_batch() {
    let fe = front_end();
    let data = small_dataset(2);
    for (i, s) in data.sessions.iter().enumerate() {
        let batch = fe.process(&s.recording).expect("batch");
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        for c in 0..s.recording.n_chirps {
            stream
                .push_chirp_with(&fe, &mut scratch, s.recording.chirp_window(c))
                .unwrap();
        }
        let streamed = stream.finish_with(&fe, &mut scratch).expect("stream");
        assert_identical(&batch, &streamed, &format!("session {i}"));
    }
}

#[test]
fn every_chunk_granularity_is_bit_identical() {
    let fe = front_end();
    let data = small_dataset(1);
    let rec = &data.sessions[0].recording;
    let batch = fe.process(rec).expect("batch");
    let whole = rec.samples.len();
    for granularity in [1usize, 7, 239, 240, 241, 1000, whole] {
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        for chunk in rec.samples.chunks(granularity) {
            stream.push_samples_with(&fe, &mut scratch, chunk).unwrap();
        }
        assert_eq!(
            stream.diagnostics().chirps_pushed,
            rec.n_chirps,
            "chunk {granularity}"
        );
        let streamed = stream.finish_with(&fe, &mut scratch).expect("stream");
        assert_identical(&batch, &streamed, &format!("chunk size {granularity}"));
    }
}

#[test]
fn recordings_with_failed_chirps_stay_equivalent() {
    let fe = front_end();
    let data = small_dataset(1);
    let mut rec = data.sessions[0].recording.clone();
    // Kill a few chirps outright (dropped buffers / occluded mic): those
    // windows must be skipped identically by both paths.
    let hop = rec.chirp_hop;
    for dead in [2usize, 5, 11] {
        for v in &mut rec.samples[dead * hop..(dead + 1) * hop] {
            *v = 0.0;
        }
    }
    let batch = fe.process(&rec).expect("batch");
    assert!(
        batch.chirps_used < rec.n_chirps,
        "zeroed chirps should not contribute ({} of {})",
        batch.chirps_used,
        rec.n_chirps
    );
    assert!(batch.diagnostics.events_detected < batch.diagnostics.chirps_pushed);

    for granularity in [1usize, 240, 517] {
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        for chunk in rec.samples.chunks(granularity) {
            stream.push_samples_with(&fe, &mut scratch, chunk).unwrap();
        }
        let streamed = stream.finish_with(&fe, &mut scratch).expect("stream");
        assert_identical(
            &batch,
            &streamed,
            &format!("failed chirps, chunk {granularity}"),
        );
    }
}

#[test]
fn streaming_verdict_matches_batch_screening() {
    let data = small_dataset(4);
    let system = EarSonar::fit(&data.sessions, &config()).expect("fit");
    for s in data.sessions.iter().take(6) {
        let batch_verdict = system.screen(&s.recording).expect("screen");
        let fe = system.front_end();
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(fe);
        stream
            .push_samples_with(fe, &mut scratch, &s.recording.samples)
            .unwrap();
        let processed = stream.finish_with(fe, &mut scratch).expect("finish");
        let streamed_verdict = system.classify(&processed).expect("classify");
        assert_eq!(batch_verdict, streamed_verdict);
    }
}

#[test]
fn early_finish_still_produces_a_verdict() {
    let data = small_dataset(4);
    let system = EarSonar::fit(&data.sessions, &config()).expect("fit");
    let rec = &data.sessions[0].recording;
    let fe = system.front_end();
    let mut scratch = DspScratch::new();
    let mut stream = ChirpStream::new(fe);
    for c in 0..rec.n_chirps {
        stream
            .push_chirp_with(fe, &mut scratch, rec.chirp_window(c))
            .unwrap();
        if stream.chirps_used() >= 8 {
            break;
        }
    }
    assert!(
        stream.diagnostics().chirps_pushed < rec.n_chirps,
        "no early finish"
    );
    let processed = stream.finish_with(fe, &mut scratch).expect("finish");
    assert!(processed.chirps_used >= 8);
    assert!(system.classify(&processed).is_ok());
}

#[test]
fn silent_stream_reports_no_echo_with_full_diagnostics() {
    let fe = front_end();
    let hop = config().chirp_hop;
    let rec = Recording {
        samples: vec![0.0; hop * 8],
        sample_rate: config().sample_rate,
        chirp_hop: hop,
        n_chirps: 8,
        chirp_len: config().chirp_len,
    };
    // Batch and streaming agree on the failure mode too.
    assert!(matches!(
        fe.process(&rec),
        Err(EarSonarError::NoEchoDetected)
    ));
    let mut scratch = DspScratch::new();
    let mut stream = ChirpStream::new(&fe);
    stream
        .push_samples_with(&fe, &mut scratch, &rec.samples)
        .unwrap();
    assert_eq!(stream.diagnostics().chirps_pushed, 8);
    assert_eq!(stream.chirps_used(), 0);
    assert!(matches!(
        stream.finish_with(&fe, &mut scratch),
        Err(EarSonarError::NoEchoDetected)
    ));
}
