//! Everything a workload is fed, generated from `--seed` before any timed
//! operation: simulated cohorts, the trained system, captures encoded as
//! WAV bytes, fault-corrupted captures, and the open-loop arrival
//! schedule. No simulator code runs after set-up.

use crate::stats::Fnv;
use earsonar::screening::{screen_recording_quality, RetryPolicy, ScreeningOutcome};
use earsonar::{EarSonar, EarSonarConfig, MeeState};
use earsonar_dsp::rng::{mix, DetRng};
use earsonar_dsp::wav::parse_wav_f32_into;
use earsonar_signal::recording::{ChirpLayout, Recording};
use earsonar_signal::session::Session;
use earsonar_signal::source::{SignalError, SignalSource};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{representative_days, Dataset, DatasetSpec};
use earsonar_sim::faults::{Fault, FaultInjector};
use earsonar_sim::motion::Motion;
use earsonar_sim::session::SessionConfig;

/// Independent sub-seeds per input family, so changing one family's size
/// never shifts another's draws, and the test cohort never shares a seed
/// with the training cohort.
const TRAIN_STREAM: u64 = 1;
const TEST_STREAM: u64 = 2;
const FAULT_STREAM: u64 = 3;
const ARRIVAL_STREAM: u64 = 4;
const EVAL_STREAM: u64 = 5;

/// Training cohort size: smaller cohorts can fail cluster labelling.
const TRAIN_PATIENTS: usize = 12;
/// Test cohort: four patients per recording condition.
const TEST_PATIENTS: usize = 16;
/// Cohort scored by `train-eval`.
const EVAL_PATIENTS: usize = 32;

/// The paper's §V robustness envelope, one condition per quarter of the
/// test cohort: ambient level in dB SPL and body motion.
const CONDITIONS: [(f64, Motion); 4] = [
    (45.0, Motion::Sit),
    (55.0, Motion::HeadMove),
    (65.0, Motion::Walking),
    (70.0, Motion::Nodding),
];

/// Fault severities swept by `screen-faulty`.
const SEVERITIES: [f64; 3] = [0.3, 0.6, 0.9];

/// The system under test, trained on its own cohort.
pub fn trained_system(seed: u64) -> EarSonar {
    let train_seed = mix(seed, TRAIN_STREAM);
    let data = Dataset::build(
        &Cohort::generate(TRAIN_PATIENTS, train_seed),
        &DatasetSpec {
            seed: train_seed,
            ..DatasetSpec::default()
        },
    );
    EarSonar::fit(&data.sessions, &EarSonarConfig::default())
        .expect("training the system under test")
}

/// The first `n` patients of a seeded draw whose course passes all four
/// effusion stages, so that every seed yields the same design — 2 sessions
/// per stage, 8 per patient — and the same amount of work. A cohort drawn
/// as-is varies by about 10% in sessions from seed to seed.
fn four_stage_cohort(n: usize, seed: u64) -> Cohort {
    // About three patients in four pass all four stages.
    let candidates = Cohort::generate(n * 3, seed);
    let ids: Vec<usize> = candidates
        .patients()
        .iter()
        .filter(|p| representative_days(p).len() == MeeState::COUNT)
        .map(|p| p.id)
        .take(n)
        .collect();
    assert_eq!(ids.len(), n, "too few four-stage patients in the draw");
    candidates.subset(&ids)
}

/// The 16-patient test cohort, 4 stages x 2 sessions, each quarter of the
/// patients recorded under one condition of the §V envelope.
pub fn test_sessions(seed: u64) -> Vec<Session> {
    let test_seed = mix(seed, TEST_STREAM);
    let cohort = four_stage_cohort(TEST_PATIENTS, test_seed);
    let per_group = TEST_PATIENTS / CONDITIONS.len();
    let mut out = Vec::new();
    for (group, &(noise_db_spl, motion)) in cohort.patients().chunks(per_group).zip(&CONDITIONS) {
        let ids: Vec<usize> = group.iter().map(|p| p.id).collect();
        let spec = DatasetSpec {
            sessions_per_state: 2,
            config: SessionConfig {
                noise_db_spl,
                motion,
                ..SessionConfig::default()
            },
            seed: test_seed,
        };
        out.extend(Dataset::build(&cohort.subset(&ids), &spec).sessions);
    }
    out
}

/// The 32-patient cohort `train-eval` cross-validates: 32 folds of 8
/// sessions.
pub fn eval_sessions(seed: u64) -> Vec<Session> {
    let eval_seed = mix(seed, EVAL_STREAM);
    Dataset::build(
        &four_stage_cohort(EVAL_PATIENTS, eval_seed),
        &DatasetSpec {
            seed: eval_seed,
            ..DatasetSpec::default()
        },
    )
    .sessions
}

/// Encodes a recording as a mono PCM16 WAV file image, the format an
/// earphone capture reaches the phone in.
pub fn encode_wav_pcm16(rec: &Recording) -> Vec<u8> {
    let data_len = u32::try_from(rec.samples.len() * 2).expect("capture fits a WAV file");
    let rate = rec.sample_rate as u32;
    let mut out = Vec::with_capacity(44 + data_len as usize);
    out.extend_from_slice(b"RIFF");
    out.extend_from_slice(&(36 + data_len).to_le_bytes());
    out.extend_from_slice(b"WAVEfmt ");
    out.extend_from_slice(&16u32.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // PCM
    out.extend_from_slice(&1u16.to_le_bytes()); // mono
    out.extend_from_slice(&rate.to_le_bytes());
    out.extend_from_slice(&(rate * 2).to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&16u16.to_le_bytes());
    out.extend_from_slice(b"data");
    out.extend_from_slice(&data_len.to_le_bytes());
    for &s in &rec.samples {
        let v = (s.clamp(-1.0, 1.0) * 32_767.0).round() as i16;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a WAV capture held in memory onto the chirp layout, reusing
/// `pcm` across calls — the product's fused PCM16 decode plus framing.
pub fn decode_capture(
    bytes: &[u8],
    layout: &ChirpLayout,
    pcm: &mut Vec<f32>,
) -> Result<Recording, String> {
    let rate = parse_wav_f32_into(bytes, pcm).map_err(|e| format!("{e:?}"))?;
    if f64::from(rate) != layout.sample_rate {
        return Err(format!(
            "capture rate {rate} Hz, layout {} Hz",
            layout.sample_rate
        ));
    }
    let mut samples = Vec::with_capacity(pcm.len());
    samples.extend(pcm.iter().map(|&v| f64::from(v)));
    layout
        .frame(samples)
        .ok_or_else(|| "capture shorter than one chirp".to_string())
}

/// One capture as `screen-clean` receives it.
pub struct WavCapture {
    pub bytes: Vec<u8>,
    pub layout: ChirpLayout,
    pub truth: MeeState,
    /// Sequential `screen_recording_quality` on the decoded capture.
    pub reference: ScreeningOutcome,
}

/// Screening inputs shared by the three screening workloads.
pub struct ScreenInputs {
    pub system: EarSonar,
    pub sessions: Vec<Session>,
}

impl ScreenInputs {
    pub fn generate(seed: u64) -> ScreenInputs {
        ScreenInputs {
            system: trained_system(seed),
            sessions: test_sessions(seed),
        }
    }

    /// Every test session as a WAV capture with its sequential reference.
    pub fn wav_captures(&self, policy: &RetryPolicy) -> Vec<WavCapture> {
        let mut pcm = Vec::new();
        self.sessions
            .iter()
            .map(|s| {
                let bytes = encode_wav_pcm16(&s.recording);
                let layout = s.recording.layout();
                let decoded =
                    decode_capture(&bytes, &layout, &mut pcm).expect("set-up capture decodes");
                WavCapture {
                    reference: reference_outcome(&self.system, &decoded, policy),
                    bytes,
                    layout,
                    truth: s.ground_truth,
                }
            })
            .collect()
    }
}

pub fn reference_outcome(
    system: &EarSonar,
    rec: &Recording,
    policy: &RetryPolicy,
) -> ScreeningOutcome {
    screen_recording_quality(system, rec, policy).expect("sequential reference screening")
}

/// One `screen-faulty` session: the captures a retrying screener will
/// take, already corrupted.
pub struct FaultyCase {
    pub captures: Vec<Recording>,
    pub truth: MeeState,
}

/// Corrupts every test session with one fault kind of the standard suite
/// at one of three severities. Even sessions have only their first capture
/// corrupted (retry can recover); odd ones have every attempt corrupted.
pub fn faulty_cases(seed: u64, sessions: &[Session], attempts: usize) -> Vec<FaultyCase> {
    let fault_seed = mix(seed, FAULT_STREAM);
    sessions
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let kind = (j / 2) % 7;
            let severity = SEVERITIES[(j / 14) % SEVERITIES.len()];
            let fault = Fault::standard_suite(severity)[kind];
            let every_attempt = j % 2 == 1;
            let injector = FaultInjector::new(mix(fault_seed, j as u64)).with(fault);
            let captures = (0..attempts)
                .map(|a| {
                    let mut rec = s.recording.clone();
                    if a == 0 || every_attempt {
                        injector.apply_capture(&mut rec, a as u64);
                    }
                    rec
                })
                .collect();
            FaultyCase {
                captures,
                truth: s.ground_truth,
            }
        })
        .collect()
}

/// A [`SignalSource`] replaying captures prepared in set-up.
pub struct Replay<'a> {
    captures: &'a [Recording],
    next: usize,
}

impl<'a> Replay<'a> {
    pub fn new(captures: &'a [Recording]) -> Self {
        Replay { captures, next: 0 }
    }
}

impl SignalSource for Replay<'_> {
    fn describe(&self) -> String {
        format!("replay of {} captures", self.captures.len())
    }

    fn capture(&mut self) -> Result<Option<Recording>, SignalError> {
        let rec = self.captures.get(self.next).cloned();
        self.next += 1;
        Ok(rec)
    }
}

/// Open-loop arrival times (ns from the start of the run) of a Poisson
/// process at `rate` per second up to `horizon_ns`, each with the index of
/// the capture the session streams. The draw sequence depends only on the
/// seed, so a longer horizon extends the schedule without changing its
/// prefix.
pub fn poisson_arrivals(
    seed: u64,
    rate: f64,
    horizon_ns: u64,
    captures: usize,
) -> Vec<(u64, usize)> {
    let mut rng = DetRng::seed_from_u64(mix(seed, ARRIVAL_STREAM));
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -rng.next_f64_open().ln() / rate * 1e9;
        let pick = rng.below(captures);
        if t >= horizon_ns as f64 {
            return out;
        }
        out.push((t as u64, pick));
    }
}

/// Digest of the recordings a workload is fed (the simulator's output).
pub fn digest_recordings<'a>(recs: impl IntoIterator<Item = &'a Recording>) -> u64 {
    let mut h = Fnv::default();
    for r in recs {
        h.u64(r.samples.len() as u64);
        h.samples(&r.samples);
    }
    h.finish()
}

/// The decision-relevant part of a screening outcome: conclusive or not,
/// the state or the reason, attempts, and chirp acceptance counts. Raw
/// float scores are left out so that a change that moves a quality score
/// by an ulp, without changing any decision, keeps the pinned digest.
pub fn outcome_key(o: &ScreeningOutcome) -> String {
    match o {
        ScreeningOutcome::Conclusive(r) => format!(
            "C {:?} attempts={} accepted={}/{} rejected={}",
            r.state,
            r.attempts,
            r.quality.chirps_accepted,
            r.quality.chirps_pushed,
            r.quality.rejections.summary()
        ),
        ScreeningOutcome::Inconclusive(r) => format!(
            "I {:?} attempts={} accepted={}",
            r.reason,
            r.attempts,
            r.quality
                .map(|q| format!("{}/{}", q.chirps_accepted, q.chirps_pushed))
                .unwrap_or_default()
        ),
    }
}

/// Digest over an ordered list of outcome keys.
pub fn digest_keys<I: IntoIterator<Item = String>>(keys: I) -> u64 {
    let mut h = Fnv::default();
    for k in keys {
        h.bytes(k.as_bytes());
        h.bytes(b"\n");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_with_the_offered_mean_rate() {
        let horizon = 50_000_000_000; // 50 s
        let a = poisson_arrivals(7, 400.0, horizon, 10);
        let b = poisson_arrivals(7, 400.0, horizon, 10);
        assert_eq!(a, b);
        assert_ne!(a, poisson_arrivals(8, 400.0, horizon, 10));
        // 20 000 expected arrivals; a 3-sigma band is ±424.
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 400.0).abs() < 9.0, "mean rate {rate}/s");
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, c)| t < horizon && c < 10));
        // A shorter horizon is a prefix of the longer schedule.
        let short = poisson_arrivals(7, 400.0, horizon / 5, 10);
        assert_eq!(&a[..short.len()], &short[..]);
    }

    #[test]
    fn wav_round_trip_is_exact_at_pcm16_resolution() {
        let rec = Recording {
            samples: vec![0.0, 0.5, -0.5, 1.0, -1.0, 0.25],
            sample_rate: 48_000.0,
            chirp_hop: 2,
            n_chirps: 3,
            chirp_len: 1,
        };
        let bytes = encode_wav_pcm16(&rec);
        assert_eq!(bytes.len(), 44 + 12);
        let mut pcm = Vec::new();
        let back = decode_capture(&bytes, &rec.layout(), &mut pcm).unwrap();
        assert_eq!(back.n_chirps, 3);
        for (a, b) in rec.samples.iter().zip(&back.samples) {
            assert!((a - b).abs() <= 1.0 / 32_767.0, "{a} vs {b}");
        }
        let wrong_rate = ChirpLayout {
            sample_rate: 44_100.0,
            ..rec.layout()
        };
        assert!(decode_capture(&bytes, &wrong_rate, &mut pcm).is_err());
    }
}
