//! Structured, deterministic fault injection for recordings and sources.
//!
//! The paper's robustness study (§V) stresses the pipeline with ambient
//! noise, wearing-angle error, and motion; real deployments add a second
//! family of failures the clinical study never sees: converter clipping,
//! dropped capture buffers, burst interference, DC-biased microphones,
//! an earbud pulled mid-session, a capture cut short. Each of those is a
//! [`Fault`] here — a reusable, parameterized corruption primitive that
//! can hit any [`Recording`] directly or wrap any
//! [`SignalSource`] via [`FaultySource`].
//!
//! Every injector is seeded and deterministic: the same `(fault, seed,
//! recording)` triple corrupts bit-identically. Random draws never depend
//! on the severity — severity only scales amplitudes or thresholds over a
//! fixed draw sequence — so raising the severity at a fixed seed produces
//! a *nested* corruption: everything corrupted at severity `s` is at least
//! as corrupted at `s' > s`. The quality-gate monotonicity property test
//! (`tests/quality_monotonicity.rs`) rests on that nesting.

use crate::rng::{mix, SimRng};
use earsonar_signal::recording::Recording;
use earsonar_signal::source::{SignalError, SignalSource};

/// Fraction of a burst-noise chirp window the burst occupies.
const BURST_SPAN: f64 = 0.5;
/// Chance that a given chirp window carries a burst (membership is drawn
/// once per chirp from the seed, independent of severity).
const BURST_CHANCE: f64 = 0.5;
/// Ambient-noise amplitude, relative to the signal peak, heard once the
/// earbud has left the ear.
const OUT_OF_EAR_AMBIENT: f64 = 0.02;

/// One parameterized corruption primitive.
///
/// `severity` runs over `[0, 1]` (clamped on application): `0.0` leaves
/// the recording untouched, `1.0` is the worst case the fault models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Converter saturation: samples are clamped to a rail that drops from
    /// the signal peak toward (almost) zero as severity rises.
    HardClip {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// Analog-style saturation: a `tanh` drive that compresses peaks
    /// smoothly; severity sets the drive.
    SoftClip {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// Dropped capture buffers: whole chirp windows zeroed. Severity is
    /// the expected fraction of dropped windows; which windows drop is a
    /// fixed per-seed draw, so higher severity drops a superset.
    Dropout {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// Impulsive interference: loud noise bursts over half of a fixed
    /// subset of chirp windows; severity scales the burst amplitude.
    BurstNoise {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// Microphone bias: a constant offset of up to twice the signal peak.
    DcOffset {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// The earbud leaves the ear mid-session: the trailing `severity`
    /// fraction of the capture is replaced by faint ambient noise.
    EarbudRemoval {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
    /// The capture stops early: only the leading `1 - severity` fraction
    /// of the chirp windows survives (never fewer than one).
    Truncation {
        /// Corruption strength in `[0, 1]`.
        severity: f64,
    },
}

impl Fault {
    /// A short stable name for reports and test labels.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::HardClip { .. } => "hard-clip",
            Fault::SoftClip { .. } => "soft-clip",
            Fault::Dropout { .. } => "dropout",
            Fault::BurstNoise { .. } => "burst-noise",
            Fault::DcOffset { .. } => "dc-offset",
            Fault::EarbudRemoval { .. } => "earbud-removal",
            Fault::Truncation { .. } => "truncation",
        }
    }

    /// The corruption strength, clamped to `[0, 1]`.
    pub fn severity(&self) -> f64 {
        let s = match *self {
            Fault::HardClip { severity }
            | Fault::SoftClip { severity }
            | Fault::Dropout { severity }
            | Fault::BurstNoise { severity }
            | Fault::DcOffset { severity }
            | Fault::EarbudRemoval { severity }
            | Fault::Truncation { severity } => severity,
        };
        s.clamp(0.0, 1.0)
    }

    /// The same fault kind at a different severity.
    pub fn with_severity(self, severity: f64) -> Fault {
        match self {
            Fault::HardClip { .. } => Fault::HardClip { severity },
            Fault::SoftClip { .. } => Fault::SoftClip { severity },
            Fault::Dropout { .. } => Fault::Dropout { severity },
            Fault::BurstNoise { .. } => Fault::BurstNoise { severity },
            Fault::DcOffset { .. } => Fault::DcOffset { severity },
            Fault::EarbudRemoval { .. } => Fault::EarbudRemoval { severity },
            Fault::Truncation { .. } => Fault::Truncation { severity },
        }
    }

    /// One of every fault kind at the given severity — the sweep the
    /// failure-injection tests and the robustness example run.
    pub fn standard_suite(severity: f64) -> Vec<Fault> {
        vec![
            Fault::HardClip { severity },
            Fault::SoftClip { severity },
            Fault::Dropout { severity },
            Fault::BurstNoise { severity },
            Fault::DcOffset { severity },
            Fault::EarbudRemoval { severity },
            Fault::Truncation { severity },
        ]
    }

    /// Corrupts `recording` in place, deterministically from `seed`.
    ///
    /// A severity of `0.0` (or below) is a guaranteed no-op for every
    /// fault kind.
    pub fn apply(&self, recording: &mut Recording, seed: u64) {
        let severity = self.severity();
        if severity <= 0.0 || recording.samples.is_empty() {
            return;
        }
        // Per-kind stream labels keep a multi-fault plan's draws
        // independent of the order the faults are listed in.
        let mut rng = SimRng::seed_from_u64(mix(seed, self.kind_tag()));
        let peak = recording
            .samples
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        // Reference scale for amplitude-based faults; a silent capture
        // still gets a visible DC shift / ambient floor.
        let scale = peak.max(1e-6);
        match *self {
            Fault::HardClip { .. } => {
                let rail = scale * (1.0 - 0.95 * severity);
                for x in &mut recording.samples {
                    *x = x.clamp(-rail, rail);
                }
            }
            Fault::SoftClip { .. } => {
                // y = peak·tanh(d·x/peak)/tanh(d): identity as d → 0,
                // increasingly brick-walled as the drive rises.
                let drive = 8.0 * severity;
                let norm = scale / drive.tanh();
                for x in &mut recording.samples {
                    *x = norm * (drive * *x / scale).tanh();
                }
            }
            Fault::Dropout { .. } => {
                for c in 0..recording.n_chirps {
                    let u = rng.uniform(0.0, 1.0);
                    let dropped = u < severity;
                    let hop = recording.chirp_hop;
                    let start = c * hop;
                    if !dropped || start >= recording.samples.len() {
                        continue;
                    }
                    let end = (start + hop).min(recording.samples.len());
                    for x in &mut recording.samples[start..end] {
                        *x = 0.0;
                    }
                }
            }
            Fault::BurstNoise { .. } => {
                let amp = 3.0 * scale * severity;
                let hop = recording.chirp_hop.max(1);
                let span = ((hop as f64 * BURST_SPAN) as usize).max(1);
                for c in 0..recording.n_chirps {
                    // Membership, offset, and noise are all drawn for every
                    // chirp so the draw stream never depends on severity.
                    let hit = rng.uniform(0.0, 1.0) < BURST_CHANCE;
                    let offset = rng.uniform_usize(0, hop.saturating_sub(span).max(1));
                    let start = c * hop + offset;
                    for i in 0..span {
                        let g = rng.standard_gaussian();
                        if let Some(x) = recording.samples.get_mut(start + i).filter(|_| hit) {
                            *x += amp * g;
                        }
                    }
                }
            }
            Fault::DcOffset { .. } => {
                let offset = 2.0 * scale * severity;
                for x in &mut recording.samples {
                    *x += offset;
                }
            }
            Fault::EarbudRemoval { .. } => {
                let len = recording.samples.len();
                let cut = len - ((len as f64 * severity) as usize).min(len);
                let ambient = OUT_OF_EAR_AMBIENT * scale;
                // One gaussian per index, drawn unconditionally: the noise
                // heard at sample `i` is the same at every severity; only
                // the cut point moves.
                for i in 0..len {
                    let g = rng.standard_gaussian();
                    if i >= cut {
                        recording.samples[i] = ambient * g;
                    }
                }
            }
            Fault::Truncation { .. } => {
                let hop = recording.chirp_hop.max(1);
                let keep_samples = (recording.samples.len() as f64 * (1.0 - severity)) as usize;
                let keep_chirps = (keep_samples / hop).clamp(1, recording.n_chirps.max(1));
                recording.samples.truncate(keep_chirps * hop);
                recording.n_chirps = keep_chirps;
            }
        }
    }

    /// Stream label separating this kind's draws from the other kinds'.
    fn kind_tag(&self) -> u64 {
        match self {
            Fault::HardClip { .. } => 0x11,
            Fault::SoftClip { .. } => 0x22,
            Fault::Dropout { .. } => 0x33,
            Fault::BurstNoise { .. } => 0x44,
            Fault::DcOffset { .. } => 0x55,
            Fault::EarbudRemoval { .. } => 0x66,
            Fault::Truncation { .. } => 0x77,
        }
    }
}

/// A composable corruption plan: an ordered list of faults applied to a
/// recording under one seed.
///
/// # Example
///
/// ```
/// use earsonar_sim::cohort::Cohort;
/// use earsonar_sim::faults::{Fault, FaultInjector};
/// use earsonar_sim::session::{RecordSession, Session, SessionConfig};
///
/// let cohort = Cohort::generate(1, 7);
/// let mut rec = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0)
///     .recording;
/// let injector = FaultInjector::new(42)
///     .with(Fault::HardClip { severity: 0.8 })
///     .with(Fault::Dropout { severity: 0.3 });
/// injector.apply(&mut rec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    faults: Vec<Fault>,
    seed: u64,
}

impl FaultInjector {
    /// An empty plan drawing from `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            faults: Vec::new(),
            seed,
        }
    }

    /// Adds a fault to the plan (applied in insertion order).
    pub fn with(mut self, fault: Fault) -> FaultInjector {
        self.faults.push(fault);
        self
    }

    /// The planned faults, in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Returns `true` when the plan corrupts nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies the whole plan to one recording (capture index 0).
    pub fn apply(&self, recording: &mut Recording) {
        self.apply_capture(recording, 0);
    }

    /// Applies the plan to the `capture`-th recording of a source stream:
    /// each capture gets independent draws, each deterministic.
    pub fn apply_capture(&self, recording: &mut Recording, capture: u64) {
        let capture_seed = mix(self.seed, capture.wrapping_add(1));
        for (i, fault) in self.faults.iter().enumerate() {
            fault.apply(recording, mix(capture_seed, i as u64));
        }
    }
}

/// A [`SignalSource`] decorator corrupting captured recordings on the way
/// out — the harness for testing quality gating and retry policies against
/// any backend (simulated ear, WAV queue, device).
///
/// By default every capture is corrupted; [`FaultySource::corrupt_first`]
/// limits corruption to the first `n` captures so a bounded re-measurement
/// policy can recover on a later clean attempt.
#[derive(Debug, Clone)]
pub struct FaultySource<S> {
    inner: S,
    injector: FaultInjector,
    corrupt_limit: Option<u64>,
    captures: u64,
}

impl<S: SignalSource> FaultySource<S> {
    /// Wraps `inner`, corrupting every capture with `injector`.
    pub fn new(inner: S, injector: FaultInjector) -> FaultySource<S> {
        FaultySource {
            inner,
            injector,
            corrupt_limit: None,
            captures: 0,
        }
    }

    /// Wraps `inner`, corrupting only the first `n` captures — later
    /// captures pass through clean.
    pub fn corrupt_first(inner: S, injector: FaultInjector, n: usize) -> FaultySource<S> {
        FaultySource {
            inner,
            injector,
            corrupt_limit: Some(n as u64),
            captures: 0,
        }
    }

    /// How many captures have been taken through this wrapper.
    pub fn captures(&self) -> u64 {
        self.captures
    }
}

impl<S: SignalSource> SignalSource for FaultySource<S> {
    fn describe(&self) -> String {
        format!(
            "{} (+{} fault{})",
            self.inner.describe(),
            self.injector.faults().len(),
            if self.injector.faults().len() == 1 {
                ""
            } else {
                "s"
            }
        )
    }

    fn capture(&mut self) -> Result<Option<Recording>, SignalError> {
        let index = self.captures;
        let mut recording = match self.inner.capture()? {
            Some(r) => r,
            None => return Ok(None),
        };
        self.captures += 1;
        let corrupt = match self.corrupt_limit {
            None => true,
            Some(limit) => index < limit,
        };
        if corrupt {
            self.injector.apply_capture(&mut recording, index);
        }
        Ok(Some(recording))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::Cohort;
    use crate::session::{RecordSession, Session, SessionConfig};
    use crate::source::SimulatedEar;

    fn clean() -> Recording {
        let cohort = Cohort::generate(1, 19);
        Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0).recording
    }

    #[test]
    fn zero_severity_is_a_no_op_for_every_kind() {
        let rec = clean();
        for fault in Fault::standard_suite(0.0) {
            let mut corrupted = rec.clone();
            fault.apply(&mut corrupted, 5);
            assert_eq!(corrupted, rec, "{} at severity 0", fault.name());
        }
    }

    #[test]
    fn application_is_deterministic() {
        let rec = clean();
        for fault in Fault::standard_suite(0.6) {
            let mut a = rec.clone();
            let mut b = rec.clone();
            fault.apply(&mut a, 77);
            fault.apply(&mut b, 77);
            assert_eq!(a, b, "{}", fault.name());
            let mut c = rec.clone();
            fault.apply(&mut c, 78);
            if matches!(
                fault,
                Fault::Dropout { .. } | Fault::BurstNoise { .. } | Fault::EarbudRemoval { .. }
            ) {
                assert_ne!(a, c, "{} ignores its seed", fault.name());
            }
        }
    }

    #[test]
    fn every_kind_actually_corrupts_at_high_severity() {
        let rec = clean();
        for fault in Fault::standard_suite(0.9) {
            let mut corrupted = rec.clone();
            fault.apply(&mut corrupted, 3);
            assert_ne!(corrupted, rec, "{} left the recording intact", fault.name());
        }
    }

    #[test]
    fn hard_clip_bounds_the_samples() {
        let mut rec = clean();
        let peak = rec.samples.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        Fault::HardClip { severity: 0.8 }.apply(&mut rec, 1);
        let rail = peak * (1.0 - 0.95 * 0.8) + 1e-12;
        assert!(rec.samples.iter().all(|x| x.abs() <= rail));
    }

    #[test]
    fn dropout_zeroes_nested_chirp_sets() {
        let rec = clean();
        let dropped_at = |sev: f64| -> Vec<usize> {
            let mut r = rec.clone();
            Fault::Dropout { severity: sev }.apply(&mut r, 9);
            (0..r.n_chirps)
                .filter(|&c| r.chirp_window(c).iter().all(|&x| x == 0.0))
                .collect()
        };
        let low = dropped_at(0.3);
        let high = dropped_at(0.8);
        assert!(!high.is_empty());
        for c in &low {
            assert!(high.contains(c), "chirp {c} dropped at 0.3 but not 0.8");
        }
        assert!(high.len() >= low.len());
    }

    #[test]
    fn truncation_keeps_a_whole_chirp_grid() {
        let mut rec = clean();
        let hop = rec.chirp_hop;
        Fault::Truncation { severity: 0.7 }.apply(&mut rec, 2);
        assert_eq!(rec.samples.len(), rec.n_chirps * hop);
        assert!(rec.n_chirps >= 1);
        let mut worst = clean();
        Fault::Truncation { severity: 1.0 }.apply(&mut worst, 2);
        assert_eq!(worst.n_chirps, 1);
    }

    #[test]
    fn earbud_removal_replaces_the_tail() {
        let rec = clean();
        let mut corrupted = rec.clone();
        Fault::EarbudRemoval { severity: 0.5 }.apply(&mut corrupted, 4);
        let cut = rec.samples.len() - rec.samples.len() / 2;
        assert_eq!(&corrupted.samples[..cut], &rec.samples[..cut]);
        let peak = rec.samples.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let tail_peak = corrupted.samples[cut..]
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(tail_peak < peak * 0.2, "tail still carries signal");
    }

    #[test]
    fn faulty_source_corrupts_then_recovers() {
        let cohort = Cohort::generate(1, 23);
        let ear = SimulatedEar::new(cohort.patients()[0].clone(), SessionConfig::default());
        let injector = FaultInjector::new(6).with(Fault::Dropout { severity: 1.0 });
        let mut source = FaultySource::corrupt_first(ear, injector, 1);
        assert!(source.describe().contains("fault"));
        let first = source.capture().unwrap().unwrap();
        assert!(
            first.samples.iter().all(|&x| x == 0.0),
            "first capture clean"
        );
        let second = source.capture().unwrap().unwrap();
        assert!(
            second.samples.iter().any(|&x| x != 0.0),
            "second capture corrupted"
        );
        assert_eq!(source.captures(), 2);
    }

    #[test]
    fn injector_plans_compose() {
        let rec = clean();
        let mut both = rec.clone();
        FaultInjector::new(8)
            .with(Fault::DcOffset { severity: 0.5 })
            .with(Fault::HardClip { severity: 0.5 })
            .apply(&mut both);
        assert_ne!(both, rec);
        assert!(FaultInjector::new(8).is_empty());
    }
}
