//! Recording labelled sessions from virtual patients.
//!
//! The study collected "acoustic data for 10 s … every time at 8 am and
//! 6 pm each day" for each participant (paper §VI-A). The [`Session`]
//! struct itself is capture-agnostic and lives in `earsonar-signal`; this
//! module provides the simulator's way of producing one — synthesizing a
//! visit's recording for a virtual patient and attaching the patient
//! model's state on that day as the "pneumatic otoscope" ground truth.

use crate::patient::Patient;
use crate::recorder::synthesize_recording;
use crate::rng::SimRng;

pub use crate::recorder::RecorderConfig as SessionConfig;
pub use earsonar_signal::session::Session;

/// Simulator-side constructors for [`Session`]: import this trait to call
/// `Session::record(...)`.
pub trait RecordSession {
    /// Records a session for `patient` on `day` under `config`.
    ///
    /// `visit_seed` distinguishes multiple sessions of the same patient and
    /// day (morning vs evening); the patient's own seed is mixed in so the
    /// same `(patient, day, visit_seed)` always reproduces the capture.
    fn record(patient: &Patient, day: u32, config: &SessionConfig, visit_seed: u64) -> Session;
}

impl RecordSession for Session {
    fn record(patient: &Patient, day: u32, config: &SessionConfig, visit_seed: u64) -> Session {
        let mut rng = SimRng::seed_from_u64(
            patient
                .seed
                .wrapping_add((day as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(visit_seed.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        let ground_truth = patient.state_on_day(day);
        let response = patient.eardrum_response_on_day(day, &mut rng);
        let recording = synthesize_recording(&patient.ear, &response, config, &mut rng);
        Session {
            patient_id: patient.id,
            day,
            recording,
            ground_truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::Cohort;
    use crate::effusion::MeeState;

    #[test]
    fn session_carries_ground_truth_of_the_day() {
        let cohort = Cohort::generate(4, 1);
        let p = &cohort.patients()[0];
        let cfg = SessionConfig::default();
        let early = Session::record(p, 0, &cfg, 0);
        let late = Session::record(p, 29, &cfg, 0);
        assert_eq!(early.ground_truth, p.state_on_day(0));
        assert_eq!(late.ground_truth, MeeState::Clear);
        assert_eq!(early.patient_id, p.id);
    }

    #[test]
    fn sessions_are_deterministic_per_visit() {
        let cohort = Cohort::generate(2, 3);
        let p = &cohort.patients()[1];
        let cfg = SessionConfig::default();
        let a = Session::record(p, 5, &cfg, 7);
        let b = Session::record(p, 5, &cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_visits_differ() {
        let cohort = Cohort::generate(2, 3);
        let p = &cohort.patients()[0];
        let cfg = SessionConfig::default();
        let morning = Session::record(p, 5, &cfg, 0);
        let evening = Session::record(p, 5, &cfg, 1);
        assert_ne!(morning.recording.samples, evening.recording.samples);
        assert_eq!(morning.ground_truth, evening.ground_truth);
    }
}
