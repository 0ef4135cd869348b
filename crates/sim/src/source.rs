//! The simulator as a [`SignalSource`].
//!
//! With the capture boundary in `earsonar-signal`, the simulator is just
//! one backend among several: [`SimulatedEar`] wraps a virtual patient and
//! yields that patient's successive visits as recordings, exactly the way
//! a device driver would yield successive captures. Code written against
//! [`SignalSource`] runs unchanged on simulated ears, WAV files
//! (`earsonar_signal::wav`), or future hardware backends.

use crate::patient::Patient;
use crate::session::{RecordSession, Session, SessionConfig};
use earsonar_signal::effusion::MeeState;
use earsonar_signal::recording::Recording;
use earsonar_signal::source::{SignalError, SignalSource};

/// A [`SignalSource`] producing one virtual patient's visit recordings in
/// chronological order (two visits per study day, like the paper's 8 am /
/// 6 pm schedule).
#[derive(Debug)]
pub struct SimulatedEar {
    patient: Patient,
    config: SessionConfig,
    visits_per_day: u64,
    next_visit: u64,
}

impl SimulatedEar {
    /// Wraps `patient` as a capture source under `config`.
    pub fn new(patient: Patient, config: SessionConfig) -> Self {
        SimulatedEar {
            patient,
            config,
            visits_per_day: 2,
            next_visit: 0,
        }
    }

    /// The study day the next capture falls on.
    pub fn current_day(&self) -> u32 {
        (self.next_visit / self.visits_per_day) as u32
    }

    /// Ground-truth effusion state of the next capture (what a pneumatic
    /// otoscope would read that day). Capture backends on real hardware
    /// have no such oracle — this is the simulator's labelling privilege.
    pub fn ground_truth(&self) -> MeeState {
        self.patient.state_on_day(self.current_day())
    }

    /// Records the next visit as a fully labelled [`Session`].
    pub fn next_session(&mut self) -> Session {
        let day = self.current_day();
        let visit = self.next_visit;
        self.next_visit += 1;
        Session::record(&self.patient, day, &self.config, visit)
    }
}

impl SignalSource for SimulatedEar {
    fn describe(&self) -> String {
        format!(
            "simulated patient {} (day {}, visit {})",
            self.patient.id,
            self.current_day(),
            self.next_visit
        )
    }

    fn capture(&mut self) -> Result<Option<Recording>, SignalError> {
        // A virtual patient can always be measured again; the source
        // never exhausts and never fails.
        Ok(Some(self.next_session().recording))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::Cohort;

    fn ear() -> SimulatedEar {
        let cohort = Cohort::generate(1, 11);
        SimulatedEar::new(cohort.patients()[0].clone(), SessionConfig::default())
    }

    #[test]
    fn captures_advance_through_the_study() {
        let mut src = ear();
        assert_eq!(src.current_day(), 0);
        let a = src.capture().unwrap().unwrap();
        let b = src.capture().unwrap().unwrap();
        assert_eq!(src.current_day(), 1);
        assert!(!a.samples.is_empty());
        // Morning and evening visits differ.
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn captures_match_recorded_sessions_bit_for_bit() {
        let mut src = ear();
        let via_source = src.capture().unwrap().unwrap();
        let cohort = Cohort::generate(1, 11);
        let direct = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0);
        assert_eq!(via_source, direct.recording);
    }

    #[test]
    fn ground_truth_tracks_recovery() {
        let mut src = ear();
        let admitted = src.ground_truth();
        for _ in 0..80 {
            let _ = src.capture().unwrap();
        }
        assert_eq!(src.ground_truth(), MeeState::Clear);
        assert!(admitted.severity() >= MeeState::Clear.severity());
        assert!(src.describe().contains("patient 0"));
    }
}
