//! Virtual patients with a recovery trajectory.
//!
//! The clinical study "followed participants from diagnosis to full
//! recovery (hospital discharge)" for at least 20 days (paper §V), during
//! which "the middle ear effusion will last for 2–3 weeks" and the signal
//! patterns "gradually return to normal levels" (§IV-C-1, Fig. 10). Each
//! virtual patient carries a per-person ear geometry, a personal dip-centre
//! frequency, and a staged recovery schedule Purulent → Mucoid → Serous →
//! Clear.

use crate::ear::EarCanal;
use crate::effusion::{MeeAcoustics, MeeState};
use crate::rng::SimRng;
use earsonar_acoustics::absorption::EardrumResponse;

/// Biological sex, recorded to mirror the study demographics (60 m / 52 f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sex {
    /// Male participant.
    Male,
    /// Female participant.
    Female,
}

/// One virtual study participant.
#[derive(Debug, Clone, PartialEq)]
pub struct Patient {
    /// Stable participant identifier (index into the cohort).
    pub id: usize,
    /// Age in years (the study recruited 4–6-year-olds).
    pub age_years: u8,
    /// Participant sex.
    pub sex: Sex,
    /// The participant's ear-canal geometry (stable across sessions).
    pub ear: EarCanal,
    /// Personal absorption-dip centre frequency (≈18 kHz, per-ear).
    pub dip_center_hz: f64,
    /// Day boundaries of the recovery stages: the day each of
    /// `[Mucoid, Serous, Clear]` begins. Before `stage_starts[0]` the
    /// patient is Purulent (or their admission state).
    pub stage_starts: [u32; 3],
    /// The state at admission (most patients arrive Purulent, some later).
    pub admission_state: MeeState,
    /// Seed for this patient's session randomness.
    pub seed: u64,
}

impl Patient {
    /// Generates a patient with seeded per-person variation.
    pub fn generate(id: usize, rng: &mut SimRng) -> Patient {
        let age_years = rng.uniform_usize(4, 7) as u8;
        let sex = if rng.chance(60.0 / 112.0) {
            Sex::Male
        } else {
            Sex::Female
        };
        let ear = EarCanal::sample_child(rng);
        let dip_center_hz = rng.gaussian_clamped(18_000.0, 110.0, 17_500.0, 18_500.0);
        // Staged recovery over ~20 days with personal variation.
        let m = rng.uniform_usize(5, 9) as u32; // Mucoid begins day 5-8
        let s = m + rng.uniform_usize(4, 8) as u32; // Serous 4-7 days later
        let c = s + rng.uniform_usize(4, 8) as u32; // Clear 4-7 days later
        let admission_state = if rng.chance(0.75) {
            MeeState::Purulent
        } else if rng.chance(0.6) {
            MeeState::Mucoid
        } else {
            MeeState::Serous
        };
        let seed = rng.fork(id as u64).uniform_usize(0, usize::MAX) as u64;
        Patient {
            id,
            age_years,
            sex,
            ear,
            dip_center_hz,
            stage_starts: [m, s, c],
            admission_state,
            seed,
        }
    }

    /// The ground-truth effusion state on study day `day` (day 0 is
    /// admission). The trajectory never regresses, and patients admitted in
    /// a milder state skip the more severe stages.
    pub fn state_on_day(&self, day: u32) -> MeeState {
        let [m, s, c] = self.stage_starts;
        let staged = if day >= c {
            MeeState::Clear
        } else if day >= s {
            MeeState::Serous
        } else if day >= m {
            MeeState::Mucoid
        } else {
            MeeState::Purulent
        };
        // Cannot be sicker than at admission.
        if staged.severity() > self.admission_state.severity() {
            self.admission_state
        } else {
            staged
        }
    }

    /// Day of full recovery (first Clear day).
    pub fn recovery_day(&self) -> u32 {
        self.stage_starts[2]
    }

    /// All distinct states this patient passes through, in order.
    pub fn trajectory_states(&self) -> Vec<MeeState> {
        let mut out = Vec::new();
        for day in 0..=self.recovery_day() {
            let s = self.state_on_day(day);
            if out.last() != Some(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Draws the eardrum frequency response for a visit on `day`, with
    /// day-to-day physiological variation from `rng`.
    pub fn eardrum_response_on_day(&self, day: u32, rng: &mut SimRng) -> EardrumResponse {
        self.state_on_day(day)
            .sample_response(self.dip_center_hz, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patient(seed: u64) -> Patient {
        let mut rng = SimRng::seed_from_u64(seed);
        Patient::generate(0, &mut rng)
    }

    #[test]
    fn trajectory_is_monotone_recovery() {
        for seed in 0..32 {
            let p = patient(seed);
            let mut prev = usize::MAX;
            for day in 0..30 {
                let sev = p.state_on_day(day).severity();
                assert!(sev <= prev, "seed {seed}: severity regressed on day {day}");
                prev = sev;
            }
        }
    }

    #[test]
    fn patient_eventually_recovers_within_study_window() {
        for seed in 0..32 {
            let p = patient(seed);
            assert!(p.recovery_day() <= 23);
            assert_eq!(p.state_on_day(p.recovery_day()), MeeState::Clear);
            assert_eq!(p.state_on_day(29), MeeState::Clear);
        }
    }

    #[test]
    fn admission_state_caps_severity() {
        for seed in 0..64 {
            let p = patient(seed);
            assert!(p.state_on_day(0).severity() <= p.admission_state.severity());
            assert_eq!(p.state_on_day(0), p.admission_state);
        }
    }

    #[test]
    fn trajectory_states_end_clear_and_are_distinct() {
        for seed in 0..16 {
            let p = patient(seed);
            let t = p.trajectory_states();
            assert_eq!(*t.last().unwrap(), MeeState::Clear);
            for w in t.windows(2) {
                assert!(w[0].severity() > w[1].severity());
            }
        }
    }

    #[test]
    fn ages_are_in_study_range() {
        let mut rng = SimRng::seed_from_u64(1);
        for id in 0..100 {
            let p = Patient::generate(id, &mut rng);
            assert!((4..=6).contains(&p.age_years));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = SimRng::seed_from_u64(2);
        let mut b = SimRng::seed_from_u64(2);
        assert_eq!(Patient::generate(3, &mut a), Patient::generate(3, &mut b));
    }

    #[test]
    fn dip_center_is_personal_but_near_18khz() {
        let mut rng = SimRng::seed_from_u64(10);
        let centers: Vec<f64> = (0..50)
            .map(|id| Patient::generate(id, &mut rng).dip_center_hz)
            .collect();
        assert!(centers.iter().all(|&c| (17_300.0..=18_700.0).contains(&c)));
        let spread = centers.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - centers.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 100.0,
            "personal variation expected, spread {spread}"
        );
    }

    #[test]
    fn response_on_recovered_day_is_reflective() {
        let p = patient(3);
        let mut rng = SimRng::seed_from_u64(4);
        let r = p.eardrum_response_on_day(29, &mut rng);
        assert!(r.reflectance_at(17_000.0) > 0.8);
    }
}
