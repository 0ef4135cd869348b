//! Labelled dataset assembly.
//!
//! Builds the per-experiment collections the paper's evaluation needs:
//! balanced per-state snapshots for classification experiments, and full
//! longitudinal trajectories for the recovery figures (Fig. 10).

use crate::cohort::Cohort;
use crate::effusion::MeeState;
use crate::patient::Patient;
use crate::session::{RecordSession, Session, SessionConfig};
use earsonar_dsp::fanout;

/// How sessions are drawn from each patient's trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Sessions recorded per (patient, state) pair.
    pub sessions_per_state: usize,
    /// Recording configuration shared by all sessions.
    pub config: SessionConfig,
    /// Base seed mixed into every visit.
    pub seed: u64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec {
            sessions_per_state: 2,
            config: SessionConfig::default(),
            seed: 0,
        }
    }
}

/// Finds, for each state the patient passes through, one representative
/// day (the middle day of that stage).
pub fn representative_days(patient: &Patient) -> Vec<(MeeState, u32)> {
    let horizon = patient.recovery_day() + 6;
    let mut spans: Vec<(MeeState, u32, u32)> = Vec::new();
    for day in 0..=horizon {
        let s = patient.state_on_day(day);
        match spans.last_mut() {
            Some((state, _, end)) if *state == s => *end = day,
            _ => spans.push((s, day, day)),
        }
    }
    spans
        .into_iter()
        .map(|(state, start, end)| (state, start + (end - start) / 2))
        .collect()
}

/// Records `spec.sessions_per_state` sessions per state the patient passes
/// through, spreading visits across the days of each stage.
pub fn patient_sessions(patient: &Patient, spec: &DatasetSpec) -> Vec<Session> {
    let horizon = patient.recovery_day() + 6;
    // Group days by state.
    let mut stage_days: Vec<(MeeState, Vec<u32>)> = Vec::new();
    for day in 0..=horizon {
        let s = patient.state_on_day(day);
        match stage_days.last_mut() {
            Some((state, days)) if *state == s => days.push(day),
            _ => stage_days.push((s, vec![day])),
        }
    }
    let mut out = Vec::new();
    for (_, days) in stage_days {
        let n = spec.sessions_per_state.min(days.len().max(1));
        for v in 0..spec.sessions_per_state {
            // Spread visits over the stage; extra visits revisit days with
            // a different visit seed (morning/evening).
            let day = days[(v % n) * days.len() / n.max(1)];
            let visit_seed = spec.seed.wrapping_mul(31).wrapping_add(v as u64);
            out.push(Session::record(patient, day, &spec.config, visit_seed));
        }
    }
    out
}

/// A complete labelled dataset over a cohort.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// All recorded sessions.
    pub sessions: Vec<Session>,
}

impl Dataset {
    /// Records the full dataset for `cohort` under `spec`, one patient
    /// per [`fanout::map_indexed`] item.
    ///
    /// Every session's samples depend only on `(patient, spec)` — never on
    /// which worker rendered it — so the result is **bit-identical** to
    /// recording the patients one after another with [`patient_sessions`].
    pub fn build(cohort: &Cohort, spec: &DatasetSpec) -> Dataset {
        let patients = cohort.patients();
        let per_patient = fanout::map_indexed(
            patients.len(),
            || (),
            |(), id| patient_sessions(&patients[id], spec),
        );
        Dataset {
            sessions: per_patient.into_iter().flatten().collect(),
        }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Returns `true` if no sessions were recorded.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Ground-truth class index per session.
    pub fn labels(&self) -> Vec<usize> {
        self.sessions
            .iter()
            .map(|s| s.ground_truth.index())
            .collect()
    }

    /// Participant id per session (the LOOCV grouping key).
    pub fn groups(&self) -> Vec<usize> {
        self.sessions.iter().map(|s| s.patient_id).collect()
    }

    /// Count of sessions per state, indexed by [`MeeState::index`].
    pub fn state_counts(&self) -> [usize; MeeState::COUNT] {
        let mut counts = [0usize; MeeState::COUNT];
        for s in &self.sessions {
            counts[s.ground_truth.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_days_cover_trajectory() {
        let cohort = Cohort::generate(8, 5);
        for p in cohort.patients() {
            let reps = representative_days(p);
            let states: Vec<MeeState> = reps.iter().map(|&(s, _)| s).collect();
            assert_eq!(states, p.trajectory_states());
            for &(state, day) in &reps {
                assert_eq!(p.state_on_day(day), state);
            }
        }
    }

    #[test]
    fn patient_sessions_hit_every_stage() {
        let cohort = Cohort::generate(4, 6);
        let spec = DatasetSpec {
            sessions_per_state: 2,
            ..Default::default()
        };
        for p in cohort.patients() {
            let sessions = patient_sessions(p, &spec);
            let n_stages = p.trajectory_states().len();
            assert_eq!(sessions.len(), 2 * n_stages);
            // Every state present.
            let mut seen: Vec<MeeState> = sessions.iter().map(|s| s.ground_truth).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), n_stages);
        }
    }

    #[test]
    fn dataset_aggregates_cohort() {
        let cohort = Cohort::generate(6, 7);
        let ds = Dataset::build(&cohort, &DatasetSpec::default());
        assert!(!ds.is_empty());
        assert_eq!(ds.labels().len(), ds.len());
        assert_eq!(ds.groups().len(), ds.len());
        let counts = ds.state_counts();
        assert_eq!(counts.iter().sum::<usize>(), ds.len());
        // Everyone recovers, so Clear sessions exist.
        assert!(counts[MeeState::Clear.index()] > 0);
    }

    #[test]
    fn dataset_is_deterministic() {
        let cohort = Cohort::generate(3, 8);
        let spec = DatasetSpec::default();
        let a = Dataset::build(&cohort, &spec);
        let b = Dataset::build(&cohort, &spec);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn build_matches_per_patient_recording_bitwise() {
        let cohort = Cohort::generate(5, 12);
        let spec = DatasetSpec::default();
        let sequential: Vec<Session> = cohort
            .patients()
            .iter()
            .flat_map(|p| patient_sessions(p, &spec))
            .collect();
        assert_eq!(Dataset::build(&cohort, &spec).sessions, sequential);
    }

    #[test]
    fn groups_match_patient_ids() {
        let cohort = Cohort::generate(3, 9);
        let ds = Dataset::build(&cohort, &DatasetSpec::default());
        let mut ids: Vec<usize> = ds.groups();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
