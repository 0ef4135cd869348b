//! The virtual study cohort.
//!
//! The paper recruited "112 participants (60 males and 52 females) from
//! Children's Hospital … between 4–6 years old" (§V). A [`Cohort`] is the
//! deterministic virtual equivalent: seeded generation of N patients.

use crate::patient::{Patient, Sex};
use crate::rng::{mix, SimRng};
/// A generated set of virtual study participants.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    patients: Vec<Patient>,
    seed: u64,
}

impl Cohort {
    /// Generates a cohort of `n` patients from a seed.
    ///
    /// Each patient draws from an independent stream derived as
    /// `mix(seed, id)`, so patient `id` is the same regardless of cohort
    /// size. Generation takes microseconds per patient, so it stays on
    /// the calling thread.
    ///
    /// # Example
    ///
    /// ```
    /// use earsonar_sim::cohort::Cohort;
    /// let cohort = Cohort::generate(112, 7);
    /// assert_eq!(cohort.len(), 112);
    /// ```
    pub fn generate(n: usize, seed: u64) -> Cohort {
        let patients = (0..n).map(|id| Self::patient(seed, id)).collect();
        Cohort { patients, seed }
    }

    /// Generates the patient with the given id from its derived stream.
    fn patient(seed: u64, id: usize) -> Patient {
        let mut rng = SimRng::seed_from_u64(mix(seed, id as u64));
        Patient::generate(id, &mut rng)
    }

    /// The paper's cohort: 112 children.
    pub fn paper_cohort(seed: u64) -> Cohort {
        Cohort::generate(112, seed)
    }

    /// The patients, in id order.
    pub fn patients(&self) -> &[Patient] {
        &self.patients
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.patients.len()
    }

    /// Returns `true` if the cohort has no participants.
    pub fn is_empty(&self) -> bool {
        self.patients.is_empty()
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counts of (male, female) participants.
    pub fn sex_counts(&self) -> (usize, usize) {
        let m = self.patients.iter().filter(|p| p.sex == Sex::Male).count();
        (m, self.patients.len() - m)
    }

    /// A sub-cohort containing only the patients whose ids are in `ids`.
    pub fn subset(&self, ids: &[usize]) -> Cohort {
        Cohort {
            patients: self
                .patients
                .iter()
                .filter(|p| ids.contains(&p.id))
                .cloned()
                .collect(),
            seed: self.seed,
        }
    }
}

impl<'a> IntoIterator for &'a Cohort {
    type Item = &'a Patient;
    type IntoIter = std::slice::Iter<'a, Patient>;

    fn into_iter(self) -> Self::IntoIter {
        self.patients.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Cohort::generate(20, 3);
        let b = Cohort::generate(20, 3);
        assert_eq!(a, b);
        let c = Cohort::generate(20, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn patients_are_stable_under_cohort_growth() {
        // Per-patient streams: growing the cohort never perturbs earlier
        // patients.
        let small = Cohort::generate(5, 11);
        let large = Cohort::generate(9, 11);
        assert_eq!(small.patients(), &large.patients()[..5]);
    }

    #[test]
    fn ids_are_sequential() {
        let cohort = Cohort::generate(10, 1);
        for (i, p) in cohort.patients().iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn paper_cohort_demographics_are_plausible() {
        let cohort = Cohort::paper_cohort(7);
        assert_eq!(cohort.len(), 112);
        let (m, f) = cohort.sex_counts();
        assert_eq!(m + f, 112);
        // Seeded binomial around 60/112: allow a generous band.
        assert!((40..=80).contains(&m), "males {m}");
        assert!(cohort
            .patients()
            .iter()
            .all(|p| (4..=6).contains(&p.age_years)));
    }

    #[test]
    fn patients_are_individually_distinct() {
        let cohort = Cohort::generate(50, 9);
        let mut centers: Vec<u64> = cohort
            .patients()
            .iter()
            .map(|p| p.dip_center_hz.to_bits())
            .collect();
        centers.sort_unstable();
        centers.dedup();
        assert!(centers.len() > 45, "near-duplicate patients generated");
    }

    #[test]
    fn subset_filters_by_id() {
        let cohort = Cohort::generate(10, 2);
        let sub = cohort.subset(&[1, 3, 5]);
        assert_eq!(sub.len(), 3);
        assert!(sub.patients().iter().all(|p| [1, 3, 5].contains(&p.id)));
    }

    #[test]
    fn iteration_visits_all() {
        let cohort = Cohort::generate(5, 2);
        assert_eq!((&cohort).into_iter().count(), 5);
        assert!(!cohort.is_empty());
        assert_eq!(cohort.seed(), 2);
    }
}
