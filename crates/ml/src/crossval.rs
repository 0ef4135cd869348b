//! Cross-validation splitters.
//!
//! The paper evaluates with **leave-one-out cross-validation over
//! participants**: "in each iteration of LOOCV, we use data from 111 of the
//! 112 participants for training, then output the prediction for the last
//! participant" (§VI-A). Samples are grouped by participant so no child's
//! data leaks between train and test.

use crate::error::MlError;

/// One train/test split: indices into the sample array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training-sample indices.
    pub train: Vec<usize>,
    /// Test-sample indices.
    pub test: Vec<usize>,
}

/// Leave-one-group-out splits: one split per distinct group, with that
/// group's samples as the test set. `groups[i]` is the group (participant)
/// of sample `i`.
///
/// # Errors
///
/// Returns [`MlError::EmptyDataset`] if `groups` is empty and
/// [`MlError::NotEnoughSamples`] if there are fewer than two groups.
///
/// # Example
///
/// ```
/// use earsonar_ml::crossval::leave_one_group_out;
/// let splits = leave_one_group_out(&[0, 0, 1, 2, 2]).unwrap();
/// assert_eq!(splits.len(), 3);
/// assert_eq!(splits[0].test, vec![0, 1]);
/// ```
pub fn leave_one_group_out(groups: &[usize]) -> Result<Vec<Split>, MlError> {
    if groups.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    let mut distinct: Vec<usize> = groups.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 2 {
        return Err(MlError::NotEnoughSamples {
            needed: 2,
            available: distinct.len(),
        });
    }
    Ok(distinct
        .into_iter()
        .map(|g| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for (i, &gi) in groups.iter().enumerate() {
                if gi == g {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            Split { train, test }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logo_covers_every_sample_exactly_once_as_test() {
        let groups = [0, 1, 1, 2, 0, 3];
        let splits = leave_one_group_out(&groups).unwrap();
        assert_eq!(splits.len(), 4);
        let mut seen = vec![0usize; groups.len()];
        for s in &splits {
            for &i in &s.test {
                seen[i] += 1;
            }
            // No index in both train and test.
            for &i in &s.test {
                assert!(!s.train.contains(&i));
            }
            assert_eq!(s.train.len() + s.test.len(), groups.len());
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn logo_groups_stay_together() {
        let groups = [7, 7, 8, 8, 8];
        let splits = leave_one_group_out(&groups).unwrap();
        assert_eq!(splits[0].test, vec![0, 1]);
        assert_eq!(splits[1].test, vec![2, 3, 4]);
    }

    #[test]
    fn logo_errors() {
        assert!(leave_one_group_out(&[]).is_err());
        assert!(leave_one_group_out(&[3, 3, 3]).is_err());
    }
}
