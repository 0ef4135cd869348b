//! Peak detection.
//!
//! Echo segmentation takes its symmetry candidates from the extrema of the
//! auto-convolution (paper §IV-B-3, Eq. 10); this module provides general
//! peak finding with height and minimum-separation constraints.

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the peak.
    pub index: usize,
    /// Signal value at the peak.
    pub height: f64,
}

/// Finds local maxima of `x` that are at least `min_height` tall and at
/// least `min_distance` samples apart. When two peaks are closer than
/// `min_distance`, the taller one wins.
///
/// A sample is a local maximum if it is strictly greater than its left
/// neighbour and at least as large as its right neighbour (plateaus resolve
/// to their left edge). Endpoints are not peaks.
///
/// # Example
///
/// ```
/// use earsonar_dsp::peak::find_peaks;
/// let x = [0.0, 1.0, 0.0, 3.0, 0.0, 2.0, 0.0];
/// let peaks = find_peaks(&x, 0.5, 1);
/// let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
/// assert_eq!(idx, vec![1, 3, 5]);
/// ```
pub fn find_peaks(x: &[f64], min_height: f64, min_distance: usize) -> Vec<Peak> {
    let n = x.len();
    if n < 3 {
        return Vec::new();
    }
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 1..n - 1 {
        if x[i] > x[i - 1] && x[i] >= x[i + 1] && x[i] >= min_height {
            candidates.push(Peak {
                index: i,
                height: x[i],
            });
        }
    }
    if min_distance <= 1 || candidates.len() <= 1 {
        return candidates;
    }
    // Greedy tallest-first suppression.
    let mut by_height = candidates.clone();
    by_height.sort_by(|a, b| b.height.total_cmp(&a.height));
    let mut kept: Vec<Peak> = Vec::new();
    for c in by_height {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= min_distance)
        {
            kept.push(c);
        }
    }
    kept.sort_by_key(|p| p.index);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_peaks_in_short_or_monotone_signals() {
        assert!(find_peaks(&[1.0, 2.0], 0.0, 1).is_empty());
        assert!(find_peaks(&[1.0, 2.0, 3.0, 4.0], f64::NEG_INFINITY, 1).is_empty());
    }

    #[test]
    fn height_threshold_filters() {
        let x = [0.0, 1.0, 0.0, 3.0, 0.0];
        let peaks = find_peaks(&x, 2.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 3);
        assert_eq!(peaks[0].height, 3.0);
    }

    #[test]
    fn distance_suppression_keeps_tallest() {
        let x = [0.0, 2.0, 1.5, 3.0, 0.0, 0.0, 0.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.0, 3);
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        // Peaks at 1 and 3 conflict; 3 (height 3.0) wins. Peak at 7 stands.
        assert_eq!(idx, vec![3, 7]);
    }

    #[test]
    fn plateau_resolves_to_left_edge() {
        let x = [0.0, 1.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 1);
    }
}
