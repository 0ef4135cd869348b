//! Middle-ear-effusion states: the label space of the classifier.
//!
//! The paper grades MEE into four states — "Clear, Purulent, Mucoid and
//! Serous" (§VI-A) — which form the recovery pipeline Purulent → Mucoid →
//! Serous → Clear. This module holds the *pure* structure of that label
//! space: ordering, indexing, severity, and the calibrated per-state
//! parameter distributions. The acoustic realization (fluid media,
//! eardrum responses) lives in `earsonar-sim`, which extends this type —
//! the classifier side never needs it.

use std::fmt;

/// The four middle-ear states EarSonar distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MeeState {
    /// Healthy, fluid-free middle ear.
    Clear,
    /// Thin, watery effusion (mildest; last stage before recovery).
    Serous,
    /// Thick, glue-like effusion.
    Mucoid,
    /// Pus-laden effusion (most severe, acute infection).
    Purulent,
}

impl MeeState {
    /// All states in class-index order (the order used for labels,
    /// confusion matrices, and reports).
    pub const ALL: [MeeState; 4] = [
        MeeState::Clear,
        MeeState::Serous,
        MeeState::Mucoid,
        MeeState::Purulent,
    ];

    /// Number of distinct states.
    pub const COUNT: usize = 4;

    /// The class index of this state (0..4) in [`MeeState::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            MeeState::Clear => 0,
            MeeState::Serous => 1,
            MeeState::Mucoid => 2,
            MeeState::Purulent => 3,
        }
    }

    /// The state with the given class index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> MeeState {
        MeeState::ALL[index]
    }

    /// Severity rank: 0 for Clear up to 3 for Purulent. Coincides with
    /// [`MeeState::index`] but is semantically "how sick".
    pub fn severity(self) -> usize {
        self.index()
    }

    /// Calibrated absorption-dip parameter distributions for this state:
    /// `(depth_mean, depth_sd, width_mean_hz, width_sd_hz)`.
    ///
    /// Depth separations (Clear ≪ Serous < Mucoid ≈ Purulent) reproduce the
    /// paper's confusion structure: Clear is easiest, Mucoid and Purulent
    /// alias into each other (paper §VI-B).
    pub fn dip_distribution(self) -> (f64, f64, f64, f64) {
        match self {
            MeeState::Clear => (0.06, 0.018, 500.0, 45.0),
            MeeState::Serous => (0.30, 0.022, 560.0, 55.0),
            MeeState::Mucoid => (0.58, 0.022, 630.0, 55.0),
            MeeState::Purulent => (0.72, 0.020, 900.0, 70.0),
        }
    }

    /// Typical effusion layer thickness range in metres (zero for Clear).
    pub fn thickness_range(self) -> (f64, f64) {
        match self {
            MeeState::Clear => (0.0, 0.0),
            MeeState::Serous => (0.0008, 0.0018),
            MeeState::Mucoid => (0.0018, 0.0032),
            MeeState::Purulent => (0.0028, 0.0045),
        }
    }

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            MeeState::Clear => "Clear",
            MeeState::Serous => "Serous",
            MeeState::Mucoid => "Mucoid",
            MeeState::Purulent => "Purulent",
        }
    }
}

impl fmt::Display for MeeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for s in MeeState::ALL {
            assert_eq!(MeeState::from_index(s.index()), s);
        }
        assert_eq!(MeeState::COUNT, MeeState::ALL.len());
    }

    #[test]
    fn severity_orders_states() {
        assert!(MeeState::Clear.severity() < MeeState::Serous.severity());
        assert!(MeeState::Serous.severity() < MeeState::Mucoid.severity());
        assert!(MeeState::Mucoid.severity() < MeeState::Purulent.severity());
    }

    #[test]
    fn dip_depth_grows_with_severity() {
        let depths: Vec<f64> = MeeState::ALL
            .iter()
            .map(|s| s.dip_distribution().0)
            .collect();
        for w in depths.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn mucoid_purulent_gap_is_the_narrowest() {
        // The calibrated Mucoid-Purulent gap (in sigma units) is the
        // smallest of the three adjacent-state gaps - the source of the
        // paper's Mucoid/Purulent aliasing - while Clear separates by a
        // wide margin.
        let gap = |a: MeeState, b: MeeState| {
            let (da, sa, _, _) = a.dip_distribution();
            let (db, sb, _, _) = b.dip_distribution();
            (db - da) / (sa + sb)
        };
        let g_cs = gap(MeeState::Clear, MeeState::Serous);
        let g_sm = gap(MeeState::Serous, MeeState::Mucoid);
        let g_mp = gap(MeeState::Mucoid, MeeState::Purulent);
        assert!(
            g_mp < g_sm,
            "mucoid-purulent must be tightest: {g_mp} vs {g_sm}"
        );
        assert!(
            g_mp < g_cs,
            "mucoid-purulent must be tightest: {g_mp} vs {g_cs}"
        );
        assert!(g_cs > 5.0, "clear must separate strongly: {g_cs}");
    }

    #[test]
    fn thickness_ranges_are_ordered_and_valid() {
        for s in MeeState::ALL {
            let (lo, hi) = s.thickness_range();
            assert!(lo <= hi);
        }
        assert!(MeeState::Serous.thickness_range().1 <= MeeState::Purulent.thickness_range().1);
    }

    #[test]
    fn display_matches_labels() {
        assert_eq!(MeeState::Mucoid.to_string(), "Mucoid");
        assert_eq!(MeeState::Clear.label(), "Clear");
    }
}
