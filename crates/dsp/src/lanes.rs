//! Lane grouping: running a kernel over several independent signals per
//! pass.
//!
//! The front end's inner kernels ([`crate::filter::filtfilt_lanes`],
//! [`crate::plan::FftPlan::execute_lanes`],
//! [`crate::plan::RealFftPlan::forward_lanes`], …) take a const lane count
//! `L` and process `L` signals in one pass, each lane bit-identical to
//! processing it alone. One pass over several lanes overlaps their
//! independent floating-point chains (an IIR recurrence or a butterfly
//! pass is latency-bound one lane at a time) and shares twiddle loads and
//! loop overhead.
//!
//! [`for_lane_groups`] splits a batch of `n` items into such passes:
//! [`LANES`] at a time while that many remain, then pairs, then single
//! lanes, so a batch of one runs the one-lane instance and pays nothing
//! for the machinery.

/// The lane count of a full group. Chosen from the `fft_lanes/*` and
/// `filtfilt_lanes/*` rows of `cargo bench -p earsonar-bench --bench
/// dsp_kernels`: on a 2-vCPU Xeon VM, four lanes cost about 0.5 (filter)
/// to 0.7 (FFT) of one lane's time per signal, two lanes about 0.7–0.8.
pub const LANES: usize = 4;

/// A kernel that runs over items `first..first + L` of a batch it owns,
/// `L` lanes per pass.
pub trait LaneOp {
    /// The error that stops the batch.
    type Error;

    /// Runs items `first..first + L` in one `L`-lane pass.
    ///
    /// # Errors
    ///
    /// Whatever the kernel reports; [`for_lane_groups`] stops at the
    /// first error.
    fn run<const L: usize>(&mut self, first: usize) -> Result<(), Self::Error>;
}

/// Runs `op` over items `0..n` in order: groups of [`LANES`] while that
/// many remain, then pairs, then single items.
///
/// # Errors
///
/// Returns the first error `op` reports; later groups do not run.
pub fn for_lane_groups<K: LaneOp>(n: usize, op: &mut K) -> Result<(), K::Error> {
    let mut first = 0;
    while n - first >= LANES {
        op.run::<LANES>(first)?;
        first += LANES;
    }
    while n - first >= 2 {
        op.run::<2>(first)?;
        first += 2;
    }
    while first < n {
        op.run::<1>(first)?;
        first += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Record(Vec<(usize, usize)>);

    impl LaneOp for Record {
        type Error = ();
        fn run<const L: usize>(&mut self, first: usize) -> Result<(), ()> {
            self.0.push((first, L));
            Ok(())
        }
    }

    #[test]
    fn groups_cover_the_batch_in_order() {
        for (n, expect) in [
            (0usize, vec![]),
            (1, vec![(0, 1)]),
            (3, vec![(0, 2), (2, 1)]),
            (9, vec![(0, 4), (4, 4), (8, 1)]),
            (11, vec![(0, 4), (4, 4), (8, 2), (10, 1)]),
        ] {
            let mut r = Record(Vec::new());
            for_lane_groups(n, &mut r).unwrap();
            assert_eq!(r.0, expect, "n={n}");
        }
    }
}
