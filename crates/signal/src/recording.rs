//! Captured sample streams and their chirp layout.
//!
//! A [`Recording`] is what every capture backend — simulator, WAV file,
//! device driver — hands the pipeline: the received samples plus the
//! transmit schedule (chirp length and spacing) that gives them meaning.
//! [`ChirpLayout`] is the schedule alone, used to describe what a backend
//! must produce before any samples exist.

/// The transmit schedule a capture must follow: sample rate plus the
/// chirp grid. Everything the pipeline needs to slice a raw sample
/// stream into per-chirp windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpLayout {
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// Samples per transmitted chirp.
    pub chirp_len: usize,
    /// Samples between chirp starts.
    pub chirp_hop: usize,
}

impl ChirpLayout {
    /// Wraps a raw sample stream as a [`Recording`] on this layout,
    /// truncating to a whole number of chirp hops. Returns `None` when
    /// the stream is shorter than one hop (or the hop is zero).
    pub fn frame(&self, mut samples: Vec<f64>) -> Option<Recording> {
        if self.chirp_hop == 0 {
            return None;
        }
        let n_chirps = samples.len() / self.chirp_hop;
        if n_chirps == 0 {
            return None;
        }
        samples.truncate(n_chirps * self.chirp_hop);
        Some(Recording {
            samples,
            sample_rate: self.sample_rate,
            chirp_hop: self.chirp_hop,
            n_chirps,
            chirp_len: self.chirp_len,
        })
    }
}

/// A captured microphone stream (synthesized or real).
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The received samples.
    pub samples: Vec<f64>,
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// Samples between chirp starts.
    pub chirp_hop: usize,
    /// Number of chirps.
    pub n_chirps: usize,
    /// Samples per transmitted chirp.
    pub chirp_len: usize,
}

impl Recording {
    /// The sample window belonging to chirp `i` (one full hop, or the
    /// remainder for the last chirp), or `None` if `i` is out of range
    /// or the sample buffer is shorter than the chirp grid claims.
    pub fn try_chirp_window(&self, i: usize) -> Option<&[f64]> {
        if i >= self.n_chirps {
            return None;
        }
        let start = i.checked_mul(self.chirp_hop)?;
        if start >= self.samples.len() {
            return None;
        }
        let end = (start + self.chirp_hop).min(self.samples.len());
        Some(&self.samples[start..end])
    }

    /// The sample window belonging to chirp `i` (one full hop, or the
    /// remainder for the last chirp).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_chirps`.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` accessor; try_chirp_window is the checked variant"
    )]
    pub fn chirp_window(&self, i: usize) -> &[f64] {
        assert!(i < self.n_chirps, "chirp index out of range");
        self.try_chirp_window(i)
            .expect("chirp grid fits the buffer")
    }

    /// The layout this recording was captured on.
    pub fn layout(&self) -> ChirpLayout {
        ChirpLayout {
            sample_rate: self.sample_rate,
            chirp_len: self.chirp_len,
            chirp_hop: self.chirp_hop,
        }
    }

    /// Duration of the recording in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n_samples: usize, hop: usize, n_chirps: usize) -> Recording {
        Recording {
            samples: (0..n_samples).map(|i| i as f64).collect(),
            sample_rate: 48_000.0,
            chirp_hop: hop,
            n_chirps,
            chirp_len: 24,
        }
    }

    #[test]
    fn chirp_windows_tile_the_recording() {
        let r = rec(720, 240, 3);
        for i in 0..3 {
            let w = r.chirp_window(i);
            assert_eq!(w.len(), 240);
            assert_eq!(w[0], (i * 240) as f64);
        }
    }

    #[test]
    fn last_window_may_be_short() {
        let r = rec(500, 240, 3);
        assert_eq!(r.chirp_window(2).len(), 20);
    }

    #[test]
    fn try_chirp_window_rejects_out_of_range() {
        let r = rec(720, 240, 3);
        assert!(r.try_chirp_window(3).is_none());
        // Grid claims more chirps than the buffer holds.
        let r = rec(240, 240, 4);
        assert!(r.try_chirp_window(0).is_some());
        assert!(r.try_chirp_window(1).is_none());
    }

    #[test]
    #[should_panic(expected = "chirp index out of range")]
    fn chirp_window_panics_out_of_range() {
        rec(720, 240, 3).chirp_window(3);
    }

    #[test]
    fn duration_and_layout_round_trip() {
        let r = rec(48_000, 240, 200);
        assert!((r.duration_s() - 1.0).abs() < 1e-12);
        let layout = r.layout();
        assert_eq!(layout.chirp_hop, 240);
        assert_eq!(layout.chirp_len, 24);
        assert_eq!(layout.sample_rate, 48_000.0);
    }

    #[test]
    fn layout_frames_raw_samples() {
        let layout = ChirpLayout {
            sample_rate: 48_000.0,
            chirp_len: 24,
            chirp_hop: 240,
        };
        let r = layout.frame(vec![0.0; 750]).unwrap();
        assert_eq!(r.n_chirps, 3);
        assert_eq!(r.samples.len(), 720);
        assert!(layout.frame(vec![0.0; 100]).is_none());
        let degenerate = ChirpLayout {
            chirp_hop: 0,
            ..layout
        };
        assert!(degenerate.frame(vec![0.0; 100]).is_none());
    }
}
