//! Reusable workspace for recording synthesis.
//!
//! [`SimScratch`] bundles everything `synthesize_recording_with` needs to
//! run without heap allocation once warm: the DSP plan cache and buffer
//! pools, the spectral images of the shaped chirps, the per-chirp spectral
//! accumulator, and the pre-sampled per-chirp disturbance parameters.
//!
//! Create one per worker thread (the plan cache is `!Sync` by design) and
//! reuse it across every recording, session, and patient that worker
//! touches — `Dataset::build` does exactly this, one per fan-out worker.

use earsonar_acoustics::propagation::SpectralDelayLine;
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::plan::DspScratch;

/// Pre-sampled synthesis parameters for one chirp window.
///
/// The recorder draws every random quantity up front, in the exact order
/// the time-domain reference implementation consumes the RNG, then renders
/// all chirps from these frozen parameters — keeping the spectral and
/// time-domain paths bit-identical in their random streams.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChirpParams {
    /// Canal-wall paths as (delay in samples, amplitude gain).
    pub(crate) wall: Vec<(f64, f64)>,
    /// Eardrum-echo delay in samples (jitter applied, clamped to ≥ 0).
    pub(crate) eardrum_delay: f64,
    /// Eardrum-echo amplitude gain (motion gain jitter applied).
    pub(crate) eardrum_gain: f64,
    /// Additive motion-transient samples for the start of the window
    /// (empty when no transient fired).
    pub(crate) transient: Vec<f64>,
}

/// A reusable buffer pool for the recording synthesizer.
///
/// Opaque on purpose: callers only create it ([`SimScratch::new`]) and pass
/// it to the `_with` entry points (`synthesize_recording_with`,
/// `Session::record_with`, …). Steady-state synthesis with a warm scratch
/// allocates only the returned `Recording` itself.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// FFT plan cache and intermediate buffer pools.
    pub(crate) dsp: DspScratch,
    /// Chirp + ringing tail, input to the device shaping filter.
    pub(crate) padded: Vec<f64>,
    /// Device-shaped transmitted chirp.
    pub(crate) tx_shaped: Vec<f64>,
    /// Device- and eardrum-shaped echo waveform.
    pub(crate) echo_shaped: Vec<f64>,
    /// Spectral image of `tx_shaped` (direct leak + wall paths).
    pub(crate) tx_line: SpectralDelayLine,
    /// Spectral image of `echo_shaped` (eardrum path).
    pub(crate) echo_line: SpectralDelayLine,
    /// Per-chirp spectral accumulator (lower half actively used).
    pub(crate) acc: Vec<Complex64>,
    /// Time-domain output of the per-chirp inverse transform.
    pub(crate) time: Vec<f64>,
    /// Pre-sampled per-chirp parameters; inner vectors are reused.
    pub(crate) chirps: Vec<ChirpParams>,
}

impl SimScratch {
    /// An empty workspace. Buffers and plans are created lazily on first
    /// use and retained for the workspace's lifetime.
    pub fn new() -> Self {
        Self::default()
    }
}
