//! A [`SignalSource`] over WAV files.
//!
//! The second, non-simulated capture backend: recordings decoded from
//! audio files via `earsonar_dsp::wav`. Its existence is what makes the
//! signal/simulator boundary real — the pipeline screens file captures
//! through exactly the same types and trait the simulator produces.

use crate::recording::{ChirpLayout, Recording};
use crate::source::{SignalError, SignalSource};
use earsonar_dsp::wav::read_wav_f32_into;
use std::path::{Path, PathBuf};

/// How far a file's sample rate may deviate from the layout's (hertz)
/// before the capture is rejected — headers round, physics does not.
const RATE_TOLERANCE_HZ: f64 = 1.0;

/// A [`SignalSource`] that walks a list of WAV files, yielding one
/// recording per file framed on `layout` and truncated to a whole number
/// of chirp hops: the one WAV decoder behind every screening surface.
///
/// Decoding runs through `earsonar_dsp::wav::read_wav_f32_into`, reusing
/// the raw-file and sample buffers across captures. PCM16 and float32
/// samples are exact in f32, so a mono file decodes to exactly its stored
/// samples; a multi-channel file is averaged per frame in f64, then
/// narrowed to f32.
///
/// A failed capture still advances the queue: [`SignalError::Dsp`] for
/// I/O or decode failures, [`SignalError::RateMismatch`] when the file's
/// rate disagrees with the layout, and [`SignalError::BadLayout`] when the
/// audio is shorter than one chirp hop.
#[derive(Debug, Clone)]
pub struct WavSignalSource {
    layout: ChirpLayout,
    paths: Vec<PathBuf>,
    next: usize,
    /// Reused raw-file buffer for the fused decode path.
    bytes: Vec<u8>,
    /// Reused decoded-f32 sample buffer.
    pcm: Vec<f32>,
}

impl WavSignalSource {
    /// Builds a source over `paths`, each decoded on `layout`.
    pub fn new(layout: ChirpLayout, paths: Vec<PathBuf>) -> Self {
        WavSignalSource {
            layout,
            paths,
            next: 0,
            bytes: Vec::new(),
            pcm: Vec::new(),
        }
    }

    /// The path the next [`SignalSource::capture`] will read, if any.
    pub fn next_path(&self) -> Option<&Path> {
        self.paths.get(self.next).map(PathBuf::as_path)
    }
}

impl SignalSource for WavSignalSource {
    fn describe(&self) -> String {
        match self.next_path() {
            Some(p) => format!("wav file {}", p.display()),
            None => format!("wav files (exhausted after {})", self.paths.len()),
        }
    }

    // lint: hot-path
    fn capture(&mut self) -> Result<Option<Recording>, SignalError> {
        let Some(path) = self.paths.get(self.next) else {
            return Ok(None);
        };
        // Advance even on failure so one bad file doesn't wedge the queue.
        self.next += 1;
        let rate = read_wav_f32_into(path, &mut self.bytes, &mut self.pcm)?;
        if (rate as f64 - self.layout.sample_rate).abs() > RATE_TOLERANCE_HZ {
            return Err(SignalError::RateMismatch {
                found: rate as f64,
                expected: self.layout.sample_rate,
            });
        }
        // lint: allow(hot-path-alloc) the returned Recording must own its samples; this is one allocation per capture, not per chirp
        let mut samples = Vec::with_capacity(self.pcm.len());
        samples.extend(self.pcm.iter().map(|&v| v as f64)); // exact widening
        let recording = self.layout.frame(samples).ok_or(SignalError::BadLayout {
            reason: "audio shorter than one chirp interval",
        })?;
        Ok(Some(recording))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar_dsp::wav::{parse_wav, write_wav, WavAudio, WavFormat};

    fn layout() -> ChirpLayout {
        ChirpLayout {
            sample_rate: 48_000.0,
            chirp_len: 24,
            chirp_hop: 240,
        }
    }

    fn write_tone(path: &Path, n: usize, rate: u32) {
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / rate as f64).sin())
            .collect();
        write_wav(
            path,
            &WavAudio {
                samples,
                sample_rate: rate,
            },
            WavFormat::Float32,
        )
        .unwrap();
    }

    #[test]
    fn wav_round_trips_into_recordings() {
        let dir = std::env::temp_dir();
        let a = dir.join("earsonar_signal_wav_a.wav");
        let b = dir.join("earsonar_signal_wav_b.wav");
        write_tone(&a, 750, 48_000);
        write_tone(&b, 480, 48_000);

        let mut src = WavSignalSource::new(layout(), vec![a.clone(), b.clone()]);
        assert!(src.describe().contains("earsonar_signal_wav_a"));
        let ra = src.capture().unwrap().unwrap();
        assert_eq!(ra.n_chirps, 3);
        assert_eq!(ra.samples.len(), 720); // truncated to whole hops
        let rb = src.capture().unwrap().unwrap();
        assert_eq!(rb.n_chirps, 2);
        assert!(src.capture().unwrap().is_none());
        assert!(src.describe().contains("exhausted"));

        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn mono_pcm16_decodes_to_its_stored_samples() {
        let path = std::env::temp_dir().join("earsonar_signal_wav_pcm16.wav");
        let samples: Vec<f64> = (0..750)
            .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / 48_000.0).sin() * 0.7)
            .collect();
        write_wav(
            &path,
            &WavAudio {
                samples,
                sample_rate: 48_000,
            },
            WavFormat::Pcm16,
        )
        .unwrap();
        let reference = parse_wav(&std::fs::read(&path).unwrap()).unwrap();
        // The same file twice: the reused buffers carry nothing over.
        let mut src = WavSignalSource::new(layout(), vec![path.clone(), path.clone()]);
        for _ in 0..2 {
            let rec = src.capture().unwrap().unwrap();
            assert_eq!(rec.samples[..], reference.samples[..720]); // PCM16 is exact in f32
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_captures_are_typed_errors_and_the_queue_advances() {
        let dir = std::env::temp_dir();
        let rate = dir.join("earsonar_signal_wav_rate.wav");
        let short = dir.join("earsonar_signal_wav_short.wav");
        let good = dir.join("earsonar_signal_wav_good.wav");
        write_tone(&rate, 750, 44_100);
        write_tone(&short, 100, 48_000);
        write_tone(&good, 240, 48_000);
        let missing = PathBuf::from("/nonexistent/earsonar.wav");
        let paths = vec![missing, rate.clone(), short.clone(), good.clone()];
        let mut src = WavSignalSource::new(layout(), paths);
        assert!(matches!(src.capture(), Err(SignalError::Dsp(_))));
        assert!(matches!(
            src.capture(),
            Err(SignalError::RateMismatch { .. })
        ));
        assert!(matches!(src.capture(), Err(SignalError::BadLayout { .. })));
        assert_eq!(src.capture().unwrap().unwrap().n_chirps, 1);
        for path in [rate, short, good] {
            let _ = std::fs::remove_file(path);
        }
    }
}
