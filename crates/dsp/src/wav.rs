//! Minimal WAV (RIFF/PCM) reading and writing.
//!
//! EarSonar's deployment story is "record with the earphone, process on the
//! phone": recordings arrive as audio files. This module reads and writes
//! mono PCM WAV — 16-bit integer and 32-bit float — with no dependencies,
//! so simulated sessions can be exported for listening/inspection and real
//! captures can be fed to the pipeline.

use crate::error::DspError;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// A mono audio buffer with its sample rate.
#[derive(Debug, Clone, PartialEq)]
pub struct WavAudio {
    /// Samples in `[-1, 1]` (float) or as converted from PCM16.
    pub samples: Vec<f64>,
    /// Sample rate in hertz.
    pub sample_rate: u32,
}

/// Sample encodings supported by [`write_wav`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavFormat {
    /// 16-bit signed integer PCM (format tag 1).
    Pcm16,
    /// 32-bit IEEE float (format tag 3).
    Float32,
}

/// Writes mono audio to a WAV file. Samples are clamped to `[-1, 1]` for
/// PCM16.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for empty audio and
/// [`DspError::InvalidParameter`] for a zero sample rate or I/O failure
/// (the message names the path).
pub fn write_wav(
    path: impl AsRef<Path>,
    audio: &WavAudio,
    format: WavFormat,
) -> Result<(), DspError> {
    if audio.samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if audio.sample_rate == 0 {
        return Err(DspError::InvalidParameter {
            name: "sample_rate",
            constraint: "must be positive",
        });
    }
    let (tag, bits): (u16, u16) = match format {
        WavFormat::Pcm16 => (1, 16),
        WavFormat::Float32 => (3, 32),
    };
    let bytes_per_sample = (bits / 8) as u32;
    let data_len = audio.samples.len() as u32 * bytes_per_sample;
    let byte_rate = audio.sample_rate * bytes_per_sample;
    let block_align = bytes_per_sample as u16;

    let mut out: Vec<u8> = Vec::with_capacity(44 + data_len as usize);
    out.extend_from_slice(b"RIFF");
    out.extend_from_slice(&(36 + data_len).to_le_bytes());
    out.extend_from_slice(b"WAVE");
    out.extend_from_slice(b"fmt ");
    out.extend_from_slice(&16u32.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // mono
    out.extend_from_slice(&audio.sample_rate.to_le_bytes());
    out.extend_from_slice(&byte_rate.to_le_bytes());
    out.extend_from_slice(&block_align.to_le_bytes());
    out.extend_from_slice(&bits.to_le_bytes());
    out.extend_from_slice(b"data");
    out.extend_from_slice(&data_len.to_le_bytes());
    match format {
        WavFormat::Pcm16 => {
            for &s in &audio.samples {
                let v = (s.clamp(-1.0, 1.0) * 32_767.0).round() as i16;
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        WavFormat::Float32 => {
            for &s in &audio.samples {
                out.extend_from_slice(&(s as f32).to_le_bytes());
            }
        }
    }
    File::create(&path)
        .and_then(|mut f| f.write_all(&out))
        .map_err(|_| DspError::InvalidParameter {
            name: "path",
            constraint: "could not create or write the WAV file",
        })
}

fn bad_wav(constraint: &'static str) -> DspError {
    DspError::InvalidParameter {
        name: "wav",
        constraint,
    }
}

/// The `fmt ` chunk fields: `(tag, channels, rate, bits)`.
type WavFmt = (u16, u16, u32, u16);

/// Scans the RIFF chunk list for the `fmt ` and `data` chunks, returning
/// the format fields and the raw data bytes.
fn scan_chunks(bytes: &[u8]) -> Result<(WavFmt, &[u8]), DspError> {
    if bytes.len() < 44 || &bytes[..4] != b"RIFF" || &bytes[8..12] != b"WAVE" {
        return Err(bad_wav("not a RIFF/WAVE file"));
    }
    let mut pos = 12usize;
    let mut fmt: Option<(u16, u16, u32, u16)> = None; // tag, channels, rate, bits
    let mut data: Option<&[u8]> = None;
    while pos + 8 <= bytes.len() {
        let id = &bytes[pos..pos + 4];
        // The loop guard makes pos + 8 in-bounds, so index the four size
        // bytes directly instead of try_into().
        let size = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]) as usize;
        let body_start = pos + 8;
        let body_end = (body_start + size).min(bytes.len());
        match id {
            b"fmt " if size >= 16 && body_start + 16 <= bytes.len() => {
                let tag = u16::from_le_bytes([bytes[body_start], bytes[body_start + 1]]);
                let channels = u16::from_le_bytes([bytes[body_start + 2], bytes[body_start + 3]]);
                let rate = u32::from_le_bytes([
                    bytes[body_start + 4],
                    bytes[body_start + 5],
                    bytes[body_start + 6],
                    bytes[body_start + 7],
                ]);
                let bits = u16::from_le_bytes([bytes[body_start + 14], bytes[body_start + 15]]);
                fmt = Some((tag, channels, rate, bits));
            }
            b"data" => data = Some(&bytes[body_start..body_end]),
            _ => {}
        }
        // Chunks are word-aligned.
        pos = body_start + size + (size % 2);
    }
    let fmt = fmt.ok_or_else(|| bad_wav("missing fmt chunk"))?;
    let data = data.ok_or_else(|| bad_wav("missing data chunk"))?;
    if fmt.1 == 0 {
        return Err(bad_wav("zero channels"));
    }
    if fmt.2 == 0 {
        return Err(bad_wav("zero sample rate"));
    }
    Ok((fmt, data))
}

/// Parses PCM16 or float32 WAV content from memory into `f64` samples,
/// mixing multi-channel files down by averaging channels. The all-`f64`
/// reference that [`parse_wav_f32_into`], the decoder every capture runs
/// through, is checked against.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] for malformed or unsupported WAV
/// content (the constraint string says which).
pub fn parse_wav(bytes: &[u8]) -> Result<WavAudio, DspError> {
    let ((tag, channels, rate, bits), data) = scan_chunks(bytes)?;
    let ch = channels as usize;
    let frames: Vec<f64> = match (tag, bits) {
        (1, 16) => data
            .chunks_exact(2)
            .map(|b| i16::from_le_bytes([b[0], b[1]]) as f64 / 32_768.0)
            .collect(),
        (3, 32) => data
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64)
            .collect(),
        _ => return Err(bad_wav("unsupported format (need PCM16 or float32)")),
    };
    // Mix down to mono.
    let samples: Vec<f64> = frames
        .chunks_exact(ch)
        .map(|frame| frame.iter().sum::<f64>() / ch as f64)
        .collect();
    if samples.is_empty() {
        return Err(bad_wav("empty data chunk"));
    }
    Ok(WavAudio {
        samples,
        sample_rate: rate,
    })
}

/// Parses WAV content from memory into a reused `f32` sample buffer
/// (cleared and refilled), returning the sample rate. Decode and mono
/// mixdown are fused into one pass over the data chunk — no intermediate
/// per-frame `f64` vector, no per-sample reallocation (the buffer is
/// reserved up front from the frame count).
///
/// `f32` is exactly wide enough for the wire formats: a PCM16 sample is
/// `k / 32768` with `|k| <= 32768`, which `f32`'s 24-bit mantissa holds
/// exactly, and float32 data is already `f32`. For mono files the output
/// is therefore **bit-exact** against `parse_wav(bytes).samples[i] as
/// f32`; multi-channel mixdowns average in `f64` exactly as [`parse_wav`]
/// does before the final narrowing, so the identity holds for them too.
///
/// # Errors
///
/// Same conditions as [`parse_wav`].
// lint: hot-path
pub fn parse_wav_f32_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<u32, DspError> {
    let ((tag, channels, rate, bits), data) = scan_chunks(bytes)?;
    let ch = channels as usize;
    out.clear();
    match (tag, bits) {
        (1, 16) if ch == 1 => {
            out.extend(
                data.chunks_exact(2)
                    .map(|b| i16::from_le_bytes([b[0], b[1]]) as f32 / 32_768.0),
            );
        }
        (1, 16) => {
            out.extend(data.chunks_exact(2 * ch).map(|frame| {
                let mut sum = 0.0f64;
                for b in frame.chunks_exact(2) {
                    sum += i16::from_le_bytes([b[0], b[1]]) as f64 / 32_768.0;
                }
                (sum / ch as f64) as f32
            }));
        }
        (3, 32) if ch == 1 => {
            out.extend(
                data.chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
        }
        (3, 32) => {
            out.extend(data.chunks_exact(4 * ch).map(|frame| {
                let mut sum = 0.0f64;
                for b in frame.chunks_exact(4) {
                    sum += f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64;
                }
                (sum / ch as f64) as f32
            }));
        }
        _ => return Err(bad_wav("unsupported format (need PCM16 or float32)")),
    }
    if out.is_empty() {
        return Err(bad_wav("empty data chunk"));
    }
    Ok(rate)
}

/// Reads a WAV file through [`parse_wav_f32_into`], reusing both the raw
/// byte buffer and the sample buffer across calls.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] for I/O failures, plus the
/// conditions of [`parse_wav`].
pub fn read_wav_f32_into(
    path: impl AsRef<Path>,
    bytes: &mut Vec<u8>,
    out: &mut Vec<f32>,
) -> Result<u32, DspError> {
    bytes.clear();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(bytes))
        .map_err(|_| DspError::InvalidParameter {
            name: "path",
            constraint: "could not open or read the WAV file",
        })?;
    parse_wav_f32_into(bytes, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("earsonar_wav_test_{name}.wav"))
    }

    fn tone(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.3).sin() * 0.8).collect()
    }

    /// Reads `path` back through the capture decoder: `(rate, samples)`.
    fn read_back(path: &std::path::Path) -> (u32, Vec<f32>) {
        let (mut bytes, mut out) = (Vec::new(), Vec::new());
        let rate = read_wav_f32_into(path, &mut bytes, &mut out).unwrap();
        (rate, out)
    }

    #[test]
    fn pcm16_round_trip() {
        let path = tmp("pcm16");
        let audio = WavAudio {
            samples: tone(480),
            sample_rate: 48_000,
        };
        write_wav(&path, &audio, WavFormat::Pcm16).unwrap();
        let (rate, back) = read_back(&path);
        assert_eq!(rate, 48_000);
        assert_eq!(back.len(), 480);
        for (a, &b) in audio.samples.iter().zip(&back) {
            assert!((a - b as f64).abs() < 1.0 / 16_000.0, "{a} vs {b}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn float32_round_trip_is_tighter() {
        let path = tmp("f32");
        let audio = WavAudio {
            samples: tone(100),
            sample_rate: 44_100,
        };
        write_wav(&path, &audio, WavFormat::Float32).unwrap();
        let (rate, back) = read_back(&path);
        assert_eq!(rate, 44_100);
        for (a, &b) in audio.samples.iter().zip(&back) {
            assert!((a - b as f64).abs() < 1e-7);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn pcm16_clamps_out_of_range() {
        let path = tmp("clamp");
        let audio = WavAudio {
            samples: vec![2.0, -3.0, 0.5],
            sample_rate: 8_000,
        };
        write_wav(&path, &audio, WavFormat::Pcm16).unwrap();
        let (_, back) = read_back(&path);
        assert!(back[0] > 0.99);
        assert!(back[1] < -0.99);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stereo_mixes_down() {
        // Hand-build a stereo PCM16 file: L = 0.5, R = -0.5 → mono 0.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RIFF");
        bytes.extend_from_slice(&(36u32 + 8).to_le_bytes());
        bytes.extend_from_slice(b"WAVE");
        bytes.extend_from_slice(b"fmt ");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes()); // stereo
        bytes.extend_from_slice(&48_000u32.to_le_bytes());
        bytes.extend_from_slice(&(48_000u32 * 4).to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&16u16.to_le_bytes());
        bytes.extend_from_slice(b"data");
        bytes.extend_from_slice(&8u32.to_le_bytes());
        for _ in 0..2 {
            bytes.extend_from_slice(&16_384i16.to_le_bytes());
            bytes.extend_from_slice(&(-16_384i16).to_le_bytes());
        }
        let audio = parse_wav(&bytes).unwrap();
        assert_eq!(audio.samples.len(), 2);
        assert!(audio.samples.iter().all(|&s| s.abs() < 1e-9));
    }

    fn pcm16_file(samples: &[i16], channels: u16, rate: u32) -> Vec<u8> {
        let data_len = (samples.len() * 2) as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RIFF");
        bytes.extend_from_slice(&(36 + data_len).to_le_bytes());
        bytes.extend_from_slice(b"WAVE");
        bytes.extend_from_slice(b"fmt ");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&channels.to_le_bytes());
        bytes.extend_from_slice(&rate.to_le_bytes());
        bytes.extend_from_slice(&(rate * 2 * channels as u32).to_le_bytes());
        bytes.extend_from_slice(&(2 * channels).to_le_bytes());
        bytes.extend_from_slice(&16u16.to_le_bytes());
        bytes.extend_from_slice(b"data");
        bytes.extend_from_slice(&data_len.to_le_bytes());
        for &s in samples {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn f32_decode_of_mono_pcm16_is_exact() {
        // Every rail/denormal-adjacent corner plus a sweep: i16 / 32768
        // fits f32's mantissa exactly, so decode must be lossless.
        let vals: Vec<i16> = [i16::MIN, -32767, -1, 0, 1, 255, 256, 12_345, i16::MAX]
            .into_iter()
            .chain((0..300).map(|i| (i * 199 - 30_000) as i16))
            .collect();
        let bytes = pcm16_file(&vals, 1, 48_000);
        let mut out = Vec::new();
        assert_eq!(parse_wav_f32_into(&bytes, &mut out).unwrap(), 48_000);
        assert_eq!(out.len(), vals.len());
        for (&v, &f) in vals.iter().zip(&out) {
            assert_eq!(f * 32_768.0, v as f32, "i16 {v}");
        }
    }

    #[test]
    fn f32_decode_matches_f64_parse_narrowed() {
        // Mono PCM16, stereo PCM16, and mono float32 all narrow to the
        // same f32 stream the f64 reference produces.
        let vals: Vec<i16> = (0..240).map(|i| (i * 273 - 29_000) as i16).collect();
        let mut out = Vec::new();
        for ch in [1u16, 2] {
            let bytes = pcm16_file(&vals, ch, 48_000);
            let reference = parse_wav(&bytes).unwrap();
            let rate = parse_wav_f32_into(&bytes, &mut out).unwrap();
            assert_eq!(rate, reference.sample_rate);
            assert_eq!(out.len(), reference.samples.len());
            for (&f, &d) in out.iter().zip(&reference.samples) {
                assert_eq!(f, d as f32, "ch={ch}");
            }
        }
        // Float32 payload round-trips bit-for-bit.
        let path = tmp("f32_into");
        let audio = WavAudio {
            samples: tone(101),
            sample_rate: 44_100,
        };
        write_wav(&path, &audio, WavFormat::Float32).unwrap();
        let mut bytes = Vec::new();
        let rate = read_wav_f32_into(&path, &mut bytes, &mut out).unwrap();
        assert_eq!(rate, 44_100);
        let reference = parse_wav(&bytes).unwrap();
        for (&f, &d) in out.iter().zip(&reference.samples) {
            assert_eq!(f, d as f32);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn f32_decode_rejects_malformed_input() {
        let mut out = Vec::new();
        assert!(parse_wav_f32_into(b"not a wav", &mut out).is_err());
        let empty = pcm16_file(&[], 1, 48_000);
        assert!(parse_wav_f32_into(&empty, &mut out).is_err());
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(parse_wav(b"not a wav").is_err());
        assert!(parse_wav(&[0u8; 50]).is_err());
        // Valid RIFF but no data chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RIFF");
        bytes.extend_from_slice(&36u32.to_le_bytes());
        bytes.extend_from_slice(b"WAVE");
        bytes.extend_from_slice(b"fmt ");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(parse_wav(&bytes).is_err());
        let (mut raw, mut out) = (Vec::new(), Vec::new());
        assert!(read_wav_f32_into("/nonexistent/path/file.wav", &mut raw, &mut out).is_err());
    }

    #[test]
    fn write_validates_input() {
        let empty = WavAudio {
            samples: vec![],
            sample_rate: 48_000,
        };
        assert!(write_wav(tmp("e"), &empty, WavFormat::Pcm16).is_err());
        let zero_rate = WavAudio {
            samples: vec![0.0],
            sample_rate: 0,
        };
        assert!(write_wav(tmp("z"), &zero_rate, WavFormat::Pcm16).is_err());
    }
}
