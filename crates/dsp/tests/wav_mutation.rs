//! Seeded mutation suite for the WAV parsers: [`parse_wav`] and
//! [`parse_wav_f32_into`] read bytes the system does not control, so every
//! input — truncated at any offset, byte- or bit-flipped, or carrying
//! extreme header fields — must give a valid result or a typed error,
//! never a panic. Allocation must stay bounded by the input length.
//!
//! The two parsers must also agree: both succeed or both fail, with the
//! same sample rate, and the `f32` decode equals the `f64` parse narrowed
//! (NaN payloads aside, which the `f64` round trip may quieten).

use earsonar_dsp::error::DspError;
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::wav::{parse_wav, parse_wav_f32_into};

/// Seeded mutations per base file (five base files: 12 500 in total).
const MUTATIONS_PER_FILE: u64 = 2_500;

/// A RIFF/WAVE file with one `fmt ` chunk, optional extra chunks before
/// `data`, and `data` as the payload.
fn wav_bytes(tag: u16, channels: u16, rate: u32, bits: u16, extra: &[u8], data: &[u8]) -> Vec<u8> {
    let block_align = channels.wrapping_mul(bits / 8);
    let mut b = Vec::new();
    b.extend_from_slice(b"RIFF");
    b.extend_from_slice(&((36 + extra.len() + data.len()) as u32).to_le_bytes());
    b.extend_from_slice(b"WAVE");
    b.extend_from_slice(b"fmt ");
    b.extend_from_slice(&16u32.to_le_bytes());
    b.extend_from_slice(&tag.to_le_bytes());
    b.extend_from_slice(&channels.to_le_bytes());
    b.extend_from_slice(&rate.to_le_bytes());
    b.extend_from_slice(&rate.wrapping_mul(u32::from(block_align)).to_le_bytes());
    b.extend_from_slice(&block_align.to_le_bytes());
    b.extend_from_slice(&bits.to_le_bytes());
    b.extend_from_slice(extra);
    b.extend_from_slice(b"data");
    b.extend_from_slice(&(data.len() as u32).to_le_bytes());
    b.extend_from_slice(data);
    b
}

fn pcm16_payload(rng: &mut DetRng, samples: usize) -> Vec<u8> {
    (0..samples)
        .flat_map(|_| ((rng.next_u64() >> 48) as i16).to_le_bytes())
        .collect()
}

fn f32_payload(rng: &mut DetRng, samples: usize) -> Vec<u8> {
    (0..samples)
        .flat_map(|_| (rng.uniform(-1.0, 1.0) as f32).to_le_bytes())
        .collect()
}

/// Valid files covering both encodings, mono and multi-channel, and a
/// skipped odd-sized chunk ahead of `data`.
fn base_files() -> Vec<Vec<u8>> {
    let mut rng = DetRng::seed_from_u64(0x5741_5645);
    // An odd-sized `LIST` chunk exercises the word-alignment padding.
    let mut list = Vec::new();
    list.extend_from_slice(b"LIST");
    list.extend_from_slice(&3u32.to_le_bytes());
    list.extend_from_slice(&[1, 2, 3, 0]);
    vec![
        wav_bytes(1, 1, 48_000, 16, &[], &pcm16_payload(&mut rng, 64)),
        wav_bytes(1, 2, 44_100, 16, &[], &pcm16_payload(&mut rng, 64)),
        wav_bytes(3, 1, 48_000, 32, &[], &f32_payload(&mut rng, 48)),
        wav_bytes(3, 3, 16_000, 32, &[], &f32_payload(&mut rng, 48)),
        wav_bytes(1, 1, 48_000, 16, &list, &pcm16_payload(&mut rng, 40)),
    ]
}

/// Runs both parsers on `bytes` and checks the contract. Returns whether
/// the input parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let wide = parse_wav(bytes);
    let mut narrow = Vec::new();
    let rate = parse_wav_f32_into(bytes, &mut narrow);
    match (&wide, &rate) {
        (Ok(audio), Ok(rate)) => {
            assert_eq!(audio.sample_rate, *rate, "{what}: sample rates differ");
            assert!(audio.sample_rate > 0, "{what}: accepted a zero sample rate");
            assert!(!audio.samples.is_empty(), "{what}: accepted an empty file");
            // Every sample needs at least two input bytes.
            assert!(
                audio.samples.len() <= bytes.len() / 2,
                "{what}: unbounded output"
            );
            assert_eq!(audio.samples.len(), narrow.len(), "{what}: lengths differ");
            for (i, (&d, &f)) in audio.samples.iter().zip(&narrow).enumerate() {
                let same = (d as f32).to_bits() == f.to_bits() || (d.is_nan() && f.is_nan());
                assert!(same, "{what}: sample {i}: {d} vs {f}");
            }
            true
        }
        (Err(a), Err(b)) => {
            for e in [a, b] {
                assert!(
                    matches!(e, DspError::InvalidParameter { name: "wav", .. }),
                    "{what}: untyped error {e:?}"
                );
            }
            assert_eq!(a, b, "{what}: the parsers refuse for different reasons");
            false
        }
        _ => panic!(
            "{what}: parsers disagree: {:?} vs {:?}",
            wide.map(|_| ()),
            rate
        ),
    }
}

#[test]
fn base_files_parse() {
    for (f, bytes) in base_files().iter().enumerate() {
        assert!(check(bytes, &format!("base {f}")), "base {f} must parse");
    }
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for (f, bytes) in base_files().iter().enumerate() {
        let mut parsed = 0usize;
        for len in 0..=bytes.len() {
            parsed += usize::from(check(&bytes[..len], &format!("base {f} cut at {len}")));
        }
        // Anything shorter than the 44-byte header is refused; a cut inside
        // the payload still parses the whole samples before the cut.
        assert!(parsed > 0, "base {f}: no truncation parsed");
        assert!(!check(&bytes[..43], &format!("base {f} header cut")));
    }
}

#[test]
fn seeded_byte_and_bit_flips_never_panic() {
    let mut cases = 0u64;
    for (f, base) in base_files().iter().enumerate() {
        for seed in 0..MUTATIONS_PER_FILE {
            let mut rng = DetRng::seed_from_u64(seed ^ ((f as u64) << 32));
            let mut bytes = base.clone();
            // Most flips land in the header, where the parser branches;
            // the rest anywhere.
            for _ in 0..rng.range_inclusive(1, 4) {
                let at = if rng.below(4) == 0 {
                    rng.below(bytes.len())
                } else {
                    rng.below(48.min(bytes.len()))
                };
                if rng.below(2) == 0 {
                    bytes[at] = rng.below(256) as u8;
                } else {
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            check(&bytes, &format!("base {f} seed {seed}"));
            cases += 1;
        }
    }
    assert!(cases >= 10_000);
}

#[test]
fn header_extremes_give_typed_results() {
    let mut rng = DetRng::seed_from_u64(7);
    let pcm = pcm16_payload(&mut rng, 32);

    // Zero channels, zero sample rate, and sample widths other than 16-bit
    // PCM and 32-bit float are refused.
    assert!(!check(
        &wav_bytes(1, 0, 48_000, 16, &[], &pcm),
        "zero channels"
    ));
    assert!(!check(&wav_bytes(1, 1, 0, 16, &[], &pcm), "rate 0"));
    for bits in [0u16, 1, 7, 8, 15, 17, 24, 31, 33, u16::MAX] {
        assert!(!check(
            &wav_bytes(1, 1, 48_000, bits, &[], &pcm),
            &format!("pcm {bits} bits")
        ));
        assert!(!check(
            &wav_bytes(3, 1, 48_000, bits, &[], &pcm),
            &format!("float {bits} bits")
        ));
    }
    assert!(!check(&wav_bytes(2, 1, 48_000, 16, &[], &pcm), "ADPCM tag"));

    // More channels than samples: no whole frame, so nothing to return.
    assert!(!check(
        &wav_bytes(1, u16::MAX, 48_000, 16, &[], &pcm),
        "65535 channels"
    ));
    // The largest rate is still a rate.
    assert!(check(
        &wav_bytes(1, 1, u32::MAX, 16, &[], &pcm),
        "rate u32::MAX"
    ));

    // A data length past end-of-file parses what is there.
    let valid = wav_bytes(1, 1, 48_000, 16, &[], &pcm);
    for claimed in [pcm.len() as u32 + 1, pcm.len() as u32 + 1_000, u32::MAX] {
        let mut bytes = valid.clone();
        bytes[40..44].copy_from_slice(&claimed.to_le_bytes());
        assert!(check(&bytes, &format!("data length {claimed}")));
        assert_eq!(parse_wav(&bytes).unwrap().samples.len(), 32);
    }
    // So does a RIFF size that disagrees with the file.
    for riff in [0u32, 4, u32::MAX] {
        let mut bytes = valid.clone();
        bytes[4..8].copy_from_slice(&riff.to_le_bytes());
        assert!(check(&bytes, &format!("riff size {riff}")));
    }
    // A `fmt ` chunk claiming fewer than 16 bytes is not a format.
    let mut bytes = valid.clone();
    bytes[16..20].copy_from_slice(&15u32.to_le_bytes());
    assert!(!check(&bytes, "short fmt"));
    // A `fmt ` chunk claiming the whole address space swallows `data`.
    let mut bytes = valid.clone();
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(!check(&bytes, "huge fmt"));
    // An empty data chunk is refused.
    assert!(!check(&wav_bytes(1, 1, 48_000, 16, &[], &[]), "empty data"));
    // A lone odd byte of data holds no sample.
    assert!(!check(
        &wav_bytes(1, 1, 48_000, 16, &[], &[0x7f]),
        "one byte of data"
    ));
}
