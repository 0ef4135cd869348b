//! `earsonar` — the command-line face of the reproduction.
//!
//! ```text
//! earsonar simulate --patients 4 --seed 7 --out ./sessions
//! earsonar train    --patients 24 --seed 7 --model earsonar.model
//! earsonar screen   --model earsonar.model ./sessions/*.wav
//! earsonar eval     --patients 32 --seed 7
//! ```
//!
//! `simulate` writes each session as a float32 WAV plus a `manifest.tsv`
//! with ground truth; `screen` reads WAVs back through the full pipeline.

use earsonar::diagnostics::CaptureDiagnostics;
use earsonar::eval::{loocv, ExtractedDataset};
use earsonar::model_io::{load_model, load_model_as, save_model};
use earsonar::quality::SessionQuality;
use earsonar::report::{pct, Table};
use earsonar::screening::{
    resolve_stream, InconclusiveReason, RetryPolicy, ScreeningOutcome, ScreeningVerdict,
};
use earsonar::streaming::ChirpStream;
use earsonar::{EarSonar, EarSonarConfig, MeeState};
use earsonar_dsp::plan::DspScratch;
use earsonar_dsp::wav::{write_wav, WavAudio, WavFormat};
use earsonar_engine::{EngineConfig, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use earsonar_signal::source::{SignalError, SignalSource};
use earsonar_signal::wav::WavSignalSource;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
earsonar — acoustic middle-ear-effusion screening (EarSonar reproduction)

USAGE:
  earsonar simulate [--patients N] [--seed S] --out DIR
      Simulate a cohort's sessions as float32 WAV files + manifest.tsv.
  earsonar train    [--patients N] [--seed S] [--backend NAME] --model FILE
      Train the pipeline on a simulated cohort and save the model. With
      --backend, train one of the registered feature/classifier backends
      instead of the reference pipeline.
  earsonar screen   --model FILE [--backend NAME] [--min-chirps N] [--quorum N] WAV [WAV...]
      Screen recordings chirp by chirp through the streaming front end,
      reporting per-chirp progress and a signal-quality verdict; with
      --min-chirps N, stop pushing as soon as N chirps have produced
      usable echoes. --quorum N sets how many quality-accepted,
      echo-yielding chirps a recording needs for a conclusive verdict.
      --backend NAME requires the model file to use that backend and
      fails the run otherwise (a guard for scripted deployments).
  earsonar screen-wav --model FILE [--backend NAME] [--quorum N] [--workers N] WAV [WAV...]
      Screen a WAV queue through the multi-session engine with at most
      N recordings open at once (default 1), drained by up to N worker
      threads, then print a per-cause summary of skipped captures. The
      drain never starts more threads than the host has cores, so an N
      beyond the core count only raises how many files are open. Verdict
      lines and exit codes are identical to `screen` at every N;
      --min-chirps applies to `screen` only.
  earsonar eval     [--patients N] [--seed S]
      Leave-one-participant-out evaluation on a simulated cohort.
  earsonar inspect  --model FILE [--backend NAME] WAV [WAV...]
      Show what the pipeline sees inside recordings (IR, spectrum, dip).

All three WAV commands read files one at a time through the same capture
loop and print one line per file, in file order.

Defaults: --patients 16, --seed 7, --quorum 12, --workers 1.
Backends: mfcc-kmeans (reference, default), absorbance-logistic,
absorbance-knn.

Exit codes: 0 every file got a conclusive verdict, 1 broken invocation
(bad flags, unreadable model), 2 at least one file got no conclusive
verdict: it was INCONCLUSIVE (too little usable signal for a trustworthy
verdict) or it failed to decode or to screen.";

struct Args {
    patients: usize,
    seed: u64,
    out: Option<PathBuf>,
    model: Option<PathBuf>,
    min_chirps: Option<usize>,
    quorum: Option<usize>,
    workers: Option<usize>,
    backend: Option<String>,
    files: Vec<PathBuf>,
}

impl Args {
    /// The screening policy these arguments describe. `max_attempts` is 1:
    /// a WAV queue holds distinct recordings, so "retry" would conflate
    /// one file's verdict with the next file's samples.
    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            min_accepted_chirps: self
                .quorum
                .unwrap_or(RetryPolicy::default().min_accepted_chirps),
            ..RetryPolicy::default()
        }
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(String, Args), String> {
    let mut argv = argv.into_iter();
    let _bin = argv.next();
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut args = Args {
        patients: 16,
        seed: 7,
        out: None,
        model: None,
        min_chirps: None,
        quorum: None,
        workers: None,
        backend: None,
        files: Vec::new(),
    };
    let mut rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--patients" => {
                i += 1;
                args.patients = rest
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--patients needs a number")?;
            }
            "--seed" => {
                i += 1;
                args.seed = rest
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--out" => {
                i += 1;
                args.out = Some(PathBuf::from(rest.get(i).ok_or("--out needs a directory")?));
            }
            "--model" => {
                i += 1;
                args.model = Some(PathBuf::from(rest.get(i).ok_or("--model needs a path")?));
            }
            "--min-chirps" => {
                i += 1;
                args.min_chirps = Some(
                    rest.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--min-chirps needs a number")?,
                );
            }
            "--quorum" => {
                i += 1;
                args.quorum = Some(
                    rest.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--quorum needs a number")?,
                );
            }
            "--workers" => {
                i += 1;
                let n: usize = rest
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers needs a number")?;
                if n == 0 {
                    return Err("--workers needs at least 1".into());
                }
                args.workers = Some(n);
            }
            "--backend" => {
                i += 1;
                args.backend = Some(rest.get(i).ok_or("--backend needs a name")?.clone());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n\n{USAGE}"));
            }
            _ => {
                args.files.push(PathBuf::from(rest.remove(i)));
                // `remove` shifted the next element into position i.
                continue;
            }
        }
        i += 1;
    }
    Ok((command, args))
}

fn build_dataset(patients: usize, seed: u64) -> Dataset {
    Dataset::build(
        &Cohort::generate(patients, seed),
        &DatasetSpec {
            sessions_per_state: 2,
            config: Default::default(),
            seed,
        },
    )
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let out = args.out.as_ref().ok_or("simulate requires --out DIR")?;
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let data = build_dataset(args.patients, args.seed);
    let mut manifest = String::from("file\tpatient\tday\tstate\n");
    for (i, s) in data.sessions.iter().enumerate() {
        let name = format!(
            "session_{:04}_p{:03}_d{:02}_{}.wav",
            i,
            s.patient_id,
            s.day,
            s.ground_truth.label().to_lowercase()
        );
        let path = out.join(&name);
        write_wav(
            &path,
            &WavAudio {
                samples: s.recording.samples.clone(),
                sample_rate: s.recording.sample_rate as u32,
            },
            WavFormat::Float32,
        )
        .map_err(|e| format!("writing {path:?}: {e}"))?;
        manifest.push_str(&format!(
            "{name}\t{}\t{}\t{}\n",
            s.patient_id,
            s.day,
            s.ground_truth.label()
        ));
    }
    std::fs::write(out.join("manifest.tsv"), manifest)
        .map_err(|e| format!("writing manifest: {e}"))?;
    println!(
        "wrote {} sessions for {} patients to {}",
        data.sessions.len(),
        args.patients,
        out.display()
    );
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let model_path = args.model.as_ref().ok_or("train requires --model FILE")?;
    let backend = args
        .backend
        .as_deref()
        .unwrap_or(earsonar::backend::REFERENCE_BACKEND);
    let data = build_dataset(args.patients, args.seed);
    eprintln!(
        "training backend `{backend}` on {} sessions from {} patients…",
        data.sessions.len(),
        args.patients
    );
    let system = EarSonar::fit_backend(&data.sessions, &EarSonarConfig::default(), backend)
        .map_err(|e| format!("training failed: {e}{}", backend_hint()))?;
    save_model(model_path, &system).map_err(|e| format!("saving model: {e}"))?;
    println!("model saved to {}", model_path.display());
    Ok(())
}

/// The registered backend names, for error messages about bad `--backend`.
fn backend_hint() -> String {
    let names: Vec<&str> = earsonar::backend::registry()
        .iter()
        .map(|s| s.name)
        .collect();
    format!(" (registered backends: {})", names.join(", "))
}

/// Loads a model, optionally requiring it to use the named backend.
fn load_pinned(path: &Path, backend: Option<&str>) -> Result<EarSonar, String> {
    match backend {
        Some(name) => load_model_as(path, name),
        None => load_model(path),
    }
    .map_err(|e| format!("loading model: {e}{}", backend_hint()))
}

/// One-line signal-quality summary for a screened recording.
fn quality_line(q: &SessionQuality) -> String {
    let causes = q.rejections.summary();
    format!(
        "{}/{} chirps accepted{}, mean quality {:.2}, confidence {:.2}",
        q.chirps_accepted,
        q.chirps_pushed,
        if causes.is_empty() {
            String::new()
        } else {
            format!(" ({causes} rejected)")
        },
        q.mean_quality,
        q.confidence()
    )
}

/// Result line for a conclusive or inconclusive screening outcome.
fn outcome_line(outcome: &ScreeningOutcome) -> String {
    match outcome {
        ScreeningOutcome::Conclusive(r) => {
            let verdict = match r.verdict {
                ScreeningVerdict::Clear => "clear".to_string(),
                ScreeningVerdict::EffusionDetected { state } => format!("EFFUSION ({state})"),
            };
            format!("{verdict} (confidence {:.2})", r.confidence)
        }
        ScreeningOutcome::Inconclusive(r) => {
            let why = match r.reason {
                InconclusiveReason::QuorumNotMet {
                    needed,
                    best_usable,
                } => {
                    format!("only {best_usable} of the {needed} required usable chirps")
                }
                InconclusiveReason::SourceExhausted => "no capture available".to_string(),
                InconclusiveReason::NoUsableEcho => "no usable eardrum echo".to_string(),
                InconclusiveReason::LowConfidence => "signal quality too low".to_string(),
            };
            format!("INCONCLUSIVE ({why}) — re-measure in quieter conditions")
        }
    }
}

/// Pushes one recording chirp by chirp through a streaming front end,
/// printing progress, and returns the quality-gated screening outcome.
/// With `min_chirps`, stops pushing as soon as that many chirps yielded
/// usable echoes. The decision itself is `earsonar::screening::resolve_stream`,
/// the same one `screen_recording_quality` and the engine end in.
fn screen_streaming(
    system: &EarSonar,
    rec: &Recording,
    min_chirps: Option<usize>,
    policy: &RetryPolicy,
) -> Result<ScreeningOutcome, String> {
    let fe = system.front_end();
    let mut scratch = DspScratch::new();
    let mut stream = ChirpStream::new(fe);
    let mut early = false;
    for c in 0..rec.n_chirps {
        let window = rec
            .try_chirp_window(c)
            .ok_or("chirp window out of recording bounds")?;
        stream
            .push_chirp_with(fe, &mut scratch, window)
            .map_err(|e| e.to_string())?;
        if c % 200 == 199 || c + 1 == rec.n_chirps {
            eprint!(
                "\r  chirp {}/{} ({} usable)",
                c + 1,
                rec.n_chirps,
                stream.chirps_used()
            );
        }
        if min_chirps.is_some_and(|min| stream.ready(min)) {
            early = true;
            break;
        }
    }
    let quality = stream.quality();
    eprintln!(
        "\r  {} chirps pushed, {} usable{}",
        quality.chirps_pushed,
        stream.chirps_used(),
        if early { " (stopped early)" } else { "" }
    );
    eprintln!("  quality: {}", quality_line(&quality));
    resolve_stream(system, &mut scratch, stream, policy).map_err(|e| e.to_string())
}

/// Loads the model a WAV command runs on, after checking the command has
/// files to read.
fn wav_command_model(args: &Args, command: &str) -> Result<EarSonar, String> {
    let model_path = args
        .model
        .as_ref()
        .ok_or_else(|| format!("{command} requires --model FILE"))?;
    if args.files.is_empty() {
        return Err(format!("{command} requires at least one WAV file"));
    }
    load_pinned(model_path, args.backend.as_deref())
}

/// The one capture loop behind `screen`, `screen-wav` and `inspect`: drains
/// the WAV queue through [`WavSignalSource`] on the model's chirp grid,
/// exactly like a live capture backend, one capture at a time, handing
/// each file's label and capture to `visit`. A failed capture is counted
/// under its cause and the loop moves on to the next file.
fn for_each_capture(
    system: &EarSonar,
    files: &[PathBuf],
    mut visit: impl FnMut(String, Result<Recording, SignalError>) -> Result<(), String>,
) -> Result<CaptureDiagnostics, String> {
    let layout = system.front_end().config().layout();
    let mut source = WavSignalSource::new(layout, files.to_vec());
    let mut captures = CaptureDiagnostics::default();
    while let Some(label) = source.next_path().map(|p| p.display().to_string()) {
        let capture = match source.capture() {
            Ok(None) => break,
            Ok(Some(rec)) => Ok(rec),
            Err(e) => {
                captures.record_failure(&e);
                Err(e)
            }
        };
        captures.attempted += 1;
        captures.succeeded += usize::from(capture.is_ok());
        visit(label, capture)?;
    }
    Ok(captures)
}

/// Prints one file's verdict line and returns whether it was conclusive.
/// A file that failed to decode or to screen is not.
fn report_verdict(
    out: &mut dyn Write,
    label: &str,
    result: Result<ScreeningOutcome, String>,
) -> Result<bool, String> {
    let (line, conclusive) = match result {
        Ok(outcome) => (outcome_line(&outcome), outcome.is_conclusive()),
        Err(e) => (format!("error: {e}"), false),
    };
    writeln!(out, "{label}\t{line}").map_err(|e| format!("writing output: {e}"))?;
    Ok(conclusive)
}

fn cmd_screen(args: &Args, out: &mut dyn Write) -> Result<bool, String> {
    let system = wav_command_model(args, "screen")?;
    let policy = args.policy();
    let mut all_conclusive = true;
    for_each_capture(&system, &args.files, |label, capture| {
        eprintln!("screening {label}…");
        let result = capture
            .map_err(|e| e.to_string())
            .and_then(|rec| screen_streaming(&system, &rec, args.min_chirps, &policy));
        all_conclusive &= report_verdict(out, &label, result)?;
        Ok(())
    })?;
    Ok(all_conclusive)
}

/// Resolves every session open in `engine` and prints the verdict lines of
/// `batch` — the files read since the last drain, each with its capture
/// error if it failed — in file order. Session ids are batch positions.
fn drain_batch(
    engine: &ScreeningEngine,
    workers: usize,
    batch: &mut Vec<(String, Option<String>)>,
    out: &mut dyn Write,
) -> Result<bool, String> {
    engine.drain(workers);
    // Sorted by session id, i.e. in batch order.
    let mut completed = engine.take_completed().into_iter();
    let mut all_conclusive = true;
    for (i, (label, failure)) in batch.drain(..).enumerate() {
        let result = match failure {
            Some(e) => Err(e),
            None => completed
                .find(|done| done.id == SessionId(i as u64))
                .ok_or_else(|| "engine session did not resolve".to_string())
                .and_then(|done| done.outcome.map_err(|e| e.to_string())),
        };
        all_conclusive &= report_verdict(out, &label, result)?;
    }
    Ok(all_conclusive)
}

/// Screens the WAV queue through the multi-session engine: each recording
/// is opened as a session and pushed as one chunk (chunking never changes
/// a verdict), and once `workers` sessions are open they are drained by up
/// to `workers` threads (capped at the host's cores) before the next file
/// is read. A 1-worker
/// engine is bit-identical to sequential screening, so the verdicts match
/// `screen` at every worker count.
fn cmd_screen_wav(args: &Args, out: &mut dyn Write) -> Result<bool, String> {
    let system = wav_command_model(args, "screen-wav")?;
    let workers = args.workers.unwrap_or(1);
    let engine = ScreeningEngine::new(
        &system,
        EngineConfig {
            max_sessions: workers,
            policy: args.policy(),
            ..EngineConfig::default()
        },
    );
    let mut batch: Vec<(String, Option<String>)> = Vec::new();
    let mut all_conclusive = true;
    let captures = for_each_capture(&system, &args.files, |label, capture| {
        let rec = match capture {
            Ok(rec) => rec,
            Err(e) => {
                batch.push((label, Some(e.to_string())));
                return Ok(());
            }
        };
        if engine.in_flight() == workers {
            all_conclusive &= drain_batch(&engine, workers, &mut batch, out)?;
        }
        let id = SessionId(batch.len() as u64);
        engine
            .open(id)
            .and_then(|()| engine.push(id, &rec.samples))
            .and_then(|()| engine.close(id))
            .map_err(|e| format!("{label}: engine session: {e}"))?;
        batch.push((label, None));
        Ok(())
    })?;
    all_conclusive &= drain_batch(&engine, workers, &mut batch, out)?;
    writeln!(out, "captures: {}", captures.summary())
        .map_err(|e| format!("writing output: {e}"))?;
    Ok(all_conclusive)
}

fn cmd_inspect(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let system = wav_command_model(args, "inspect")?;
    for_each_capture(&system, &args.files, |label, capture| {
        let report = capture.map_err(|e| e.to_string()).and_then(|rec| {
            earsonar::diagnostics::inspect_recording(system.front_end(), &rec)
                .map_err(|e| e.to_string())
        });
        match report {
            Ok(report) => write!(out, "== {label}\n{report}"),
            Err(e) => writeln!(out, "== {label}\nerror: {e}"),
        }
        .map_err(|e| format!("writing output: {e}"))
    })?;
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let cfg = EarSonarConfig::default();
    let data = build_dataset(args.patients, args.seed);
    eprintln!(
        "evaluating LOOCV over {} patients ({} sessions)…",
        args.patients,
        data.sessions.len()
    );
    let ex = ExtractedDataset::extract(&data.sessions, &cfg)
        .map_err(|e| format!("feature extraction: {e}"))?;
    let report = loocv(&ex, &cfg).map_err(|e| format!("evaluation: {e}"))?;
    let mut t = Table::new("per-state performance");
    t.header(["state", "precision", "recall", "F1"]);
    for s in MeeState::ALL {
        let k = s.index();
        t.row([
            s.label().to_string(),
            pct(report.precision[k]),
            pct(report.recall[k]),
            pct(report.f1[k]),
        ]);
    }
    print!("{}", t.render());
    println!("overall accuracy: {}", pct(report.accuracy));
    Ok(())
}

/// Runs one command, writing the WAV commands' per-file lines to `out`,
/// and returns the process exit status.
fn run(command: &str, args: &Args, out: &mut dyn Write) -> u8 {
    // Screening commands report whether every file reached a conclusive
    // verdict; `false` maps to the distinct exit code 2 so scripts can
    // tell "measure again" from "broken invocation".
    let result = match command {
        "simulate" => cmd_simulate(args).map(|()| true),
        "train" => cmd_train(args).map(|()| true),
        "screen" => cmd_screen(args, out),
        "screen-wav" => cmd_screen_wav(args, out),
        "eval" => cmd_eval(args).map(|()| true),
        "inspect" => cmd_inspect(args, out).map(|()| true),
        _ => Err(format!("unknown command `{command}`\n\n{USAGE}")),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 2,
        Err(msg) => {
            eprintln!("{msg}");
            1
        }
    }
}

fn main() -> ExitCode {
    let (command, args) = match parse_args(std::env::args()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    ExitCode::from(run(&command, &args, &mut std::io::stdout().lock()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar::screening::screen_recording_quality;
    use earsonar_sim::faults::Fault;
    use std::sync::OnceLock;

    /// A six-patient cohort and the reference system fitted on it, shared
    /// by the tests in this module.
    fn fitted() -> &'static (Dataset, EarSonar) {
        static FITTED: OnceLock<(Dataset, EarSonar)> = OnceLock::new();
        FITTED.get_or_init(|| {
            let data = build_dataset(6, 2023);
            let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
            (data, system)
        })
    }

    #[test]
    fn screen_streaming_decides_like_screen_recording_quality() {
        // Without an early stop, the chirp-by-chirp CLI path must reach the
        // library's decision bit for bit: the same verdict, confidence and
        // quality on a clean capture, and the same `Inconclusive` reason
        // under every standard fault.
        let (data, system) = fitted();
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let clean = data.sessions[0].recording.clone();
        let mut cases = vec![("clean", clean.clone())];
        for fault in Fault::standard_suite(0.9) {
            let mut rec = clean.clone();
            fault.apply(&mut rec, 31);
            cases.push((fault.name(), rec));
        }
        let mut inconclusive = 0;
        for (name, rec) in &cases {
            let cli = screen_streaming(system, rec, None, &policy).expect("cli screening");
            let lib = screen_recording_quality(system, rec, &policy).expect("library screening");
            assert_eq!(cli, lib, "{name}");
            inconclusive += usize::from(!lib.is_conclusive());
        }
        assert!(inconclusive > 0, "the fault suite must exercise refusals");
    }

    /// Writes `samples` as a two-channel float32 WAV whose channels differ
    /// (left `s`, right `s / 2`), so the decoder's mixdown does real work.
    fn write_stereo_f32(path: &Path, samples: &[f64], rate: u32) {
        let data_len = (samples.len() * 8) as u32;
        let mut bytes = Vec::new();
        for field in [
            &b"RIFF"[..],
            &(36 + data_len).to_le_bytes(),
            b"WAVEfmt ",
            &16u32.to_le_bytes(),
            &3u16.to_le_bytes(), // IEEE float
            &2u16.to_le_bytes(), // channels
            &rate.to_le_bytes(),
            &(rate * 8).to_le_bytes(),
            &8u16.to_le_bytes(),
            &32u16.to_le_bytes(),
            b"data",
            &data_len.to_le_bytes(),
        ] {
            bytes.extend_from_slice(field);
        }
        for &s in samples {
            bytes.extend_from_slice(&(s as f32).to_le_bytes());
            bytes.extend_from_slice(&((0.5 * s) as f32).to_le_bytes());
        }
        std::fs::write(path, bytes).expect("write stereo wav");
    }

    #[test]
    fn screening_surfaces_print_the_same_verdicts_and_exit_status() {
        // One queue — clean, shorter than one chirp hop, clean, two-channel
        // float32 — through `screen`, `screen-wav` and `screen-wav
        // --workers 2`: the same verdict lines in file order and the same
        // nonzero exit status, since the short file gets no verdict.
        let (data, system) = fitted();
        let config = system.front_end().config();
        let rate = config.sample_rate as u32;
        let dir = std::env::temp_dir().join(format!("earsonar_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let model = dir.join("earsonar.model");
        save_model(&model, system).expect("save model");
        let mono = |name: &str, samples: &[f64]| {
            let path = dir.join(name);
            let audio = WavAudio {
                samples: samples.to_vec(),
                sample_rate: rate,
            };
            write_wav(&path, &audio, WavFormat::Float32).expect("write wav");
            path
        };
        let stereo = dir.join("3_stereo.wav");
        write_stereo_f32(&stereo, &data.sessions[3].recording.samples, rate);
        let files = [
            mono("0_clean.wav", &data.sessions[0].recording.samples),
            mono(
                "1_truncated.wav",
                &data.sessions[1].recording.samples[..config.chirp_hop / 2],
            ),
            mono("2_clean.wav", &data.sessions[2].recording.samples),
            stereo,
        ];

        let model_arg = model.display().to_string();
        let run_cli = |command: &str, flags: &[&str]| {
            let argv = ["earsonar", command, "--model", &model_arg]
                .into_iter()
                .chain(flags.iter().copied())
                .map(String::from)
                .chain(files.iter().map(|f| f.display().to_string()));
            let (command, args) = parse_args(argv).expect("arguments");
            let mut out = Vec::new();
            let status = run(&command, &args, &mut out);
            let verdicts: Vec<String> = String::from_utf8(out)
                .expect("utf-8 output")
                .lines()
                .filter(|line| line.contains('\t'))
                .map(String::from)
                .collect();
            (status, verdicts)
        };

        let screen = run_cli("screen", &[]);
        assert_eq!(screen.1.len(), files.len(), "{:?}", screen.1);
        for (line, file) in screen.1.iter().zip(&files) {
            assert!(line.starts_with(&format!("{}\t", file.display())), "{line}");
        }
        assert!(screen.1[1].contains("\terror: "), "{}", screen.1[1]);
        assert!(!screen.1[3].contains("\terror: "), "{}", screen.1[3]);
        assert_eq!(screen.0, 2);
        assert_eq!(run_cli("screen-wav", &[]), screen);
        assert_eq!(run_cli("screen-wav", &["--workers", "2"]), screen);
        let _ = std::fs::remove_dir_all(dir);
    }
}
