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
//! with ground truth; `screen` screens WAVs through the session engine.

use earsonar::diagnostics::CaptureDiagnostics;
use earsonar::eval::{loocv, ExtractedDataset};
use earsonar::model_io::{load_model, load_model_as, save_model};
use earsonar::quality::SessionQuality;
use earsonar::report::{pct, Table};
use earsonar::screening::{InconclusiveReason, RetryPolicy, ScreeningOutcome, ScreeningVerdict};
use earsonar::{EarSonar, EarSonarConfig, MeeState};
use earsonar_dsp::wav::{write_wav, WavAudio, WavFormat};
use earsonar_engine::{EngineConfig, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use earsonar_signal::source::{SignalError, SignalSource};
use earsonar_signal::wav::WavSignalSource;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use std::io::Write;
use std::path::PathBuf;
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
  earsonar screen   --model FILE [--backend NAME] [--quorum N] [--workers N] WAV [WAV...]
      Screen a WAV queue through the multi-session engine with at most
      N recordings open at once (default 1), drained by up to N worker
      threads, then print a per-cause summary of skipped captures. The
      drain never starts more threads than the host has cores, so an N
      beyond the core count only raises how many files are open; verdict
      lines and exit codes are identical at every N. Each file's
      signal-quality summary goes to stderr. --quorum N sets how many
      quality-accepted, echo-yielding chirps a recording needs for a
      conclusive verdict. --backend NAME requires the model file to use
      that backend and fails the run otherwise (a guard for scripted
      deployments).
  earsonar eval     [--patients N] [--seed S]
      Leave-one-participant-out evaluation on a simulated cohort.
  earsonar inspect  --model FILE [--backend NAME] WAV [WAV...]
      Show what the pipeline sees inside recordings (IR, spectrum, dip).

Both WAV commands read files one at a time through the same capture
loop and print one line per file, in file order. Each command takes only
the flags shown for it, and only screen and inspect take files; anything
else is refused.

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
    quorum: Option<usize>,
    workers: usize,
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

/// Parses the number that follows `flag`.
fn number<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(String, Args), String> {
    let mut argv = argv.into_iter();
    let _bin = argv.next();
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    // The flags each command reads, and whether it reads WAV files: any
    // other argument would be silently ignored, so it is refused.
    let (flags, takes_files): (&[&str], bool) = match command.as_str() {
        "simulate" => (&["--patients", "--seed", "--out"], false),
        "train" => (&["--patients", "--seed", "--backend", "--model"], false),
        "screen" => (&["--model", "--backend", "--quorum", "--workers"], true),
        "eval" => (&["--patients", "--seed"], false),
        "inspect" => (&["--model", "--backend"], true),
        "--help" | "-h" => return Err(USAGE.to_string()),
        _ => return Err(format!("unknown command `{command}`\n\n{USAGE}")),
    };
    let mut args = Args {
        patients: 16,
        seed: 7,
        out: None,
        model: None,
        quorum: None,
        workers: 1,
        backend: None,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            return Err(USAGE.to_string());
        }
        if !arg.starts_with("--") {
            if !takes_files {
                return Err(format!("`{command}` takes no files, got {arg}\n\n{USAGE}"));
            }
            args.files.push(PathBuf::from(arg));
            continue;
        }
        if !flags.contains(&arg.as_str()) {
            return Err(format!("`{command}` does not take {arg}\n\n{USAGE}"));
        }
        let value = argv.next();
        match arg.as_str() {
            "--patients" => args.patients = number(value.as_ref(), "--patients")?,
            "--seed" => args.seed = number(value.as_ref(), "--seed")?,
            "--out" => args.out = Some(PathBuf::from(value.ok_or("--out needs a directory")?)),
            "--model" => args.model = Some(PathBuf::from(value.ok_or("--model needs a path")?)),
            "--quorum" => args.quorum = Some(number(value.as_ref(), "--quorum")?),
            "--workers" => {
                args.workers = number(value.as_ref(), "--workers")?;
                if args.workers == 0 {
                    return Err("--workers needs at least 1".into());
                }
            }
            // `--backend`, the one flag left.
            _ => args.backend = Some(value.ok_or("--backend needs a name")?),
        }
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

/// Loads the model a WAV command runs on, after checking the command has
/// files to read; with `--backend`, the model must use that backend.
fn wav_command_model(args: &Args, command: &str) -> Result<EarSonar, String> {
    let model_path = args
        .model
        .as_ref()
        .ok_or_else(|| format!("{command} requires --model FILE"))?;
    if args.files.is_empty() {
        return Err(format!("{command} requires at least one WAV file"));
    }
    match args.backend.as_deref() {
        Some(name) => load_model_as(model_path, name),
        None => load_model(model_path),
    }
    .map_err(|e| format!("loading model: {e}{}", backend_hint()))
}

/// The one capture loop behind `screen` and `inspect`: drains
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

/// Prints one file's verdict line, and its signal-quality summary to
/// stderr when a capture decoded, and returns whether it was conclusive.
/// A file that failed to decode or to screen is not.
fn report_verdict(
    out: &mut dyn Write,
    label: &str,
    result: Result<ScreeningOutcome, String>,
) -> Result<bool, String> {
    let quality = match &result {
        Ok(ScreeningOutcome::Conclusive(r)) => Some(&r.quality),
        Ok(ScreeningOutcome::Inconclusive(r)) => r.quality.as_ref(),
        Err(_) => None,
    };
    if let Some(q) = quality {
        eprintln!("  quality: {label}: {}", quality_line(q));
    }
    let (line, conclusive) = match result {
        Ok(outcome) => (outcome_line(&outcome), outcome.is_conclusive()),
        Err(e) => (format!("error: {e}"), false),
    };
    writeln!(out, "{label}\t{line}").map_err(|e| format!("writing output: {e}"))?;
    Ok(conclusive)
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
/// is read. The engine is bit-identical to sequential screening at every
/// worker count, so the verdicts do not depend on `workers`.
fn cmd_screen(args: &Args, out: &mut dyn Write) -> Result<bool, String> {
    let system = wav_command_model(args, "screen")?;
    let workers = args.workers;
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
        if engine.in_flight() == workers {
            all_conclusive &= drain_batch(&engine, workers, &mut batch, out)?;
        }
        eprintln!("screening {label}…");
        let rec = match capture {
            Ok(rec) => rec,
            Err(e) => {
                batch.push((label, Some(e.to_string())));
                return Ok(());
            }
        };
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
    use std::path::Path;
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
        // float32, then session 0 under every standard fault — through
        // `screen` and `screen --workers 2`: the same verdict lines in file
        // order and the same nonzero exit status, since the short file gets
        // no verdict. Every verdict is the library's sequential decision
        // on the decoded file, and the fault suite exercises refusals.
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
        let clean = &data.sessions[0].recording;
        let mut files = vec![
            mono("0_clean.wav", &clean.samples),
            mono(
                "1_truncated.wav",
                &data.sessions[1].recording.samples[..config.chirp_hop / 2],
            ),
            mono("2_clean.wav", &data.sessions[2].recording.samples),
            stereo,
        ];
        for fault in Fault::standard_suite(0.9) {
            let mut rec = clean.clone();
            fault.apply(&mut rec, 31);
            files.push(mono(&format!("4_{}.wav", fault.name()), &rec.samples));
        }

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
        assert_eq!(run_cli("screen", &["--workers", "2"]), screen);

        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        for (line, file) in screen.1.iter().zip(&files) {
            if line.contains("\terror: ") {
                continue;
            }
            let decoded = WavSignalSource::new(config.layout(), vec![file.clone()])
                .capture()
                .expect("decode")
                .expect("one capture");
            let outcome =
                screen_recording_quality(system, &decoded, &policy).expect("library screening");
            assert_eq!(
                line,
                &format!("{}\t{}", file.display(), outcome_line(&outcome))
            );
        }
        assert!(
            screen.1.iter().any(|line| line.contains("\tINCONCLUSIVE")),
            "the fault suite must exercise refusals: {:?}",
            screen.1
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn commands_refuse_flags_and_files_they_do_not_read() {
        let parse = |argv: &str| parse_args(argv.split_whitespace().map(String::from));
        for (argv, named) in [
            ("earsonar inspect --model m --quorum 5 a.wav", "--quorum"),
            ("earsonar simulate --model m --out d", "--model"),
            ("earsonar eval x.wav", "x.wav"),
            (
                "earsonar eval --patients 2 --quorum 99 bogus.wav",
                "--quorum",
            ),
            ("earsonar train --model m --out d", "--out"),
            (
                "earsonar screen --model m --min-chirps 8 a.wav",
                "--min-chirps",
            ),
        ] {
            let command = argv.split_whitespace().nth(1).unwrap_or_default();
            match parse(argv) {
                Err(msg) => {
                    let first = msg.lines().next().unwrap_or_default();
                    assert!(
                        first.contains(named) && first.contains(&format!("`{command}`")),
                        "{argv}: {first}"
                    );
                }
                Ok(_) => panic!("{argv}: accepted"),
            }
        }
        let (command, args) = parse("earsonar screen --model m --quorum 5 --workers 2 a.wav b.wav")
            .expect("screen flags");
        assert_eq!(command, "screen");
        assert_eq!(
            (args.quorum, args.workers, args.files.len()),
            (Some(5), 2, 2)
        );
        assert!(parse("earsonar inspect --model m --backend absorbance-knn a.wav").is_ok());
        assert!(parse("earsonar train --patients 6 --seed 1 --backend b --model m").is_ok());
    }
}
