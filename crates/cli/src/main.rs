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
use earsonar::screening::{resolve_stream, InconclusiveReason, RetryPolicy, ScreeningOutcome};
use earsonar::streaming::StreamingFrontEnd;
use earsonar::{EarSonar, EarSonarConfig, MeeState};
use earsonar_dsp::wav::{write_wav, WavAudio, WavFormat};
use earsonar_signal::recording::{ChirpLayout, Recording};
use earsonar_signal::source::SignalSource;
use earsonar_signal::wav::WavSignalSource;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
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
      Screen a WAV queue through the SignalSource capture interface (the
      same code path a live capture backend would use), with a per-cause
      summary of skipped captures at the end. With --workers N, all files
      are multiplexed through the concurrent session engine and drained
      by N worker threads; verdicts and exit codes are identical to the
      sequential path (--min-chirps early stop does not apply there).
  earsonar eval     [--patients N] [--seed S]
      Leave-one-participant-out evaluation on a simulated cohort.
  earsonar inspect  --model FILE WAV [WAV...]
      Show what the pipeline sees inside recordings (IR, spectrum, dip).

Defaults: --patients 16, --seed 7, --quorum 12.
Backends: mfcc-kmeans (reference, default), absorbance-logistic,
absorbance-knn.

Exit codes: 0 all conclusive, 1 error, 2 at least one recording was
INCONCLUSIVE (too little usable signal for a trustworthy verdict).";

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
            min_accepted_chirps: self.quorum.unwrap_or(RetryPolicy::default().min_accepted_chirps),
            ..RetryPolicy::default()
        }
    }
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
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
                args.out = Some(PathBuf::from(
                    rest.get(i).ok_or("--out needs a directory")?,
                ));
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
    let backend = args.backend.as_deref().unwrap_or(earsonar::backend::REFERENCE_BACKEND);
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

/// The chirp grid a model's configuration expects of its recordings.
fn chirp_layout(config: &EarSonarConfig) -> ChirpLayout {
    ChirpLayout {
        sample_rate: config.sample_rate,
        chirp_len: config.chirp_len,
        chirp_hop: config.chirp_hop,
    }
}

/// Reads a WAV file and frames it on the model's chirp grid.
fn recording_from_wav(path: &Path, config: &EarSonarConfig) -> Result<Recording, String> {
    earsonar_signal::wav::recording_from_wav(path, &chirp_layout(config))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn verdict_line(state: MeeState) -> String {
    if state == MeeState::Clear {
        "clear".to_string()
    } else {
        format!("EFFUSION ({state})")
    }
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
            format!("{} (confidence {:.2})", verdict_line(r.state), r.confidence)
        }
        ScreeningOutcome::Inconclusive(r) => {
            let why = match r.reason {
                InconclusiveReason::QuorumNotMet { needed, best_usable } => {
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
    let mut stream = StreamingFrontEnd::new(system.front_end());
    let mut early = false;
    for c in 0..rec.n_chirps {
        let window = rec
            .try_chirp_window(c)
            .ok_or("chirp window out of recording bounds")?;
        stream.push_chirp(window).map_err(|e| e.to_string())?;
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
    let (stream, mut scratch) = stream.into_parts();
    resolve_stream(system, &mut scratch, stream, policy).map_err(|e| e.to_string())
}

fn cmd_screen(args: &Args) -> Result<bool, String> {
    let model_path = args.model.as_ref().ok_or("screen requires --model FILE")?;
    if args.files.is_empty() {
        return Err("screen requires at least one WAV file".into());
    }
    let system = load_pinned(model_path, args.backend.as_deref())?;
    let config = system.front_end().config().clone();
    let policy = args.policy();
    let mut inconclusive = 0usize;
    for file in &args.files {
        eprintln!("screening {}…", file.display());
        match recording_from_wav(file, &config)
            .and_then(|rec| screen_streaming(&system, &rec, args.min_chirps, &policy))
        {
            Ok(outcome) => {
                if !outcome.is_conclusive() {
                    inconclusive += 1;
                }
                println!("{}\t{}", file.display(), outcome_line(&outcome));
            }
            Err(e) => println!("{}\terror: {e}", file.display()),
        }
    }
    Ok(inconclusive == 0)
}

/// Routes every captured WAV through the concurrent session engine: one
/// session per file, samples pushed round-robin in chirp-hop chunks so the
/// streams genuinely interleave, drained by `workers` threads. Verdicts
/// are bit-identical to the sequential path (the engine's contract), so
/// the exit-code semantics are unchanged.
fn screen_wav_concurrent(
    system: &EarSonar,
    layout: ChirpLayout,
    policy: &RetryPolicy,
    files: &[PathBuf],
    workers: usize,
) -> Result<bool, String> {
    use earsonar_engine::{EngineConfig, Rejected, ScreeningEngine, SessionId};

    // Capture the whole queue first, counting failures per cause exactly
    // like the sequential drain loop.
    let mut source = WavSignalSource::new(layout, files.to_vec());
    let mut captures = CaptureDiagnostics::default();
    let mut labeled: Vec<(String, Option<Recording>)> = Vec::new();
    loop {
        let label = source
            .next_path()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| source.describe());
        captures.attempted += 1;
        match source.capture() {
            Ok(None) => {
                captures.attempted -= 1;
                break;
            }
            Ok(Some(rec)) => {
                captures.succeeded += 1;
                labeled.push((label, Some(rec)));
            }
            Err(e) => {
                captures.record_failure(&e);
                println!("{label}\terror: {e}");
                labeled.push((label, None));
            }
        }
    }

    let config = EngineConfig {
        max_sessions: labeled.len().max(1),
        policy: *policy,
        ..EngineConfig::default()
    };
    let engine = ScreeningEngine::new(system, config);
    let mut streaming: Vec<bool> = Vec::with_capacity(labeled.len());
    for (i, (label, rec)) in labeled.iter().enumerate() {
        if rec.is_some() {
            engine
                .open(SessionId(i as u64))
                .map_err(|e| format!("{label}: opening engine session: {e}"))?;
        }
        streaming.push(rec.is_some());
    }

    // Round-robin pump: one hop-sized chunk per open session per pass; a
    // full queue is backpressure, drained and retried on the next pass.
    let hop = layout.chirp_hop.max(1);
    let mut cursor = vec![0usize; labeled.len()];
    let mut in_progress = streaming.iter().filter(|&&s| s).count();
    while in_progress > 0 {
        for (i, (label, rec)) in labeled.iter().enumerate() {
            let Some(rec) = rec.as_ref().filter(|_| streaming[i]) else {
                continue;
            };
            let lo = cursor[i] * hop;
            if lo >= rec.samples.len() {
                engine
                    .close(SessionId(i as u64))
                    .map_err(|e| format!("{label}: closing engine session: {e}"))?;
                streaming[i] = false;
                in_progress -= 1;
                continue;
            }
            let hi = (lo + hop).min(rec.samples.len());
            match engine.push(SessionId(i as u64), &rec.samples[lo..hi]) {
                Ok(()) => cursor[i] += 1,
                Err(Rejected::QueueFull { .. }) => {
                    engine.drain(workers);
                }
                Err(e) => return Err(format!("{label}: engine push: {e}")),
            }
        }
    }
    engine.drain(workers);

    // `take_completed` returns sessions sorted by id, i.e. file order.
    let mut inconclusive = 0usize;
    for done in engine.take_completed() {
        let (label, _) = &labeled[done.id.0 as usize];
        match &done.outcome {
            Ok(outcome) => {
                if !outcome.is_conclusive() {
                    inconclusive += 1;
                }
                println!("{label}\t{}", outcome_line(outcome));
            }
            Err(e) => println!("{label}\terror: {e}"),
        }
    }
    println!("captures: {}", captures.summary());
    Ok(inconclusive == 0)
}

fn cmd_screen_wav(args: &Args) -> Result<bool, String> {
    let model_path = args
        .model
        .as_ref()
        .ok_or("screen-wav requires --model FILE")?;
    if args.files.is_empty() {
        return Err("screen-wav requires at least one WAV file".into());
    }
    let system = load_pinned(model_path, args.backend.as_deref())?;
    let layout = chirp_layout(system.front_end().config());
    let policy = args.policy();
    if let Some(workers) = args.workers {
        return screen_wav_concurrent(&system, layout, &policy, &args.files, workers);
    }
    let mut source = WavSignalSource::new(layout, args.files.clone());
    let mut captures = CaptureDiagnostics::default();
    let mut inconclusive = 0usize;
    // Drain the capture queue exactly like a live backend: one capture at
    // a time, failures are counted per cause and skip to the next capture.
    loop {
        let label = source
            .next_path()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| source.describe());
        captures.attempted += 1;
        match source.capture() {
            Ok(None) => {
                // Exhaustion is not an attempt.
                captures.attempted -= 1;
                break;
            }
            Ok(Some(rec)) => {
                captures.succeeded += 1;
                match screen_streaming(&system, &rec, args.min_chirps, &policy) {
                    Ok(outcome) => {
                        if !outcome.is_conclusive() {
                            inconclusive += 1;
                        }
                        println!("{label}\t{}", outcome_line(&outcome));
                    }
                    Err(e) => println!("{label}\terror: {e}"),
                }
            }
            Err(e) => {
                captures.record_failure(&e);
                println!("{label}\terror: {e}");
            }
        }
    }
    println!("captures: {}", captures.summary());
    Ok(inconclusive == 0)
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let model_path = args.model.as_ref().ok_or("inspect requires --model FILE")?;
    if args.files.is_empty() {
        return Err("inspect requires at least one WAV file".into());
    }
    let system = load_model(model_path).map_err(|e| format!("loading model: {e}"))?;
    let config = system.front_end().config().clone();
    for file in &args.files {
        println!("== {}", file.display());
        match recording_from_wav(file, &config).and_then(|rec| {
            earsonar::diagnostics::inspect_recording(system.front_end(), &rec)
                .map_err(|e| e.to_string())
        }) {
            Ok(report) => print!("{report}"),
            Err(e) => println!("error: {e}"),
        }
    }
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

fn main() -> ExitCode {
    let (command, args) = match parse_args(std::env::args()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Screening commands report whether every recording reached a
    // conclusive verdict; `false` maps to the distinct exit code 2 so
    // scripts can tell "measure again" from "broken invocation".
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&args).map(|()| true),
        "train" => cmd_train(&args).map(|()| true),
        "screen" => cmd_screen(&args),
        "screen-wav" => cmd_screen_wav(&args),
        "eval" => cmd_eval(&args).map(|()| true),
        "inspect" => cmd_inspect(&args).map(|()| true),
        _ => Err(format!("unknown command `{command}`\n\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar::screening::screen_recording_quality;
    use earsonar_sim::faults::Fault;

    #[test]
    fn screen_streaming_decides_like_screen_recording_quality() {
        // Without an early stop, the chirp-by-chirp CLI path must reach the
        // library's decision bit for bit: the same verdict, confidence and
        // quality on a clean capture, and the same `Inconclusive` reason
        // under every standard fault.
        let data = build_dataset(6, 2023);
        let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
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
            let cli = screen_streaming(&system, rec, None, &policy).expect("cli screening");
            let lib = screen_recording_quality(&system, rec, &policy).expect("library screening");
            assert_eq!(cli, lib, "{name}");
            inconclusive += usize::from(!lib.is_conclusive());
        }
        assert!(inconclusive > 0, "the fault suite must exercise refusals");
    }
}
