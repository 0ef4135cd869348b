//! The four workloads. Each runs in its own process: set-up (timed, and
//! repeated for `setup_s`), a warm-up that is discarded, then the measured
//! loop. With `--trace 1` the loop alternates traced and untraced
//! operations (the engine, an open loop, traces its second half), and
//! `screen-clean` then replays its captures stage by stage.

use crate::host;
use crate::inputs::{
    decode_capture, digest_keys, digest_recordings, eval_sessions, faulty_cases, outcome_key,
    poisson_arrivals, reference_outcome, FaultyCase, Replay, ScreenInputs, WavCapture,
};
use crate::replay::{decision_of, StageReplay, STAGES};
use crate::spec::{pinned, PINNED_SEED};
use crate::stats::{median, percentile, sorted, Fnv};
use crate::trace::{self_times, total_ns, Tracer};
use earsonar::backend::{self, BackendSpec};
use earsonar::eval::{
    ab_compare, loocv_with_backend, AbComparison, BackendScore, ExtractedDataset,
};
use earsonar::pipeline::ChirpOutcome;
use earsonar::screening::{
    resolve_stream, screen_recording_quality, screen_with_retry, RetryPolicy, ScreeningOutcome,
};
use earsonar::streaming::ChirpStream;
use earsonar::{EarSonar, EarSonarConfig, EarSonarError, MeeState};
use earsonar_dsp::plan::DspScratch;
use earsonar_engine::{EngineConfig, Rejected, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Whether `workload` produces the per-layer metric `name`. Every other
/// per-layer metric reads 0 on that workload: it never calls the layer.
pub fn produces(workload: &str, name: &str) -> bool {
    const COMMON: [&str; 4] = ["host.", "generator.", "verdict.", "trace.overhead_frac"];
    let own: &[&str] = match workload {
        "screen-clean" => &["screening.", "streaming.", "wav.", "trace."],
        "screen-faulty" => &["screening.attempts_per_op", "screening.inconclusive_frac"],
        "engine-stream" => &[
            "screening.attempts_per_op",
            "screening.inconclusive_frac",
            "engine.",
            "streaming.chirps_per_capture",
            "streaming.used_frac",
            "streaming.quality_rejected_frac",
            "streaming.no_event_frac",
        ],
        "train-eval" => &["eval.", "ml."],
        _ => &[],
    };
    let stage =
        workload == "screen-clean" && STAGES.iter().any(|s| name.strip_suffix("_us") == Some(*s));
    stage || COMMON.iter().chain(own).any(|p| name.starts_with(p))
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Discarded warm-up before the measured window: a tenth of it.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 10.0)
    }

    fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match workload {
        "screen-clean" => screen_clean(cfg),
        "screen-faulty" => screen_faulty(cfg),
        "engine-stream" => engine_stream(cfg),
        "train-eval" => train_eval(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// 0.07–0.5 s, short enough for a burst of interference to cover most of
/// one, so a run takes several.
const SETUP_REPEATS: usize = 11;

/// Runs the set-up (`SETUP_REPEATS` times when `setup_s` is reported),
/// keeping the last result; returns it with the median set-up time in
/// seconds.
fn set_up<T>(cfg: &RunConfig, f: impl Fn() -> T) -> (T, f64) {
    let reps = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("set-up times (s): {times:?}");
    (last.expect("at least one set-up"), median(&times))
}

/// Checks the set-up's digests against `pins.txt` at the pinned seed.
fn check_pins(workload: &str, seed: u64, input: u64, outcome: u64) -> Result<(), String> {
    eprintln!("digest {workload} seed={seed} input={input:016x} outcome={outcome:016x}");
    if seed != PINNED_SEED {
        return Ok(());
    }
    let (pin_in, pin_out) =
        pinned(workload).ok_or(format!("{workload}: no digests pinned in pins.txt"))?;
    if input != pin_in {
        return Err(format!(
            "{workload}: input digest {input:016x} differs from the pinned {pin_in:016x}: the simulator changed, not the program"
        ));
    }
    if outcome != pin_out {
        return Err(format!(
            "{workload}: outcome digest {outcome:016x} differs from the pinned {pin_out:016x}: the program's verdicts changed"
        ));
    }
    Ok(())
}

/// What one closed-loop operation produced.
struct Op {
    /// Returned `Ok` and equal to the reference outcome.
    ok: bool,
    misclassified: bool,
    inconclusive: bool,
    attempts: usize,
}

/// Scores one screening against its reference; `None` is an operation
/// that returned an error.
fn judge(outcome: Option<&ScreeningOutcome>, reference: &ScreeningOutcome, truth: MeeState) -> Op {
    match outcome {
        Some(o) => Op {
            ok: o == reference,
            misclassified: o.state().is_some_and(|s| s != truth),
            inconclusive: !o.is_conclusive(),
            attempts: match o {
                ScreeningOutcome::Conclusive(r) => r.attempts,
                ScreeningOutcome::Inconclusive(r) => r.attempts,
            },
        },
        None => Op {
            ok: false,
            misclassified: false,
            inconclusive: false,
            attempts: 0,
        },
    }
}

/// Runs `f`, inside a span named `name` when `on`.
fn maybe_span<T>(tracer: &mut Tracer, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if on {
        tracer.span(name, f)
    } else {
        f()
    }
}

/// Each input's fastest latency over its repeats in the run, in ascending
/// order. Other tenants of a shared host only ever add time to an op, and
/// every input is repeated through the whole run, so its minimum is what
/// it costs between their bursts. The price: a cost the program itself
/// adds to only some repeats of an input (a queue, a periodic rebuild) is
/// not seen here; the percentiles over all ops see it.
fn min_latencies(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut by_input: BTreeMap<usize, f64> = BTreeMap::new();
    for &(input, ns) in samples {
        let min = by_input.entry(input).or_insert(f64::INFINITY);
        *min = min.min(ns);
    }
    sorted(by_input.into_values().collect())
}

/// Operation counts and timings of the measured window.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    misclassified: u64,
    inconclusive: u64,
    attempts: u64,
    /// A failure anywhere in the run, warm-up included.
    any_failed: bool,
    /// `(input, latency in ns)` of every measured operation.
    untraced: Vec<(usize, f64)>,
    traced: Vec<(usize, f64)>,
    /// How late the generator started each operation, in ns.
    lag_ns: Vec<f64>,
    /// Operations completed per second of the measured window.
    ops_per_s: f64,
}

impl Tally {
    fn count(&mut self, op: &Op) {
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
        self.misclassified += u64::from(op.misclassified);
        self.inconclusive += u64::from(op.inconclusive);
        self.attempts += op.attempts as u64;
    }

    fn end_to_end(&self, setup_s: f64) -> Metrics {
        Metrics::from([
            ("setup_s".to_string(), setup_s),
            ("peak_rss_mb".to_string(), host::peak_rss_mib()),
        ])
    }

    /// Per-layer metrics every workload reports from its own loop. Op
    /// latencies are taken over the untraced ops only.
    fn per_layer(&self) -> Metrics {
        let n = self.attempted.max(1) as f64;
        let fastest = min_latencies(&self.untraced);
        let raw = sorted(self.untraced.iter().map(|s| s.1).collect());
        Metrics::from([
            (
                "trace.overhead_frac".to_string(),
                percentile(&min_latencies(&self.traced), 50.0) / percentile(&fastest, 50.0) - 1.0,
            ),
            ("generator.ops_per_s".to_string(), self.ops_per_s),
            (
                "generator.op_p50_ms".to_string(),
                percentile(&raw, 50.0) / 1e6,
            ),
            (
                "generator.op_p99_ms".to_string(),
                percentile(&raw, 99.0) / 1e6,
            ),
            (
                "generator.input_min_p50_ms".to_string(),
                percentile(&fastest, 50.0) / 1e6,
            ),
            (
                "generator.input_min_p90_ms".to_string(),
                percentile(&fastest, 90.0) / 1e6,
            ),
            (
                "generator.lag_p99_ms".to_string(),
                percentile(&sorted(self.lag_ns.clone()), 99.0) / 1e6,
            ),
            (
                "verdict.misclassified_frac".to_string(),
                self.misclassified as f64 / n,
            ),
            ("host.cores".to_string(), host::cores() as f64),
            ("host.cpu_quota".to_string(), host::cpu_quota()),
            ("host.ref_loop_us".to_string(), host::ref_loop_us()),
        ])
    }

    /// Per-layer metrics of the screening workloads' outcomes.
    fn screening(&self) -> Metrics {
        let n = self.attempted.max(1) as f64;
        Metrics::from([
            (
                "screening.inconclusive_frac".to_string(),
                self.inconclusive as f64 / n,
            ),
            (
                "screening.attempts_per_op".to_string(),
                self.attempts as f64 / n,
            ),
        ])
    }

    fn result(self, metrics: Metrics, replay_ok: bool) -> RunResult {
        RunResult {
            correct: !self.any_failed && replay_ok,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Runs `op(k)` back to back (one client) over a corpus of `corpus`
/// inputs, input `k % corpus` at step `k`: a discarded warm-up, then the
/// measured window. With tracing on, every other pass over the whole
/// corpus runs traced, so traced and untraced operations see the same
/// inputs.
fn closed_loop(cfg: &RunConfig, corpus: usize, mut op: impl FnMut(usize, bool) -> Op) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    let (warm_end, end) = (cfg.warmup(), cfg.warmup() + cfg.measure());
    let mut prev_end: Option<Instant> = None;
    let mut last_end = start + warm_end;
    for k in 0.. {
        let t0 = Instant::now();
        let measuring = t0 - start >= warm_end;
        let sampled = !tally.untraced.is_empty() && (!cfg.trace || !tally.traced.is_empty());
        if measuring && t0 - start >= end && sampled {
            break;
        }
        let traced = cfg.trace && (k / corpus) % 2 == 1;
        let result = op(k, traced);
        let t1 = Instant::now();
        tally.any_failed |= !result.ok;
        if measuring {
            tally.count(&result);
            let sample = (k % corpus, (t1 - t0).as_nanos() as f64);
            if traced {
                tally.traced.push(sample);
            } else {
                tally.untraced.push(sample);
            }
            if let Some(prev) = prev_end {
                tally.lag_ns.push((t0 - prev).as_nanos() as f64);
            }
            last_end = t1;
        }
        prev_end = Some(t1);
    }
    tally.ops_per_s = tally.attempted as f64 / (last_end - (start + warm_end)).as_secs_f64();
    tally
}

/// Times each stage replay repeats every capture.
const REPLAY_REPS: usize = 3;

/// Replays `screen-clean`'s captures stage by stage, each interleaved with
/// the untraced `screen_recording_quality` of the same capture, and adds
/// the stage and trace metrics. Returns whether every replayed capture
/// agreed with the product.
fn stage_replay(
    system: &EarSonar,
    captures: &[Recording],
    policy: &RetryPolicy,
    m: &mut Metrics,
) -> bool {
    let fe = system.front_end();
    let replay = StageReplay::new(system, *policy);
    let expected: Vec<_> = captures
        .iter()
        .map(|r| {
            fe.process_with(&mut DspScratch::new(), r)
                .map(|p| p.features)
                .map_err(|e| format!("{e:?}"))
        })
        .collect();

    let mut tracer = Tracer::default();
    // Stage times are totals over every replay (a stage a capture skips
    // adds 0), reported per capture; their sum is set against the total
    // untraced screening time of the same captures.
    let mut stage_ns: BTreeMap<&str, f64> = STAGES.iter().map(|&s| (s, 0.0)).collect();
    let (mut untraced_total_ns, mut replays) = (0.0f64, 0usize);
    let mut matched = true;
    for _ in 0..REPLAY_REPS {
        for (rec, expected) in captures.iter().zip(&expected) {
            let t = Instant::now();
            let untraced = screen_recording_quality(system, rec, policy);
            untraced_total_ns += t.elapsed().as_nanos() as f64;

            // The product's screening allocates a fresh scratch per call;
            // so does the replay, so that plan building is counted.
            let mut scratch = DspScratch::new();
            tracer.clear();
            tracer.enter("capture");
            let replayed = replay.run(&mut tracer, &mut scratch, rec);
            tracer.exit();
            matched &= replayed.decision == decision_of(&untraced);
            matched &= replayed.features.as_ref().is_none_or(|f| f == expected);
            for (stage, ns) in self_times(tracer.spans()) {
                if let Some(total) = stage_ns.get_mut(stage) {
                    *total += ns as f64;
                }
            }
            replays += 1;
        }
    }
    if !matched {
        eprintln!("stage replay diverged from the product: trace.replay_match = 0");
    }
    let stage_sum_ns: f64 = stage_ns.values().sum();
    eprintln!(
        "stage replay: {} captures x {REPLAY_REPS}, stage sum / untraced screening = {:.4}, residual {:.1} us per capture",
        captures.len(),
        stage_sum_ns / untraced_total_ns,
        (untraced_total_ns - stage_sum_ns) / replays as f64 / 1e3
    );
    for (stage, ns) in &stage_ns {
        m.insert(format!("{stage}_us"), ns / replays as f64 / 1e3);
    }
    m.insert(
        "trace.replay_match".to_string(),
        f64::from(u8::from(matched)),
    );
    m.insert(
        "trace.stage_sum_frac".to_string(),
        stage_sum_ns / untraced_total_ns,
    );
    matched
}

/// What the traced `screen-clean` ops saw of the streaming layer.
#[derive(Default)]
struct StreamTally {
    chirp_ns: Vec<f64>,
    resolve_ns: Vec<f64>,
    chirps: usize,
    used: usize,
    rejected: usize,
    no_event: usize,
}

impl StreamTally {
    /// One screening as `screen_recording_quality` runs it, pushed chirp
    /// by chirp through `ChirpStream` and resolved by `resolve_stream`,
    /// each call timed.
    fn screen(
        &mut self,
        system: &EarSonar,
        rec: &Recording,
        policy: &RetryPolicy,
    ) -> Option<ScreeningOutcome> {
        let fe = system.front_end();
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(fe);
        for c in 0..rec.n_chirps {
            let t = Instant::now();
            let outcome = stream.push_chirp_with(fe, &mut scratch, rec.chirp_window(c));
            self.chirp_ns.push(t.elapsed().as_nanos() as f64);
            self.chirps += 1;
            match outcome.ok()? {
                ChirpOutcome::Used => self.used += 1,
                ChirpOutcome::QualityRejected { .. } => self.rejected += 1,
                ChirpOutcome::NoEvent => self.no_event += 1,
                _ => {}
            }
        }
        let t = Instant::now();
        let outcome = resolve_stream(system, &mut scratch, stream, policy);
        self.resolve_ns.push(t.elapsed().as_nanos() as f64);
        outcome.ok()
    }

    fn metrics(&self, ops: usize) -> Metrics {
        let total = self.chirps.max(1) as f64;
        Metrics::from([
            (
                "streaming.chirp_us".to_string(),
                median(&self.chirp_ns) / 1e3,
            ),
            (
                "streaming.chirps_per_capture".to_string(),
                self.chirps as f64 / ops.max(1) as f64,
            ),
            ("streaming.used_frac".to_string(), self.used as f64 / total),
            (
                "streaming.quality_rejected_frac".to_string(),
                self.rejected as f64 / total,
            ),
            (
                "streaming.no_event_frac".to_string(),
                self.no_event as f64 / total,
            ),
            (
                "screening.resolve_us".to_string(),
                median(&self.resolve_ns) / 1e3,
            ),
        ])
    }
}

fn screen_clean(cfg: &RunConfig) -> Result<RunResult, String> {
    let policy = RetryPolicy::default();
    let ((inputs, captures), setup_s) = set_up(cfg, || {
        let inputs = ScreenInputs::generate(cfg.seed);
        let captures = inputs.wav_captures(&policy);
        (inputs, captures)
    });
    let mut input = Fnv::default();
    for c in &captures {
        input.bytes(&c.bytes);
    }
    check_pins(
        "screen-clean",
        cfg.seed,
        input.finish(),
        digest_keys(captures.iter().map(|c| outcome_key(&c.reference))),
    )?;

    let system = &inputs.system;
    let mut pcm = Vec::new();
    let mut tracer = Tracer::default();
    let mut stream = StreamTally::default();
    let mut traced_ops = 0usize;
    let tally = closed_loop(cfg, captures.len(), |k, traced| {
        let c: &WavCapture = &captures[k % captures.len()];
        let outcome = if traced {
            traced_ops += 1;
            tracer.enter("op");
            let decoded = tracer.span("wav.decode", || {
                decode_capture(&c.bytes, &c.layout, &mut pcm)
            });
            let outcome = decoded
                .ok()
                .and_then(|rec| stream.screen(system, &rec, &policy));
            tracer.exit();
            outcome
        } else {
            decode_capture(&c.bytes, &c.layout, &mut pcm)
                .ok()
                .and_then(|rec| screen_recording_quality(system, &rec, &policy).ok())
        };
        judge(outcome.as_ref(), &c.reference, c.truth)
    });
    if !cfg.trace {
        let m = tally.end_to_end(setup_s);
        return Ok(tally.result(m, true));
    }
    let mut m = tally.per_layer();
    m.extend(tally.screening());
    m.extend(stream.metrics(traced_ops));
    m.insert(
        "wav.decode_frac".to_string(),
        total_ns(tracer.spans(), "wav.decode") as f64 / total_ns(tracer.spans(), "op") as f64,
    );
    let decoded: Vec<Recording> = captures
        .iter()
        .map(|c| decode_capture(&c.bytes, &c.layout, &mut pcm).expect("set-up capture decodes"))
        .collect();
    let ok = stage_replay(system, &decoded, &policy, &mut m);
    Ok(tally.result(m, ok))
}

fn screen_faulty(cfg: &RunConfig) -> Result<RunResult, String> {
    let policy = RetryPolicy::default();
    let ((inputs, cases, references), setup_s) = set_up(cfg, || {
        let inputs = ScreenInputs::generate(cfg.seed);
        let cases = faulty_cases(cfg.seed, &inputs.sessions, policy.max_attempts);
        let references: Vec<ScreeningOutcome> = cases
            .iter()
            .map(|c| {
                screen_with_retry(&inputs.system, &mut Replay::new(&c.captures), &policy)
                    .expect("reference screening")
            })
            .collect();
        (inputs, cases, references)
    });
    check_pins(
        "screen-faulty",
        cfg.seed,
        digest_recordings(cases.iter().flat_map(|c: &FaultyCase| &c.captures)),
        digest_keys(references.iter().map(outcome_key)),
    )?;

    let system = &inputs.system;
    let mut tracer = Tracer::default();
    let tally = closed_loop(cfg, cases.len(), |k, traced| {
        let i = k % cases.len();
        let mut source = Replay::new(&cases[i].captures);
        let outcome = maybe_span(&mut tracer, traced, "op", || {
            screen_with_retry(system, &mut source, &policy)
        });
        judge(outcome.as_ref().ok(), &references[i], cases[i].truth)
    });
    let m = if cfg.trace {
        let mut m = tally.per_layer();
        m.extend(tally.screening());
        m
    } else {
        tally.end_to_end(setup_s)
    };
    Ok(tally.result(m, true))
}

/// Open-loop arrival rate of `engine-stream`, in sessions per second.
const ARRIVAL_RATE: f64 = 400.0;
/// Samples per pushed chunk: 10 ms at 48 kHz.
const CHUNK: usize = 480;
const CHUNK_NS: u64 = 10_000_000;
/// The generator drains at least this often, and whenever a session closed.
const DRAIN_EVERY_NS: u64 = 5_000_000;
const DRAIN_WORKERS: usize = 2;
/// How long the run may wait for the last sessions to resolve.
const ENGINE_GRACE_NS: u64 = 30_000_000_000;

/// One chunk of one session, due at `due_ns` from the start of the run.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    due_ns: u64,
    session: usize,
    index: usize,
    last: bool,
}

/// The open-loop load generator: the only thread that calls the engine.
/// It pushes every chunk that is due, then drains; latency runs from the
/// due time of a session's last chunk, so a late generator counts against
/// the engine the way it would against a user.
struct Generator<'e> {
    engine: &'e ScreeningEngine<'e>,
    references: &'e [ScreeningOutcome],
    /// Ground truth per capture.
    truth: Vec<MeeState>,
    start: Instant,
    tracer: Tracer,
    warm_ns: u64,
    horizon_ns: u64,
    /// Calls from this time on run inside spans (`u64::MAX`: never).
    trace_from_ns: u64,
    // Per session.
    capture: Vec<usize>,
    arrival_ns: Vec<u64>,
    last_due_ns: Vec<u64>,
    failed: Vec<bool>,
    resolved: Vec<bool>,
    // Measured-window counts.
    /// `(capture, latency in ns)` of every measured session.
    untraced: Vec<(usize, f64)>,
    traced: Vec<(usize, f64)>,
    lag_ns: Vec<f64>,
    resolved_count: usize,
    resolved_in_window: u64,
    misclassified: u64,
    inconclusive: u64,
    attempts: u64,
    drains: u64,
    drained: u64,
}

impl Generator<'_> {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn measured(&self, s: usize) -> bool {
        (self.warm_ns..self.horizon_ns).contains(&self.arrival_ns[s])
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&ScreeningEngine<'_>) -> T) -> T {
        let on = self.now() >= self.trace_from_ns;
        let engine = self.engine;
        maybe_span(&mut self.tracer, on, name, || f(engine))
    }

    /// Opens the session at its first chunk, pushes the chunk (draining
    /// while its queue is full), and closes the session after its last.
    fn send(&mut self, c: Chunk, part: &[f64]) {
        let id = SessionId(c.session as u64);
        if c.index == 0 && self.call("engine.open", |e| e.open(id)).is_err() {
            self.failed[c.session] = true;
        }
        if c.due_ns >= self.warm_ns {
            let lag = self.now().saturating_sub(c.due_ns);
            self.lag_ns.push(lag as f64);
        }
        loop {
            match self.call("engine.push", |e| e.push(id, part)) {
                Ok(()) => break,
                Err(Rejected::QueueFull { .. }) => self.drain(),
                Err(_) => {
                    self.failed[c.session] = true;
                    break;
                }
            }
        }
        if c.last && self.call("engine.close", |e| e.close(id)).is_err() {
            self.failed[c.session] = true;
        }
    }

    /// Drains with two workers and harvests every resolved session.
    fn drain(&mut self) {
        let traced = self.now() >= self.trace_from_ns;
        let resolved = self.call("engine.drain", |e| e.drain(DRAIN_WORKERS));
        if traced {
            self.drains += 1;
            self.drained += resolved as u64;
        }
        let now = self.now();
        for done in self.engine.take_completed() {
            let s = done.id.0 as usize;
            self.resolved[s] = true;
            self.resolved_count += 1;
            let capture = self.capture[s];
            let op = judge(
                done.outcome.as_ref().ok(),
                &self.references[capture],
                self.truth[capture],
            );
            self.failed[s] |= done.evicted || !op.ok;
            if (self.warm_ns..self.horizon_ns).contains(&now) {
                self.resolved_in_window += 1;
            }
            if self.measured(s) {
                self.misclassified += u64::from(op.misclassified);
                self.inconclusive += u64::from(op.inconclusive);
                self.attempts += op.attempts as u64;
                let sample = (capture, now.saturating_sub(self.last_due_ns[s]) as f64);
                if self.arrival_ns[s] >= self.trace_from_ns {
                    self.traced.push(sample);
                } else {
                    self.untraced.push(sample);
                }
            }
        }
    }
}

fn engine_stream(cfg: &RunConfig) -> Result<RunResult, String> {
    let policy = EngineConfig::default().policy;
    let warm_ns = cfg.warmup().as_nanos() as u64;
    let horizon_ns = warm_ns + cfg.measure().as_nanos() as u64;
    let ((inputs, references, arrivals), setup_s) = set_up(cfg, || {
        let inputs = ScreenInputs::generate(cfg.seed);
        let references: Vec<ScreeningOutcome> = inputs
            .sessions
            .iter()
            .map(|s| reference_outcome(&inputs.system, &s.recording, &policy))
            .collect();
        let arrivals = poisson_arrivals(cfg.seed, ARRIVAL_RATE, horizon_ns, inputs.sessions.len());
        (inputs, references, arrivals)
    });
    let recordings: Vec<&Recording> = inputs.sessions.iter().map(|s| &s.recording).collect();
    // Pin the schedule by its first 5 s, which every run's schedule starts
    // with whatever its length.
    let mut input = Fnv::default();
    for (at, capture) in poisson_arrivals(cfg.seed, ARRIVAL_RATE, 5_000_000_000, recordings.len()) {
        input.u64(at);
        input.u64(capture as u64);
    }
    input.u64(digest_recordings(recordings.iter().copied()));
    check_pins(
        "engine-stream",
        cfg.seed,
        input.finish(),
        digest_keys(references.iter().map(outcome_key)),
    )?;

    let n = arrivals.len();
    let chunks_of = |s: usize| recordings[arrivals[s].1].samples.len().div_ceil(CHUNK);
    let engine = ScreeningEngine::new(&inputs.system, EngineConfig::default());
    let mut g = Generator {
        engine: &engine,
        references: &references,
        truth: inputs.sessions.iter().map(|s| s.ground_truth).collect(),
        start: Instant::now(),
        tracer: Tracer::default(),
        warm_ns,
        horizon_ns,
        trace_from_ns: if cfg.trace {
            (warm_ns + horizon_ns) / 2
        } else {
            u64::MAX
        },
        capture: arrivals.iter().map(|a| a.1).collect(),
        arrival_ns: arrivals.iter().map(|a| a.0).collect(),
        last_due_ns: (0..n)
            .map(|s| arrivals[s].0 + (chunks_of(s) as u64 - 1) * CHUNK_NS)
            .collect(),
        failed: vec![false; n],
        resolved: vec![false; n],
        untraced: Vec::new(),
        traced: Vec::new(),
        lag_ns: Vec::new(),
        resolved_count: 0,
        resolved_in_window: 0,
        misclassified: 0,
        inconclusive: 0,
        attempts: 0,
        drains: 0,
        drained: 0,
    };
    // The next chunk of every open session, plus the first chunk of the
    // next session to arrive, earliest due first: `(due, session, index)`.
    let mut due: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    if n > 0 {
        due.push(Reverse((arrivals[0].0, 0, 0)));
    }
    let (mut closed, mut backlog_end) = (0usize, None);
    let (mut last_drain, mut closed_since_drain) = (0u64, false);
    loop {
        let t = g.now();
        while let Some(&Reverse((due_ns, session, index))) = due.peek() {
            if due_ns > t {
                break;
            }
            due.pop();
            if index == 0 && session + 1 < n {
                due.push(Reverse((arrivals[session + 1].0, session + 1, 0)));
            }
            let last = index + 1 == chunks_of(session);
            if !last {
                due.push(Reverse((due_ns + CHUNK_NS, session, index + 1)));
            }
            let samples = &recordings[g.capture[session]].samples;
            g.send(
                Chunk {
                    due_ns,
                    session,
                    index,
                    last,
                },
                &samples[index * CHUNK..((index + 1) * CHUNK).min(samples.len())],
            );
            if last {
                closed += 1;
                closed_since_drain = true;
            }
        }
        let t = g.now();
        if backlog_end.is_none() && t >= horizon_ns {
            backlog_end = Some(closed - g.resolved_count);
        }
        if closed_since_drain || t - last_drain >= DRAIN_EVERY_NS {
            g.drain();
            last_drain = g.now();
            closed_since_drain = false;
        }
        if due.is_empty() && engine.in_flight() == 0 {
            break;
        }
        if g.now() > horizon_ns + ENGINE_GRACE_NS {
            eprintln!(
                "engine-stream: {} sessions never resolved",
                engine.in_flight()
            );
            break;
        }
        let wake = due
            .peek()
            .map_or(u64::MAX, |c| c.0 .0)
            .min(last_drain + DRAIN_EVERY_NS);
        let t = g.now();
        if wake > t {
            std::thread::sleep(Duration::from_nanos(wake - t));
        }
    }
    let loop_end_ns = g.now();

    for (failed, &resolved) in g.failed.iter_mut().zip(&g.resolved) {
        *failed |= !resolved;
    }
    let measured: Vec<usize> = (0..n).filter(|&s| g.measured(s)).collect();
    let tally = Tally {
        attempted: measured.len() as u64,
        failed: measured.iter().filter(|&&s| g.failed[s]).count() as u64,
        misclassified: g.misclassified,
        inconclusive: g.inconclusive,
        attempts: g.attempts,
        any_failed: g.failed.contains(&true),
        untraced: std::mem::take(&mut g.untraced),
        traced: std::mem::take(&mut g.traced),
        lag_ns: std::mem::take(&mut g.lag_ns),
        // Open loop: what resolved inside the measured window, not what
        // was offered.
        ops_per_s: g.resolved_in_window as f64 / cfg.seconds,
    };
    if !cfg.trace {
        let m = tally.end_to_end(setup_s);
        return Ok(tally.result(m, true));
    }
    let stats = engine.stats();
    let wall = (loop_end_ns - g.trace_from_ns) as f64;
    let spans = g.tracer.spans();
    let d = &stats.diagnostics;
    let chirps = d.chirps_pushed.max(1) as f64;
    let gated = d.quality_rejections.total();
    let no_event = d
        .chirps_pushed
        .saturating_sub(gated + d.filter_failures + d.events_detected);
    let mut m = tally.per_layer();
    m.extend(tally.screening());
    m.extend([
        (
            "engine.open_frac".to_string(),
            total_ns(spans, "engine.open") as f64 / wall,
        ),
        (
            "engine.push_frac".to_string(),
            total_ns(spans, "engine.push") as f64 / wall,
        ),
        (
            "engine.close_frac".to_string(),
            total_ns(spans, "engine.close") as f64 / wall,
        ),
        (
            "engine.drain_busy_frac".to_string(),
            total_ns(spans, "engine.drain") as f64 / wall,
        ),
        (
            "engine.sessions_per_drain".to_string(),
            g.drained as f64 / g.drains.max(1) as f64,
        ),
        (
            "engine.rejected_pushes".to_string(),
            stats.rejected_pushes as f64,
        ),
        (
            "engine.peak_in_flight".to_string(),
            stats.peak_in_flight as f64,
        ),
        (
            "engine.backlog_end".to_string(),
            backlog_end.unwrap_or(0) as f64,
        ),
        // The engine's own stage counters, over every session it resolved.
        (
            "streaming.chirps_per_capture".to_string(),
            d.chirps_pushed as f64 / (stats.resolved + stats.evicted).max(1) as f64,
        ),
        (
            "streaming.used_frac".to_string(),
            d.irs_estimated as f64 / chirps,
        ),
        (
            "streaming.quality_rejected_frac".to_string(),
            gated as f64 / chirps,
        ),
        (
            "streaming.no_event_frac".to_string(),
            no_event as f64 / chirps,
        ),
    ]);
    Ok(tally.result(m, true))
}

/// The backends `train-eval` scores against the reference.
const CANDIDATES: [&str; 2] = ["absorbance-logistic", "absorbance-knn"];

fn same_score(a: &BackendScore, b: &BackendScore) -> bool {
    a.backend == b.backend
        && a.version == b.version
        && a.report == b.report
        && a.mean_confidence.to_bits() == b.mean_confidence.to_bits()
        && a.dropped == b.dropped
}

fn same_comparison(a: &AbComparison, b: &AbComparison) -> bool {
    same_score(&a.baseline, &b.baseline)
        && a.candidates.len() == b.candidates.len()
        && a.candidates
            .iter()
            .zip(&b.candidates)
            .all(|(x, y)| same_score(x, y))
}

/// `ab_compare` split into its public steps — one extraction per feature
/// family, then LOOCV per backend — each inside a span.
fn traced_ab_compare(
    tracer: &mut Tracer,
    sessions: &[Session],
    config: &EarSonarConfig,
) -> Result<AbComparison, EarSonarError> {
    let reference = backend::reference();
    let candidates = CANDIDATES.map(|name| backend::lookup(name).expect("registered backend"));
    let mfcc = tracer.span("eval.extract.mfcc", || {
        ExtractedDataset::extract_with_backend(sessions, config, reference)
    })?;
    let absorbance = tracer.span("eval.extract.absorbance", || {
        ExtractedDataset::extract_with_backend(sessions, config, candidates[0])
    })?;
    let score = |tracer: &mut Tracer,
                 span: &'static str,
                 spec: &'static BackendSpec,
                 data: &ExtractedDataset| {
        let (report, mean_confidence) =
            tracer.span(span, || loocv_with_backend(data, config, spec))?;
        Ok::<_, EarSonarError>(BackendScore {
            backend: spec.name,
            version: spec.version,
            report,
            mean_confidence,
            dropped: data.dropped,
        })
    };
    Ok(AbComparison {
        baseline: score(tracer, "ml.loocv.mfcc-kmeans", reference, &mfcc)?,
        candidates: vec![
            score(
                tracer,
                "ml.loocv.absorbance-logistic",
                candidates[0],
                &absorbance,
            )?,
            score(
                tracer,
                "ml.loocv.absorbance-knn",
                candidates[1],
                &absorbance,
            )?,
        ],
    })
}

fn train_eval(cfg: &RunConfig) -> Result<RunResult, String> {
    let config = EarSonarConfig::default();
    let (sessions, setup_s) = set_up(cfg, || eval_sessions(cfg.seed));
    // The first comparison is the reference every later one must equal.
    let reference =
        ab_compare(&sessions, &config, &CANDIDATES).map_err(|e| format!("train-eval: {e:?}"))?;
    let mut input = Fnv::default();
    for s in &sessions {
        input.u64(s.patient_id as u64);
        input.u64(s.ground_truth.index() as u64);
    }
    input.u64(digest_recordings(sessions.iter().map(|s| &s.recording)));
    let keys = std::iter::once(&reference.baseline)
        .chain(&reference.candidates)
        .map(|s| {
            format!(
                "{} dropped={} confusion={:?}",
                s.backend, s.dropped, s.report.confusion
            )
        });
    check_pins("train-eval", cfg.seed, input.finish(), digest_keys(keys))?;

    let mut tracer = Tracer::default();
    let tally = closed_loop(cfg, 1, |_, traced| {
        let cmp = if traced {
            tracer.enter("op");
            let c = traced_ab_compare(&mut tracer, &sessions, &config);
            tracer.exit();
            c
        } else {
            ab_compare(&sessions, &config, &CANDIDATES)
        };
        Op {
            ok: cmp.is_ok_and(|c| same_comparison(&c, &reference)),
            misclassified: false,
            inconclusive: false,
            attempts: 0,
        }
    });
    if !cfg.trace {
        let m = tally.end_to_end(setup_s);
        return Ok(tally.result(m, true));
    }
    let mut m = tally.per_layer();
    m.insert(
        "verdict.misclassified_frac".to_string(),
        1.0 - reference.baseline.report.accuracy,
    );
    let spans = tracer.spans();
    let op = total_ns(spans, "op") as f64;
    for (metric, span) in [
        ("eval.extract_frac.mfcc", "eval.extract.mfcc"),
        ("eval.extract_frac.absorbance", "eval.extract.absorbance"),
        ("ml.loocv_frac.mfcc-kmeans", "ml.loocv.mfcc-kmeans"),
        (
            "ml.loocv_frac.absorbance-logistic",
            "ml.loocv.absorbance-logistic",
        ),
        ("ml.loocv_frac.absorbance-knn", "ml.loocv.absorbance-knn"),
    ] {
        m.insert(metric.to_string(), total_ns(spans, span) as f64 / op);
    }
    m.insert(
        "eval.dropped".to_string(),
        reference.baseline.dropped as f64,
    );
    Ok(tally.result(m, true))
}
