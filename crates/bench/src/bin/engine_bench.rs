//! Session-engine load generator: replays the sim cohort as interleaved
//! concurrent sample streams through `earsonar-engine` and reports
//! sessions/sec, p50/p99 open→verdict latency, and peak in-flight count
//! per worker count.
//!
//! Every run proves its verdicts equal sequential screening before the
//! numbers mean anything (`equivalent` in the output; a divergence
//! panics).
//!
//! Usage: `cargo run --release -p earsonar-bench --bin engine-bench --
//! [SESSIONS] [--smoke]`. `--smoke` (or `EARSONAR_BENCH_SMOKE`) pins the
//! CI shape: 64 sessions, seed 7, workers {1, 2, 4}.

use earsonar::{EarSonar, EarSonarConfig};
use earsonar_bench::engine_load::{run_load, LoadSpec};
use earsonar_bench::standard_dataset;
use earsonar_engine::EngineConfig;
use earsonar_sim::recorder::Recording;
use earsonar_sim::session::SessionConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = std::env::var_os("EARSONAR_BENCH_SMOKE").is_some()
        || args.iter().any(|a| a == "--smoke");
    let sessions = args
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(if smoke { 64 } else { 256 });

    // The fixed-seed sim cohort: a handful of distinct patients is enough
    // stream variety — the load is in the concurrency, not the audio.
    let data = standard_dataset(4, SessionConfig::default());
    let recordings: Vec<Recording> = data
        .sessions
        .iter()
        .take(8)
        .map(|s| s.recording.clone())
        .collect();
    let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");

    let spec = LoadSpec {
        sessions,
        chunk_len: 997,
        seed: 7,
        drain_every: 64,
        config: EngineConfig::default(),
        ..LoadSpec::default()
    };

    println!(
        "== engine load: {sessions} interleaved sessions (seed {}, chunk {} samples, \
         {} shards, queue {}) ==",
        spec.seed, spec.chunk_len, spec.config.shards, spec.config.queue_capacity
    );
    for workers in [1usize, 2, 4] {
        let r = run_load(&system, &recordings, &LoadSpec { workers, ..spec });
        println!(
            "  {workers} worker(s): {:8.1} sessions/sec  p50 {:7.2} ms  p99 {:7.2} ms  \
             peak in-flight {}  rejected pushes {}  equivalent: {}",
            r.sessions_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.peak_in_flight,
            r.rejected_pushes,
            r.equivalent_to_sequential
        );
        assert!(
            r.equivalent_to_sequential,
            "engine verdicts diverged from sequential screening at {workers} workers"
        );
    }
}
