//! Recording-synthesis throughput: the spectral-domain hot path against
//! the time-domain reference, plus scratch reuse and a dataset build
//! (fanned out over the host's cores by `Dataset::build` itself).
//!
//! Run with `cargo bench -p earsonar-bench --bench sim_throughput`; pass
//! `--smoke` or set `EARSONAR_BENCH_SMOKE` for a fast pass.

use earsonar_bench::timing::Bencher;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::ear::EarCanal;
use earsonar_sim::recorder::{
    synthesize_recording, synthesize_recording_time_domain, synthesize_recording_with,
    RecorderConfig,
};
use earsonar_sim::rng::SimRng;
use earsonar_sim::scratch::SimScratch;
use earsonar_sim::{MeeAcoustics, MeeState};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let b = Bencher::from_env(&args);

    let mut ear_rng = SimRng::seed_from_u64(7);
    let ear = EarCanal::sample_child(&mut ear_rng);
    let mut resp_rng = SimRng::seed_from_u64(8);
    let resp = MeeState::Mucoid.sample_response(18_000.0, &mut resp_rng);
    let cfg = RecorderConfig::default();

    println!("== synthesize_recording (default 24-chirp config) ==");
    b.report("synthesize/time_domain_ref", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_time_domain(&ear, &resp, &cfg, &mut rng).samples[0]
    });
    b.report("synthesize/spectral_cold", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording(&ear, &resp, &cfg, &mut rng).samples[0]
    });
    let mut scratch = SimScratch::new();
    b.report("synthesize/spectral_warm", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_with(&ear, &resp, &cfg, &mut rng, &mut scratch).samples[0]
    });

    println!("\n== dataset build (6 patients) ==");
    let cohort = Cohort::generate(6, 3);
    let spec = DatasetSpec::default();
    b.report("dataset/build", || Dataset::build(&cohort, &spec).len());
}
