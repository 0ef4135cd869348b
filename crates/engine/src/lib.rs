//! Multi-session screening: the throughput layer over the EarSonar front
//! end.
//!
//! A screening device does not always see one ear at a time: a caregiver
//! may screen both ears, or a clinic a queue of recordings, each chirp
//! stream trickling in as its earphone captures audio.
//! [`ScreeningEngine`] multiplexes those streams over the single-session
//! front end, from one owning thread:
//!
//! * **one session table** keyed by [`SessionId`] — sessions hold only
//!   their accumulated [`earsonar::streaming::ChirpStream`] state (a few
//!   kilobytes), never a scratch;
//! * **bounded per-session ingest queues** with explicit backpressure —
//!   a full queue returns [`Rejected::QueueFull`], the engine never drops
//!   a sample silently;
//! * **a by-value drain** ([`ScreeningEngine::drain`]) that moves the
//!   ready sessions out of the table onto the workspace fan-out, each
//!   worker owning its sessions and one warm
//!   [`earsonar_dsp::plan::DspScratch`] — no lock and no atomic;
//! * **tick-driven keep-alive eviction** — time is a logical clock the
//!   caller advances with [`ScreeningEngine::tick`], so abandoned
//!   sessions resolve to a typed
//!   [`earsonar::screening::ScreeningOutcome::Inconclusive`] outcome and
//!   tests stay deterministic (no wall clock anywhere in the crate).
//!
//! Verdicts are **bit-identical** to sequential per-session screening via
//! [`earsonar::screening::screen_recording_quality`] at every worker
//! count and ingest interleaving: both paths feed the same
//! partition-invariant stream API and resolve through the same
//! [`earsonar::screening::resolve_stream`] decision sequence, and the
//! scratch is a pure buffer pool. The `schedule_exploration` integration
//! tests pin this with the test harness in `crates/engine/tests/common`:
//! every delivery order for small session counts, seeded interleavings
//! and drain cadences beyond, and conclusive sessions at 1, 2 and 4
//! workers, each replayed once and compared session by session with
//! sequential screening of the same samples.
//!
//! # Example
//!
//! ```no_run
//! # use earsonar::{EarSonar, EarSonarConfig};
//! # use earsonar_engine::{EngineConfig, ScreeningEngine, SessionId};
//! # use earsonar_sim::cohort::Cohort;
//! # use earsonar_sim::dataset::{Dataset, DatasetSpec};
//! let data = Dataset::build(&Cohort::generate(8, 1), &DatasetSpec::default());
//! let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).unwrap();
//! let engine = ScreeningEngine::new(&system, EngineConfig::default());
//!
//! engine.open(SessionId(1)).unwrap();
//! for chunk in data.sessions[0].recording.samples.chunks(2400) {
//!     engine.push(SessionId(1), chunk).unwrap();
//! }
//! engine.close(SessionId(1)).unwrap();
//! engine.drain(4);
//! for done in engine.take_completed() {
//!     println!("{:?}: {:?}", done.id, done.outcome);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: the detection crates return typed errors, never panic.
// A sound exception is a `#[expect(clippy::expect_used, reason = "…")]`
// on the one statement; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod config;
pub mod engine;
pub mod session;

pub use config::EngineConfig;
pub use engine::{EngineStats, ScreeningEngine};
pub use session::{CompletedSession, Rejected, SessionId};
