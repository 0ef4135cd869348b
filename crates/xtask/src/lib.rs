//! `xtask` — the workspace invariant checker.
//!
//! `cargo run -p xtask -- lint` enforces, on every source file and
//! manifest of the workspace, the invariants the compiler cannot see but
//! the reproduction's claims depend on:
//!
//! | rule                    | invariant |
//! |-------------------------|-----------|
//! | `panic`                 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in the detection crates |
//! | `hot-path-alloc`        | no allocating constructs inside `// lint: hot-path` functions |
//! | `nondeterministic-map`  | no `HashMap`/`HashSet` in result-producing crates |
//! | `wall-clock`            | no `Instant::now`/`SystemTime` outside bench and the CLI |
//! | `ambient-rng`           | no `rand` outside the `DetRng` modules |
//! | `lock`                  | no `Mutex`/`RwLock`/`Condvar` in shipped code |
//! | `layering`              | `earsonar-sim` never in the normal-dep closure of core/ml/signal |
//! | `unsafe-header`         | every library root carries `#![forbid(unsafe_code)]` |
//! | `directive`             | lint directives parse, waivers carry reasons, none are stale |
//!
//! Violations print one per line as `file:line rule message` and the
//! process exits non-zero. A violation that is genuinely sound is waived
//! in place with `// lint: allow(<rule>) <reason>` — the reason is
//! mandatory. `lint --waivers` switches to the audit mode: print every
//! registered waiver with rule, location, and reason, and fail on stale
//! or reason-less ones. The tool is std-only so it builds and runs before
//! anything else in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
pub mod manifest;
pub mod rules;
