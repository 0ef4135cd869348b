//! `xtask` — the workspace invariant checker.
//!
//! `cargo run -p xtask -- lint` enforces, on every source file and
//! manifest of the workspace, the invariants no compiler lint can express
//! but the reproduction's claims depend on:
//!
//! | rule                    | invariant |
//! |-------------------------|-----------|
//! | `hot-path-alloc`        | no allocating constructs inside `// lint: hot-path` functions |
//! | `layering`              | `earsonar-sim` never in the normal-dep closure of core/ml/signal/engine |
//! | `unsafe-header`         | every library root carries `#![forbid(unsafe_code)]` |
//! | `directive`             | lint directives parse, waivers carry reasons, none are stale |
//!
//! Panic-freedom, unordered maps, wall-clock reads and locks are enforced
//! by clippy instead (crate-root `#![deny(...)]` and `clippy.toml`).
//!
//! Violations print one per line as `file:line rule message` and the
//! process exits non-zero. An allocation that is genuinely sound is waived
//! in place with `// lint: allow(hot-path-alloc) <reason>` — the reason is
//! mandatory. The tool is std-only so it builds and runs before anything
//! else in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
pub mod manifest;
pub mod rules;
