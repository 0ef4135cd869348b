//! Command-line entry point:
//! `cargo run -p xtask -- lint [--waivers] [--root DIR]`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- lint [--waivers] [--root DIR]";

fn workspace_root() -> PathBuf {
    // When run via `cargo run -p xtask`, the manifest dir is
    // `<workspace>/crates/xtask`; fall back to the current directory for
    // direct invocations of the binary.
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map(PathBuf::from).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

/// Prints the full waiver inventory — one line per registered waiver
/// with its rule and justification — plus any directive findings (stale
/// or reason-less waivers). Nonzero exit when the inventory is unsound.
fn run_waiver_audit(report: &xtask::lint::Report) -> ExitCode {
    for w in &report.waivers {
        println!("{}:{} {} — {}", w.file, w.line, w.rule, w.reason);
    }
    let directive: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == xtask::rules::RULE_DIRECTIVE)
        .collect();
    for f in &directive {
        println!("{f}");
    }
    if directive.is_empty() {
        println!(
            "xtask lint --waivers OK: {} waivers, every one carries a reason and suppresses a finding",
            report.waivers.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint --waivers: {} unsound directive(s)",
            directive.len()
        );
        ExitCode::FAILURE
    }
}

fn run_lint(root: &Path, waivers: bool) -> ExitCode {
    match xtask::lint::run(root) {
        Ok(report) => {
            if waivers {
                return run_waiver_audit(&report);
            }
            for f in &report.findings {
                println!("{f}");
            }
            if report.is_clean() {
                println!(
                    "xtask lint OK: {} files across {} crates, {} hot-path functions, {} waivers honored",
                    report.files_scanned,
                    report.crates_scanned,
                    report.hot_functions,
                    report.waivers_used
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", report.findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut lint = false;
    let mut waivers = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = PathBuf::from(dir),
                    None => {
                        eprintln!("--root needs a directory argument");
                        return ExitCode::from(2);
                    }
                }
            }
            "--waivers" if lint => waivers = true,
            "lint" if !lint => lint = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if lint {
        run_lint(&root, waivers)
    } else {
        eprintln!("{USAGE}");
        ExitCode::from(2)
    }
}
