//! Command-line entry point:
//! `cargo run -p xtask -- lint [--waivers] [--report FILE] [--root DIR]`
//! or `cargo run -p xtask -- bench-schema [--root DIR] [FILE]`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- \
    <lint [--waivers] [--report FILE] | bench-schema [FILE]> [--root DIR]";

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

/// Splices the report's `lint` section into the unified benchmark report
/// at `path` (insert-or-replace), so `bench-schema` can gate on it.
fn write_lint_section(report: &xtask::lint::Report, path: &Path) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask lint --report: read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let Some(out) = xtask::lint::splice_lint_section(&doc, &report.section_json()) else {
        eprintln!(
            "xtask lint --report: {} is not a JSON object — regenerate it",
            path.display()
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("xtask lint --report: write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("xtask lint: spliced lint section into {}", path.display());
    ExitCode::SUCCESS
}

fn run_lint(root: &Path, waivers: bool, report_file: Option<&str>) -> ExitCode {
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
                match report_file {
                    Some(f) => write_lint_section(&report, &root.join(f)),
                    None => ExitCode::SUCCESS,
                }
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

fn run_bench_schema(root: &Path, file: Option<&str>) -> ExitCode {
    let path = match file {
        Some(f) => PathBuf::from(f),
        None => root.join("BENCH_pr9.json"),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench-schema: read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match xtask::bench_schema::check_report(&text) {
        Ok(()) => {
            println!(
                "xtask bench-schema OK: {} conforms to schema_version 5 \
                 ({} kernel sections)",
                path.display(),
                xtask::bench_schema::REQUIRED_KERNELS.len()
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                println!("{}: {e}", path.display());
            }
            eprintln!("xtask bench-schema: {} violation(s)", errors.len());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut cmd = None;
    let mut file = None;
    let mut waivers = false;
    let mut report_file = None;
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
            "--waivers" if cmd == Some("lint") => waivers = true,
            "--report" if cmd == Some("lint") => {
                i += 1;
                match args.get(i) {
                    Some(f) => report_file = Some(f.to_string()),
                    None => {
                        eprintln!("--report needs a file argument");
                        return ExitCode::from(2);
                    }
                }
            }
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "bench-schema" if cmd.is_none() => cmd = Some("bench-schema"),
            other if cmd == Some("bench-schema") && file.is_none() => {
                file = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    match cmd {
        Some("lint") => run_lint(&root, waivers, report_file.as_deref()),
        Some("bench-schema") => run_bench_schema(&root, file.as_deref()),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
