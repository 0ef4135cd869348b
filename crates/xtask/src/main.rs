//! Command-line entry point:
//! `cargo run -p xtask -- lint [--root DIR]`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- lint [--root DIR]";

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

fn run_lint(root: &Path) -> ExitCode {
    match xtask::lint::run(root) {
        Ok(report) => {
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
        run_lint(&root)
    } else {
        eprintln!("{USAGE}");
        ExitCode::from(2)
    }
}
