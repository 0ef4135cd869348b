//! Orchestration: walk the workspace, scope the rule families per crate,
//! scan every source file, and check the manifest-level invariants.

use crate::manifest::{self, Member};
use crate::rules::{self, Finding, RuleSet, WaiverRecord};
use std::path::{Path, PathBuf};

/// The full result of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every violation, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Workspace members visited.
    pub crates_scanned: usize,
    /// Hot-path functions registered across the workspace.
    pub hot_functions: usize,
    /// Waivers that suppressed a violation (each carries a reason).
    pub waivers_used: usize,
    /// Every registered waiver with its reason, in (file, line) order —
    /// the `--waivers` audit inventory.
    pub waivers: Vec<WaiverRecord>,
}

impl Report {
    /// True when the workspace satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The rule families that apply to a crate, by package name.
///
/// * **panic-freedom** covers the detection pipeline and its substrates —
///   the crates a clinical screening product would ship on-device.
/// * **nondeterministic-map** covers every crate whose output feeds results
///   (the simulator included: iteration order there corrupts datasets).
/// * **wall-clock** is banned everywhere except the benchmark harness and
///   the CLI, whose *product* is timing and user interaction.
/// * **ambient-rng** is banned everywhere; the per-file exemption for
///   `rng.rs` (the `DetRng` modules) is applied at scan time.
/// * **lock** is banned everywhere: the engine has one owner and the
///   fan-out hands workers disjoint items, so no shipped code needs one.
pub fn ruleset_for(crate_name: &str) -> RuleSet {
    let panic = matches!(
        crate_name,
        "earsonar" | "earsonar-dsp" | "earsonar-signal" | "earsonar-ml" | "earsonar-engine"
    );
    let maps = matches!(
        crate_name,
        "earsonar"
            | "earsonar-dsp"
            | "earsonar-signal"
            | "earsonar-ml"
            | "earsonar-acoustics"
            | "earsonar-sim"
            | "earsonar-engine"
    );
    let timing_crate = matches!(crate_name, "earsonar-bench" | "earsonar-cli" | "xtask");
    RuleSet {
        panic,
        maps,
        wall_clock: !timing_crate,
        rng: crate_name != "xtask",
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when the workspace itself cannot be read (missing or
/// unreadable manifests); rule violations are *not* errors — they land in
/// the report's findings.
pub fn run(root: &Path) -> Result<Report, String> {
    let members = manifest::discover(root)?;
    if members.is_empty() {
        return Err(format!(
            "no workspace members found under {}",
            root.display()
        ));
    }
    let mut report = Report::default();

    // Manifest-level rules first: layering needs the whole member graph.
    for mut f in manifest::check_layering(&members) {
        f.file = rel_label(root, Path::new(&f.file));
        report.findings.push(f);
    }

    for member in &members {
        report.crates_scanned += 1;
        scan_member(root, member, &mut report)?;
    }

    report.findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    report
        .waivers
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

fn scan_member(root: &Path, member: &Member, report: &mut Report) -> Result<(), String> {
    let rules = ruleset_for(&member.name);

    // Source rules cover shipped code only: `src/` trees. Integration
    // tests, benches, and fixtures under `tests/` are free to unwrap.
    let src = member.dir.join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        report.files_scanned += 1;
        // The DetRng implementations live in files named rng.rs — the one
        // place allowed to speak about randomness.
        let mut file_rules = rules;
        if path.file_name().is_some_and(|n| n == "rng.rs") {
            file_rules.rng = false;
        }
        let label = rel_label(root, path);
        let out = rules::scan_source(&label, &text, file_rules);
        report.findings.extend(out.findings);
        report.hot_functions += out.stats.hot_functions;
        report.waivers_used += out.stats.waivers_used;
        report.waivers.extend(out.waivers);
    }

    // Header hygiene: every library root forbids unsafe code.
    if let Some(lib) = &member.lib_file {
        let text = std::fs::read_to_string(lib)
            .map_err(|e| format!("cannot read {}: {e}", lib.display()))?;
        if let Some(f) = rules::check_lib_header(&rel_label(root, lib), &text) {
            report.findings.push(f);
        }
    }
    Ok(())
}
