//! The rule families and the per-file scanning engine.
//!
//! Every rule is a substring pattern over [`crate::lexer`]-stripped code,
//! scoped three ways: by crate (each family applies to a fixed set of
//! workspace crates), by region (`#[cfg(test)]` items are exempt from all
//! source rules; the allocation rules apply *only* inside functions marked
//! `// lint: hot-path`), and by waiver (`// lint: allow(<rule>) <reason>`
//! suppresses one rule on one line — the reason is mandatory, and a waiver
//! that suppresses nothing is itself an error so stale waivers cannot
//! accumulate).

use crate::lexer::{self, DirectiveKind, Stripped};

/// Rule identifier: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`.
pub const RULE_PANIC: &str = "panic";
/// Rule identifier: no allocating constructs inside hot-path functions.
pub const RULE_HOT_ALLOC: &str = "hot-path-alloc";
/// Rule identifier: no `HashMap`/`HashSet` in result-producing crates.
pub const RULE_MAP: &str = "nondeterministic-map";
/// Rule identifier: no `Instant::now`/`SystemTime` outside bench and CLI.
pub const RULE_CLOCK: &str = "wall-clock";
/// Rule identifier: no ambient randomness outside the `DetRng` modules.
pub const RULE_RNG: &str = "ambient-rng";
/// Rule identifier: malformed/orphaned/unused lint directives.
pub const RULE_DIRECTIVE: &str = "directive";
/// Rule identifier: `earsonar-sim` in a protected crate's dependency closure.
pub const RULE_LAYERING: &str = "layering";
/// Rule identifier: a library root missing `#![forbid(unsafe_code)]`.
pub const RULE_HEADER: &str = "unsafe-header";
/// Rule identifier: no `Mutex`/`RwLock`/`Condvar` in shipped code.
pub const RULE_LOCK: &str = "lock";

/// Every waivable rule identifier (directives naming anything else are
/// rejected as malformed). Layering and header findings are structural —
/// they are fixed in the manifest or the crate root, never waived.
pub const WAIVABLE_RULES: &[&str] = &[
    RULE_PANIC,
    RULE_HOT_ALLOC,
    RULE_MAP,
    RULE_CLOCK,
    RULE_RNG,
    RULE_LOCK,
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "todo!(",
    "unimplemented!(",
];
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    ".to_vec()",
    ".collect()",
    "Box::new",
    ".clone()",
    "with_capacity(",
];
const MAP_PATTERNS: &[&str] = &["HashMap", "HashSet"];
const CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];
const RNG_PATTERNS: &[&str] = &[
    "rand::",
    "use rand;",
    "extern crate rand",
    "thread_rng",
    "from_entropy",
];
const LOCK_PATTERNS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Which rule families apply to the file being scanned. Hot-path
/// allocation checks are always on — marking a function opts it in
/// regardless of crate — and so is the lock ban.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Enforce panic-freedom.
    pub panic: bool,
    /// Enforce `HashMap`/`HashSet` bans.
    pub maps: bool,
    /// Enforce the wall-clock ban.
    pub wall_clock: bool,
    /// Enforce the ambient-randomness ban.
    pub rng: bool,
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file (or manifest).
    pub file: String,
    /// 1-based line number (0 for whole-file/manifest findings).
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file scan statistics, aggregated into the final report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanStats {
    /// Hot-path functions discovered in this file.
    pub hot_functions: usize,
    /// Waivers that suppressed a real violation.
    pub waivers_used: usize,
}

/// An inclusive 1-based line range.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
}

impl Region {
    fn contains(&self, line: usize) -> bool {
        line >= self.start && line <= self.end
    }
}

/// A pending waiver attached to a target line.
struct Waiver {
    target_line: usize,
    rule: String,
    used: bool,
    directive_line: usize,
}

/// A registered waiver with its justification — the raw material of the
/// `--waivers` audit and the report's waiver inventory.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// File carrying the directive.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: usize,
    /// Rule the waiver suppresses.
    pub rule: String,
    /// The mandatory justification text.
    pub reason: String,
}

/// Everything one file contributes to the workspace report.
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Violations in this file, in (line, rule) order.
    pub findings: Vec<Finding>,
    /// Per-file statistics.
    pub stats: ScanStats,
    /// Every valid waiver registered in this file, with its reason.
    pub waivers: Vec<WaiverRecord>,
}

/// Scans one source file under `rules`. `file` is the label used in
/// findings.
pub fn scan_source(file: &str, source: &str, rules: RuleSet) -> ScanOutput {
    let stripped = lexer::strip(source);
    let mut findings = Vec::new();
    let mut stats = ScanStats::default();
    let mut waiver_records: Vec<WaiverRecord> = Vec::new();

    let test_regions = find_test_regions(&stripped);
    let in_test = |line: usize| test_regions.iter().any(|r| r.contains(line));

    // Directives: collect waivers and hot-path regions; malformed ones and
    // reason-less waivers are findings in their own right.
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut hot_regions: Vec<Region> = Vec::new();
    for d in &stripped.directives {
        match &d.kind {
            DirectiveKind::Malformed { message } => findings.push(Finding {
                file: file.to_string(),
                line: d.line,
                rule: RULE_DIRECTIVE,
                message: message.clone(),
            }),
            DirectiveKind::Allow { rule, reason } => {
                if !WAIVABLE_RULES.contains(&rule.as_str()) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: d.line,
                        rule: RULE_DIRECTIVE,
                        message: format!("cannot waive unknown rule `{rule}`"),
                    });
                    continue;
                }
                if reason.is_empty() {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: d.line,
                        rule: RULE_DIRECTIVE,
                        message: format!(
                            "waiver for `{rule}` has no reason — \
                             write `lint: allow({rule}) <why this is sound>`"
                        ),
                    });
                    // A reason-less waiver waives nothing: fall through
                    // without registering it, so the violation also fires.
                    continue;
                }
                let target = waiver_target(&stripped, d.line);
                waiver_records.push(WaiverRecord {
                    file: file.to_string(),
                    line: d.line,
                    rule: rule.clone(),
                    reason: reason.clone(),
                });
                waivers.push(Waiver {
                    target_line: target,
                    rule: rule.clone(),
                    used: false,
                    directive_line: d.line,
                });
            }
            DirectiveKind::HotPath => match hot_region_after(&stripped, d.line) {
                Some(r) => {
                    stats.hot_functions += 1;
                    hot_regions.push(r);
                }
                None => findings.push(Finding {
                    file: file.to_string(),
                    line: d.line,
                    rule: RULE_DIRECTIVE,
                    message: "`lint: hot-path` marker is not followed by a function".to_string(),
                }),
            },
        }
    }
    let in_hot = |line: usize| hot_regions.iter().any(|r| r.contains(line));

    // Pattern pass.
    let check = |line_no: usize,
                 text: &str,
                 rule: &'static str,
                 patterns: &[&str],
                 findings: &mut Vec<Finding>,
                 waivers: &mut Vec<Waiver>,
                 used: &mut usize| {
        for pat in patterns {
            if !text.contains(pat) {
                continue;
            }
            if let Some(w) = waivers
                .iter_mut()
                .find(|w| w.target_line == line_no && w.rule == rule)
            {
                if !w.used {
                    w.used = true;
                    *used += 1;
                }
                continue;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: line_no,
                rule,
                message: format!("`{pat}` is banned here"),
            });
        }
    };

    for (idx, text) in stripped.lines.iter().enumerate() {
        let line_no = idx + 1;
        if in_test(line_no) {
            continue;
        }
        if rules.panic {
            check(
                line_no,
                text,
                RULE_PANIC,
                PANIC_PATTERNS,
                &mut findings,
                &mut waivers,
                &mut stats.waivers_used,
            );
        }
        if in_hot(line_no) {
            check(
                line_no,
                text,
                RULE_HOT_ALLOC,
                ALLOC_PATTERNS,
                &mut findings,
                &mut waivers,
                &mut stats.waivers_used,
            );
        }
        if rules.maps {
            check(
                line_no,
                text,
                RULE_MAP,
                MAP_PATTERNS,
                &mut findings,
                &mut waivers,
                &mut stats.waivers_used,
            );
        }
        if rules.wall_clock {
            check(
                line_no,
                text,
                RULE_CLOCK,
                CLOCK_PATTERNS,
                &mut findings,
                &mut waivers,
                &mut stats.waivers_used,
            );
        }
        if rules.rng {
            check(
                line_no,
                text,
                RULE_RNG,
                RNG_PATTERNS,
                &mut findings,
                &mut waivers,
                &mut stats.waivers_used,
            );
        }
        check(
            line_no,
            text,
            RULE_LOCK,
            LOCK_PATTERNS,
            &mut findings,
            &mut waivers,
            &mut stats.waivers_used,
        );
    }

    // A waiver that suppressed nothing is stale (or the rule family does
    // not even apply here) — surface it so the waiver list stays honest.
    for w in &waivers {
        if !w.used && !in_test(w.directive_line) {
            findings.push(Finding {
                file: file.to_string(),
                line: w.directive_line,
                rule: RULE_DIRECTIVE,
                message: format!("waiver for `{}` suppresses nothing — remove it", w.rule),
            });
        }
    }

    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    ScanOutput {
        findings,
        stats,
        waivers: waiver_records,
    }
}

/// Checks a library root for the `#![forbid(unsafe_code)]` header.
pub fn check_lib_header(file: &str, source: &str) -> Option<Finding> {
    let stripped = lexer::strip(source);
    let has = stripped
        .lines
        .iter()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if has {
        None
    } else {
        Some(Finding {
            file: file.to_string(),
            line: 1,
            rule: RULE_HEADER,
            message: "library root must carry `#![forbid(unsafe_code)]`".to_string(),
        })
    }
}

/// The line a waiver applies to: its own line if it carries code (trailing
/// comment), otherwise the next line with any code on it.
fn waiver_target(stripped: &Stripped, directive_line: usize) -> usize {
    if !stripped.line(directive_line).trim().is_empty() {
        return directive_line;
    }
    for l in directive_line + 1..=stripped.lines.len() {
        if !stripped.line(l).trim().is_empty() {
            return l;
        }
    }
    directive_line
}

/// Every `#[cfg(test)]` item's line range (attribute through closing brace
/// or terminating semicolon).
fn find_test_regions(stripped: &Stripped) -> Vec<Region> {
    let mut regions = Vec::new();
    for (idx, text) in stripped.lines.iter().enumerate() {
        let line_no = idx + 1;
        if let Some(col) = text.find("#[cfg(test)]") {
            if let Some(end) = item_end(stripped, line_no, col + "#[cfg(test)]".len()) {
                regions.push(Region {
                    start: line_no,
                    end,
                });
            }
        }
    }
    regions
}

/// The hot-path region for a marker on `marker_line`: the body of the next
/// `fn` item. `None` if no function follows within a few lines.
fn hot_region_after(stripped: &Stripped, marker_line: usize) -> Option<Region> {
    // Allow attributes/visibility lines between marker and `fn`.
    for l in marker_line..=(marker_line + 8).min(stripped.lines.len()) {
        let text = stripped.line(l);
        if let Some(col) = find_fn_token(text) {
            let end = item_end(stripped, l, col)?;
            return Some(Region { start: l, end });
        }
    }
    None
}

/// Column of a real `fn` token on the line (not part of an identifier).
fn find_fn_token(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(p) = text[from..].find("fn") {
        let at = from + p;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let after = at + 2;
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 2;
    }
    None
}

/// Scans forward from (`line`, `col`) for the item's extent: brace-matched
/// from its first `{`, or ended by a `;` seen before any `{`. Returns the
/// 1-based last line.
fn item_end(stripped: &Stripped, line: usize, col: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut seen_open = false;
    let mut l = line;
    let mut start_col = col;
    while l <= stripped.lines.len() {
        for ch in stripped.line(l)[start_col.min(stripped.line(l).len())..].chars() {
            match ch {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if seen_open && depth == 0 {
                        return Some(l);
                    }
                }
                ';' if !seen_open => return Some(l),
                _ => {}
            }
        }
        l += 1;
        start_col = 0;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(file: &str, source: &str, rules: RuleSet) -> (Vec<Finding>, ScanStats) {
        let out = scan_source(file, source, rules);
        (out.findings, out.stats)
    }

    const ALL: RuleSet = RuleSet {
        panic: true,
        maps: true,
        wall_clock: true,
        rng: true,
    };

    #[test]
    fn panic_fires_outside_tests_only() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let (f, _) = scan("a.rs", src, ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].rule, RULE_PANIC);
    }

    #[test]
    fn hot_path_alloc_fires_only_in_marked_fns() {
        let src = "fn cold() { let v = vec![0.0; 8]; }\n// lint: hot-path\nfn hot(out: &mut Vec<f64>) {\n    let v = vec![0.0; 8];\n}\n";
        let (f, s) = scan("a.rs", src, RuleSet::default());
        assert_eq!(s.hot_functions, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, RULE_HOT_ALLOC);
    }

    #[test]
    fn waiver_with_reason_suppresses_and_counts() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic) provably non-empty\n";
        let (f, s) = scan("a.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn waiver_without_reason_is_rejected_and_waives_nothing() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic)\n";
        let (f, _) = scan("a.rs", src, ALL);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == RULE_DIRECTIVE));
        assert!(f.iter().any(|x| x.rule == RULE_PANIC));
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let src = "// lint: allow(panic) no longer needed\nfn f() { let x = 1; }\n";
        let (f, _) = scan("a.rs", src, ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = "// lint: allow(wall-clock) startup banner only\nlet t = Instant::now();\n";
        let (f, s) = scan("a.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn header_check_accepts_and_rejects() {
        assert!(check_lib_header("l.rs", "//! Docs.\n#![forbid(unsafe_code)]\n").is_none());
        assert!(check_lib_header("l.rs", "//! Docs.\npub fn f() {}\n").is_some());
    }

    #[test]
    fn lock_types_fire_and_are_waivable() {
        let src = "use std::sync::{Condvar, Mutex};\nstruct E { t: RwLock<u32> }\n";
        let (f, _) = scan("a.rs", src, RuleSet::default());
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RULE_LOCK), "{f:?}");

        let waived = "static M: Mutex<u32> = Mutex::new(0); \
                      // lint: allow(lock) process-wide registry, one writer at startup\n";
        let (f, s) = scan("a.rs", waived, RuleSet::default());
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn lock_names_in_comments_strings_and_tests_are_ignored() {
        let src = "// no Mutex here\nfn f() -> &'static str { \"RwLock\" }\n\
                   #[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        let (f, _) = scan("a.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn maps_clock_rng_patterns() {
        let src =
            "use std::collections::HashMap;\nlet t = Instant::now();\nlet r = rand::random();\n";
        let (f, _) = scan("a.rs", src, ALL);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RULE_MAP));
        assert!(rules.contains(&RULE_CLOCK));
        assert!(rules.contains(&RULE_RNG));
    }
}
