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
use crate::locks;

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
/// Rule identifier: a lock-acquisition-order cycle across the workspace.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule identifier: a guard held across a blocking call in a hot-path fn.
pub const RULE_GUARD_BLOCKING: &str = "guard-across-blocking";
/// Rule identifier: `.lock().unwrap()`/`.lock().expect(…)` in shipped code.
pub const RULE_BARE_LOCK: &str = "bare-lock";

/// Every waivable rule identifier (directives naming anything else are
/// rejected as malformed). Layering and header findings are structural —
/// they are fixed in the manifest or the crate root, never waived.
pub const WAIVABLE_RULES: &[&str] = &[
    RULE_PANIC,
    RULE_HOT_ALLOC,
    RULE_MAP,
    RULE_CLOCK,
    RULE_RNG,
    RULE_LOCK_ORDER,
    RULE_GUARD_BLOCKING,
    RULE_BARE_LOCK,
];

const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!(", "unimplemented!("];
const ALLOC_PATTERNS: &[&str] = &["Vec::new", "vec![", ".to_vec()", ".collect()", "Box::new", ".clone()", "with_capacity("];
const MAP_PATTERNS: &[&str] = &["HashMap", "HashSet"];
const CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];
const RNG_PATTERNS: &[&str] = &["rand::", "use rand;", "extern crate rand", "thread_rng", "from_entropy"];
const LOCK_PATTERNS: &[&str] = &[".lock().unwrap()", ".lock().expect("];

/// Which rule families apply to the file being scanned. Hot-path
/// allocation checks are always on — marking a function opts it in
/// regardless of crate.
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
    /// Enforce the concurrency-discipline rules (`lock-order`,
    /// `guard-across-blocking`, `bare-lock`).
    pub locks: bool,
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
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
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

/// Everything one file contributes to the workspace-wide analysis:
/// local findings plus the cross-file inputs (ordering edges, deferred
/// `lock-order` waivers, waiver inventory).
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Violations local to this file (everything except `lock-order`,
    /// which only exists once all files' edges are combined).
    pub findings: Vec<Finding>,
    /// Per-file statistics.
    pub stats: ScanStats,
    /// Lock-acquisition ordering edges observed in shipped code.
    pub edges: Vec<locks::Edge>,
    /// `lock-order` waivers, deferred to the global resolution.
    pub order_waivers: Vec<locks::OrderWaiver>,
    /// Every valid waiver registered in this file, with its reason.
    pub waivers: Vec<WaiverRecord>,
}

/// Scans one stripped source file under `rules`, returning findings and
/// stats. `file` is the label used in findings.
///
/// This is the single-file view: `lock-order` is resolved against only
/// this file's edges (fixtures and unit tests use it). The workspace
/// linter calls [`scan_source_model`] instead and resolves ordering
/// globally.
pub fn scan_source(file: &str, source: &str, rules: RuleSet) -> (Vec<Finding>, ScanStats) {
    let mut out = scan_source_model(file, source, rules);
    let order = locks::finish_order(&out.edges, &mut out.order_waivers);
    out.findings.extend(order);
    for w in &out.order_waivers {
        if w.used {
            out.stats.waivers_used += 1;
        } else {
            out.findings.push(Finding {
                file: file.to_string(),
                line: w.directive_line,
                rule: RULE_DIRECTIVE,
                message: "waiver for `lock-order` suppresses nothing — remove it".to_string(),
            });
        }
    }
    out.findings
        .sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    (out.findings, out.stats)
}

/// Scans one source file, returning the full per-file model for global
/// aggregation.
pub fn scan_source_model(file: &str, source: &str, rules: RuleSet) -> ScanOutput {
    let stripped = lexer::strip(source);
    let mut findings = Vec::new();
    let mut stats = ScanStats::default();
    let mut edges: Vec<locks::Edge> = Vec::new();
    let mut order_waivers: Vec<locks::OrderWaiver> = Vec::new();
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
                // `lock-order` findings only exist once every file's
                // edges are combined — defer those waivers to the global
                // resolution instead of the per-line pattern pass.
                if rule == RULE_LOCK_ORDER {
                    if !in_test(d.line) {
                        order_waivers.push(locks::OrderWaiver {
                            file: file.to_string(),
                            target_line: target,
                            directive_line: d.line,
                            reason: reason.clone(),
                            used: false,
                        });
                    }
                    continue;
                }
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
            check(line_no, text, RULE_PANIC, PANIC_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
        if in_hot(line_no) {
            check(line_no, text, RULE_HOT_ALLOC, ALLOC_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
        if rules.maps {
            check(line_no, text, RULE_MAP, MAP_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
        if rules.wall_clock {
            check(line_no, text, RULE_CLOCK, CLOCK_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
        if rules.rng {
            check(line_no, text, RULE_RNG, RNG_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
        if rules.locks {
            check(line_no, text, RULE_BARE_LOCK, LOCK_PATTERNS, &mut findings, &mut waivers, &mut stats.waivers_used);
        }
    }

    // Concurrency model pass: lock-acquisition edges for the global
    // `lock-order` resolution, plus `guard-across-blocking` findings in
    // hot-path functions. Test regions are exempt like everywhere else.
    if rules.locks {
        let hot: Vec<(usize, usize)> = hot_regions.iter().map(|r| (r.start, r.end)).collect();
        let model = locks::scan_file(file, &stripped, &hot);
        for f in model.local_findings {
            if in_test(f.line) {
                continue;
            }
            if let Some(w) = waivers
                .iter_mut()
                .find(|w| w.target_line == f.line && w.rule == f.rule)
            {
                if !w.used {
                    w.used = true;
                    stats.waivers_used += 1;
                }
                continue;
            }
            findings.push(f);
        }
        edges.extend(model.edges.into_iter().filter(|e| !in_test(e.line)));
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

    ScanOutput {
        findings,
        stats,
        edges,
        order_waivers,
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
                regions.push(Region { start: line_no, end });
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
pub(crate) fn find_fn_token(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(p) = text[from..].find("fn") {
        let at = from + p;
        let before_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
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
pub(crate) fn item_end(stripped: &Stripped, line: usize, col: usize) -> Option<usize> {
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

    const ALL: RuleSet =
        RuleSet { panic: true, maps: true, wall_clock: true, rng: true, locks: true };

    #[test]
    fn panic_fires_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let (f, _) = scan_source("a.rs", src, ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].rule, RULE_PANIC);
    }

    #[test]
    fn hot_path_alloc_fires_only_in_marked_fns() {
        let src = "fn cold() { let v = vec![0.0; 8]; }\n// lint: hot-path\nfn hot(out: &mut Vec<f64>) {\n    let v = vec![0.0; 8];\n}\n";
        let (f, s) = scan_source("a.rs", src, RuleSet::default());
        assert_eq!(s.hot_functions, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, RULE_HOT_ALLOC);
    }

    #[test]
    fn waiver_with_reason_suppresses_and_counts() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic) provably non-empty\n";
        let (f, s) = scan_source("a.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn waiver_without_reason_is_rejected_and_waives_nothing() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic)\n";
        let (f, _) = scan_source("a.rs", src, ALL);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == RULE_DIRECTIVE));
        assert!(f.iter().any(|x| x.rule == RULE_PANIC));
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let src = "// lint: allow(panic) no longer needed\nfn f() { let x = 1; }\n";
        let (f, _) = scan_source("a.rs", src, ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = "// lint: allow(wall-clock) startup banner only\nlet t = Instant::now();\n";
        let (f, s) = scan_source("a.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn header_check_accepts_and_rejects() {
        assert!(check_lib_header("l.rs", "//! Docs.\n#![forbid(unsafe_code)]\n").is_none());
        assert!(check_lib_header("l.rs", "//! Docs.\npub fn f() {}\n").is_some());
    }

    #[test]
    fn bare_lock_fires_and_is_waivable() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { let g = m.lock().unwrap(); }\n";
        let only_locks = RuleSet { locks: true, ..RuleSet::default() };
        let (f, _) = scan_source("a.rs", src, only_locks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_BARE_LOCK);

        let waived = "fn f(m: &std::sync::Mutex<u32>) { let g = m.lock().unwrap(); } \
                      // lint: allow(bare-lock) poison handled by caller\n";
        let (f, s) = scan_source("a.rs", waived, only_locks);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn lock_order_cycle_within_a_file() {
        let src = "struct E { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n\
                   impl E {\n\
                   fn fwd(&self) {\n\
                       let ga = lock(&self.a);\n\
                       let gb = lock(&self.b);\n\
                   }\n\
                   fn rev(&self) {\n\
                       let gb = lock(&self.b);\n\
                       let ga = lock(&self.a);\n\
                   }\n\
                   }\n";
        let only_locks = RuleSet { locks: true, ..RuleSet::default() };
        let (f, _) = scan_source("a.rs", src, only_locks);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RULE_LOCK_ORDER));
    }

    #[test]
    fn lock_order_waiver_suppresses_one_direction() {
        let src = "struct E { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n\
                   impl E {\n\
                   fn fwd(&self) {\n\
                       let ga = lock(&self.a);\n\
                       let gb = lock(&self.b);\n\
                   }\n\
                   fn rev(&self) {\n\
                       let gb = lock(&self.b);\n\
                       // lint: allow(lock-order) startup path, single-threaded\n\
                       let ga = lock(&self.a);\n\
                   }\n\
                   }\n";
        let only_locks = RuleSet { locks: true, ..RuleSet::default() };
        let (f, s) = scan_source("a.rs", src, only_locks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
        assert_eq!(f[0].line, 5);
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn stale_lock_order_waiver_is_flagged() {
        let src = "struct E { a: std::sync::Mutex<u32> }\n\
                   impl E {\n\
                   fn f(&self) {\n\
                       // lint: allow(lock-order) no cycle here any more\n\
                       let ga = lock(&self.a);\n\
                   }\n\
                   }\n";
        let only_locks = RuleSet { locks: true, ..RuleSet::default() };
        let (f, _) = scan_source("a.rs", src, only_locks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DIRECTIVE);
        assert!(f[0].message.contains("lock-order"), "{}", f[0].message);
    }

    #[test]
    fn guard_across_blocking_fires_in_hot_fn_and_is_waivable() {
        let src = "struct E { a: std::sync::Mutex<u32> }\n\
                   impl E {\n\
                   // lint: hot-path\n\
                   fn hot(&self) {\n\
                       let g = lock(&self.a);\n\
                       std::thread::sleep(d);\n\
                   }\n\
                   }\n";
        let only_locks = RuleSet { locks: true, ..RuleSet::default() };
        let (f, _) = scan_source("a.rs", src, only_locks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_GUARD_BLOCKING);
        assert_eq!(f[0].line, 6);

        let waived = src.replace(
            "std::thread::sleep(d);",
            "// lint: allow(guard-across-blocking) bounded 1ms backoff\n\
             std::thread::sleep(d);",
        );
        let (f, s) = scan_source("a.rs", &waived, only_locks);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn maps_clock_rng_patterns() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\nlet r = rand::random();\n";
        let (f, _) = scan_source("a.rs", src, ALL);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RULE_MAP));
        assert!(rules.contains(&RULE_CLOCK));
        assert!(rules.contains(&RULE_RNG));
    }
}
