//! The rule families and the per-file scanning engine.
//!
//! Only what no compiler lint can express lives here. Panic-freedom,
//! unordered maps, wall-clock reads and locks are clippy's job (crate-root
//! `#![deny(...)]` attributes and `clippy.toml`; see DESIGN.md "Static
//! analysis & invariants"). The one source rule left is allocation
//! discipline: a substring pattern over [`crate::lexer`]-stripped code,
//! applied *only* inside functions marked `// lint: hot-path`, and waived
//! per line by `// lint: allow(hot-path-alloc) <reason>` — the reason is
//! mandatory, and a waiver that suppresses nothing is itself an error so
//! stale waivers cannot accumulate.

use crate::lexer::{self, DirectiveKind, Stripped};

/// Rule identifier: no allocating constructs inside hot-path functions.
pub const RULE_HOT_ALLOC: &str = "hot-path-alloc";
/// Rule identifier: malformed/orphaned/unused lint directives.
pub const RULE_DIRECTIVE: &str = "directive";
/// Rule identifier: `earsonar-sim` in a protected crate's dependency closure.
pub const RULE_LAYERING: &str = "layering";
/// Rule identifier: a library root missing `#![forbid(unsafe_code)]`.
pub const RULE_HEADER: &str = "unsafe-header";

const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    ".to_vec()",
    ".collect()",
    "Box::new",
    ".clone()",
    "with_capacity(",
];

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

/// A pending `hot-path-alloc` waiver attached to a target line.
struct Waiver {
    target_line: usize,
    used: bool,
    directive_line: usize,
}

/// Scans one source file. `file` is the label used in findings; the
/// returned findings are in (line, rule) order.
pub fn scan_source(file: &str, source: &str) -> (Vec<Finding>, ScanStats) {
    let stripped = lexer::strip(source);
    let mut findings = Vec::new();
    let mut stats = ScanStats::default();
    let finding = |line: usize, message: String| Finding {
        file: file.to_string(),
        line,
        rule: RULE_DIRECTIVE,
        message,
    };

    // Directives: collect waivers and hot-path regions; malformed ones and
    // reason-less waivers are findings in their own right.
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut hot_regions: Vec<Region> = Vec::new();
    for d in &stripped.directives {
        match &d.kind {
            DirectiveKind::Malformed { message } => {
                findings.push(finding(d.line, message.clone()));
            }
            DirectiveKind::Allow { rule, .. } if rule != RULE_HOT_ALLOC => {
                findings.push(finding(d.line, format!("cannot waive rule `{rule}`")));
            }
            DirectiveKind::Allow { reason, .. } if reason.is_empty() => {
                // A reason-less waiver waives nothing, so the violation
                // also fires.
                findings.push(finding(
                    d.line,
                    format!(
                        "waiver for `{RULE_HOT_ALLOC}` has no reason — \
                         write `lint: allow({RULE_HOT_ALLOC}) <why this is sound>`"
                    ),
                ));
            }
            DirectiveKind::Allow { .. } => waivers.push(Waiver {
                target_line: waiver_target(&stripped, d.line),
                used: false,
                directive_line: d.line,
            }),
            DirectiveKind::HotPath => match hot_region_after(&stripped, d.line) {
                Some(r) => {
                    stats.hot_functions += 1;
                    hot_regions.push(r);
                }
                None => findings.push(finding(
                    d.line,
                    "`lint: hot-path` marker is not followed by a function".to_string(),
                )),
            },
        }
    }

    // Pattern pass: allocation constructs inside hot-path functions.
    for (idx, text) in stripped.lines.iter().enumerate() {
        let line_no = idx + 1;
        if !hot_regions.iter().any(|r| r.contains(line_no)) {
            continue;
        }
        for pat in ALLOC_PATTERNS.iter().filter(|p| text.contains(*p)) {
            if let Some(w) = waivers.iter_mut().find(|w| w.target_line == line_no) {
                if !w.used {
                    w.used = true;
                    stats.waivers_used += 1;
                }
                continue;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: line_no,
                rule: RULE_HOT_ALLOC,
                message: format!("`{pat}` is banned here"),
            });
        }
    }

    // A waiver that suppressed nothing is stale — surface it so the waiver
    // list stays honest.
    for w in waivers.iter().filter(|w| !w.used) {
        findings.push(finding(
            w.directive_line,
            format!("waiver for `{RULE_HOT_ALLOC}` suppresses nothing — remove it"),
        ));
    }

    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    (findings, stats)
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

    #[test]
    fn hot_path_alloc_fires_only_in_marked_fns() {
        let src = "fn cold() { let v = vec![0.0; 8]; }\n// lint: hot-path\nfn hot(out: &mut Vec<f64>) {\n    let v = vec![0.0; 8];\n}\n";
        let (f, s) = scan_source("a.rs", src);
        assert_eq!(s.hot_functions, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, RULE_HOT_ALLOC);
    }

    #[test]
    fn waiver_with_reason_suppresses_and_counts() {
        let src = "// lint: hot-path\nfn f() {\n    let v = vec![1]; // lint: allow(hot-path-alloc) one per capture\n}\n";
        let (f, s) = scan_source("a.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let src = "// lint: allow(hot-path-alloc) no longer needed\nfn f() { let x = 1; }\n";
        let (f, _) = scan_source("a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = "// lint: hot-path\nfn f() {\n    // lint: allow(hot-path-alloc) the result must own its samples\n    let v = x.to_vec();\n}\n";
        let (f, s) = scan_source("a.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.waivers_used, 1);
    }

    #[test]
    fn rules_the_compiler_enforces_cannot_be_waived() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic) provably non-empty\n";
        let (f, _) = scan_source("a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DIRECTIVE);
        assert!(f[0].message.contains("cannot waive rule `panic`"), "{f:?}");
    }

    #[test]
    fn header_check_accepts_and_rejects() {
        assert!(check_lib_header("l.rs", "//! Docs.\n#![forbid(unsafe_code)]\n").is_none());
        assert!(check_lib_header("l.rs", "//! Docs.\npub fn f() {}\n").is_some());
    }
}
