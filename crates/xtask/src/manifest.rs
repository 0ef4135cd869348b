//! Workspace discovery and crate layering over `Cargo.toml` manifests.
//!
//! A deliberately minimal TOML reader: section headers, `key = value`
//! lines, and dependency tables are all this tool needs, and parsing the
//! manifests directly (instead of shelling out to `cargo tree`) keeps the
//! layering check working before the workspace even builds.

use crate::rules::{Finding, RULE_LAYERING};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose *normal* dependency closure must never contain
/// [`FORBIDDEN_DEP`]: the detection core consumes recordings through
/// `earsonar-signal`, and the session engine multiplexes that same core;
/// the simulator is one producer among several and must only ever appear
/// as a dev-dependency.
pub const PROTECTED_CRATES: &[&str] = &[
    "earsonar",
    "earsonar-ml",
    "earsonar-signal",
    "earsonar-engine",
];
/// The crate banned from protected closures.
pub const FORBIDDEN_DEP: &str = "earsonar-sim";

/// One workspace member, as read from its manifest.
#[derive(Debug, Clone)]
pub struct Member {
    /// The `[package] name`.
    pub name: String,
    /// Directory holding the member's `Cargo.toml`.
    pub dir: PathBuf,
    /// The library root file, if the member has a lib target.
    pub lib_file: Option<PathBuf>,
    /// Names of `[dependencies]` entries (normal deps only).
    pub normal_deps: Vec<String>,
}

/// The parsed pieces of one manifest this tool cares about.
#[derive(Debug, Default)]
struct ParsedManifest {
    package_name: Option<String>,
    lib_path: Option<String>,
    workspace_members: Vec<String>,
    normal_deps: Vec<String>,
}

/// Parses the manifest text. Handles exactly the idioms this workspace
/// uses: `[section]` headers, `name = "…"`, `path = "…"`, dotted keys
/// (`foo.workspace = true`), inline tables, and multi-line `members`
/// arrays.
fn parse_manifest(text: &str) -> ParsedManifest {
    let mut m = ParsedManifest::default();
    let mut section = String::new();
    let mut lines = text.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line
                .trim_matches(|c| c == '[' || c == ']')
                .trim()
                .to_string();
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        match section.as_str() {
            "package" if key == "name" => m.package_name = Some(unquote(value)),
            "lib" if key == "path" => m.lib_path = Some(unquote(value)),
            "workspace" if key == "members" => {
                let mut buf = value.to_string();
                while !buf.contains(']') {
                    match lines.next() {
                        Some(next) => {
                            buf.push(' ');
                            buf.push_str(strip_toml_comment(next));
                        }
                        None => break,
                    }
                }
                m.workspace_members = buf
                    .split(['[', ']', ','])
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(unquote)
                    .collect();
            }
            "dependencies" => m.normal_deps.push(dep_name(key)),
            _ => {}
        }
    }
    m
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

/// The dependency name of a `[dependencies]` key: `foo`, `foo.workspace`,
/// and `foo = { … }` all name `foo`. (A `package = "…"` rename would break
/// this; the workspace does not use renames, and the lint would fail loudly
/// on the unknown name if one appeared.)
fn dep_name(key: &str) -> String {
    key.split('.')
        .next()
        .unwrap_or(key)
        .trim()
        .trim_matches('"')
        .to_string()
}

/// Reads the workspace rooted at `root`: the root package (if any) plus
/// every member named by `[workspace] members` (literal entries and
/// trailing-`/*` globs).
pub fn discover(root: &Path) -> Result<Vec<Member>, String> {
    let root_manifest = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&root_manifest)
        .map_err(|e| format!("cannot read {}: {e}", root_manifest.display()))?;
    let parsed = parse_manifest(&text);

    let mut dirs: Vec<PathBuf> = Vec::new();
    if parsed.package_name.is_some() {
        dirs.push(root.to_path_buf());
    }
    for member in &parsed.workspace_members {
        if let Some(prefix) = member.strip_suffix("/*") {
            let base = root.join(prefix);
            let entries = std::fs::read_dir(&base)
                .map_err(|e| format!("cannot read members dir {}: {e}", base.display()))?;
            let mut expanded: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            expanded.sort();
            dirs.extend(expanded);
        } else {
            dirs.push(root.join(member));
        }
    }

    let mut members = Vec::new();
    for dir in dirs {
        if dir != root && !dir.join("Cargo.toml").is_file() {
            return Err(format!(
                "workspace member {} has no Cargo.toml",
                dir.display()
            ));
        }
        let text = std::fs::read_to_string(dir.join("Cargo.toml"))
            .map_err(|e| format!("cannot read {}: {e}", dir.join("Cargo.toml").display()))?;
        let p = parse_manifest(&text);
        let Some(name) = p.package_name else {
            continue; // virtual manifest
        };
        let lib_file = match p.lib_path {
            Some(rel) => Some(dir.join(rel)),
            None => {
                let default = dir.join("src/lib.rs");
                default.is_file().then_some(default)
            }
        };
        members.push(Member {
            name,
            dir,
            lib_file,
            normal_deps: p.normal_deps,
        });
    }
    Ok(members)
}

/// Walks the normal-dependency closure of every protected crate; any path
/// reaching [`FORBIDDEN_DEP`] is a finding that spells out the chain.
pub fn check_layering(members: &[Member]) -> Vec<Finding> {
    let by_name: BTreeMap<&str, &Member> = members.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut findings = Vec::new();
    for &protected in PROTECTED_CRATES {
        let Some(start) = by_name.get(protected) else {
            continue;
        };
        // DFS over workspace-local normal deps, remembering the chain.
        let mut stack: Vec<(&Member, Vec<String>)> = vec![(start, vec![protected.to_string()])];
        let mut visited: Vec<&str> = Vec::new();
        while let Some((m, chain)) = stack.pop() {
            for dep in &m.normal_deps {
                if dep == FORBIDDEN_DEP {
                    let mut full = chain.clone();
                    full.push(dep.clone());
                    findings.push(Finding {
                        file: m.dir.join("Cargo.toml").to_string_lossy().into_owned(),
                        line: 0,
                        rule: RULE_LAYERING,
                        message: format!(
                            "`{protected}` must not depend on `{FORBIDDEN_DEP}` \
                             (normal-dependency chain: {})",
                            full.join(" -> ")
                        ),
                    });
                    continue;
                }
                if let Some(next) = by_name.get(dep.as_str()) {
                    if !visited.contains(&next.name.as_str()) {
                        visited.push(&next.name);
                        let mut full = chain.clone();
                        full.push(dep.clone());
                        stack.push((next, full));
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_this_workspace_idioms() {
        let p = parse_manifest(
            "[workspace]\nmembers = [\"crates/*\"]\n\n[package]\nname = \"suite\"\n\n[lib]\npath = \"src/suite.rs\"\n\n[dependencies]\nfoo.workspace = true\nbar = { path = \"../bar\" }\n",
        );
        assert_eq!(p.package_name.as_deref(), Some("suite"));
        assert_eq!(p.lib_path.as_deref(), Some("src/suite.rs"));
        assert_eq!(p.workspace_members, vec!["crates/*"]);
        assert_eq!(p.normal_deps, vec!["foo", "bar"]);
    }

    #[test]
    fn multiline_members_and_comments() {
        let p = parse_manifest("[workspace]\nmembers = [\n  \"a\", # first\n  \"b\",\n]\n");
        assert_eq!(p.workspace_members, vec!["a", "b"]);
    }

    #[test]
    fn dev_dependencies_are_not_normal_deps() {
        let p = parse_manifest("[dev-dependencies]\nsim.workspace = true\n");
        assert!(p.normal_deps.is_empty());
    }

    fn member(name: &str, deps: &[&str]) -> Member {
        Member {
            name: name.to_string(),
            dir: PathBuf::from(name),
            lib_file: None,
            normal_deps: deps.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn transitive_layering_violation_is_found_with_chain() {
        let members = vec![
            member("earsonar", &["earsonar-dsp", "middle"]),
            member("middle", &["earsonar-sim"]),
            member("earsonar-sim", &[]),
            member("earsonar-dsp", &[]),
        ];
        let f = check_layering(&members);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("earsonar -> middle -> earsonar-sim"));
    }

    #[test]
    fn dev_only_sim_is_legal() {
        let members = vec![
            member("earsonar", &["earsonar-dsp"]),
            member("earsonar-sim", &["earsonar-dsp"]),
            member("earsonar-dsp", &[]),
        ];
        assert!(check_layering(&members).is_empty());
    }

    #[test]
    fn engine_is_protected_from_sim() {
        let members = vec![
            member("earsonar-engine", &["earsonar", "earsonar-sim"]),
            member("earsonar", &["earsonar-dsp"]),
            member("earsonar-sim", &[]),
            member("earsonar-dsp", &[]),
        ];
        let f = check_layering(&members);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("earsonar-engine -> earsonar-sim"));
    }
}
