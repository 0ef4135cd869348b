//! A comment- and string-stripping tokenizer for Rust source.
//!
//! The lint rules are textual (substring patterns over source lines), so
//! before any rule runs the source is reduced to *code only*: comments are
//! deleted, and the contents of string and character literals are blanked
//! (the delimiting quotes are kept so token boundaries survive). This is
//! what makes `// a comment mentioning to_vec()` and
//! `"a string mentioning vec!"` invisible to the rules while
//! `x.to_vec()` stays visible.
//!
//! Lint directives are recognised in **line comments only** (`//`, `///`,
//! `//!`): `lint: hot-path` marks the next `fn` item as a hot path, and
//! `lint: allow(<rule>) <reason>` waives one rule on the directive's line
//! (trailing comment) or on the next code line (standalone comment). A
//! directive inside a block comment is ignored.

/// One parsed lint directive, anchored to the line it appeared on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based source line of the comment holding the directive.
    pub line: usize,
    /// What the directive asks for.
    pub kind: DirectiveKind,
}

/// The kinds of directive the lexer understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `lint: hot-path` — the next function is allocation-checked.
    HotPath,
    /// `lint: allow(<rule>) <reason>` — waive `rule` with a justification.
    Allow {
        /// The rule identifier being waived.
        rule: String,
        /// The mandatory human justification (may be empty here; the rule
        /// engine rejects empty reasons).
        reason: String,
    },
    /// A `lint:` comment that could not be parsed — always an error, so a
    /// typo can never silently disable a rule.
    Malformed {
        /// Why parsing failed.
        message: String,
    },
}

/// A source file reduced to bare code plus its extracted directives.
#[derive(Debug, Clone, Default)]
pub struct Stripped {
    /// Code-only lines, index 0 holding source line 1. Comment text is
    /// removed; string/char literal contents are blanked.
    pub lines: Vec<String>,
    /// Every `lint:` directive found in line comments, in source order.
    pub directives: Vec<Directive>,
}

impl Stripped {
    /// The stripped text of 1-based `line`, or `""` past the end.
    pub fn line(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Strips `source` to code-only lines and extracts lint directives.
pub fn strip(source: &str) -> Stripped {
    let cs: Vec<char> = source.chars().collect();
    let mut lines: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut directives: Vec<Directive> = Vec::new();
    let mut i = 0usize;

    // Helper closures cannot borrow `lines`/`cur` mutably at once, so the
    // newline split is inlined at each site instead.
    while i < cs.len() {
        let c = cs[i];
        match c {
            '\n' => {
                lines.push(std::mem::take(&mut cur));
                i += 1;
            }
            '/' if i + 1 < cs.len() && cs[i + 1] == '/' => {
                // Line comment: collect its text, check for a directive,
                // and drop it from the code line.
                let start = i;
                while i < cs.len() && cs[i] != '\n' {
                    i += 1;
                }
                let text: String = cs[start..i].iter().collect();
                if let Some(kind) = parse_directive(&text) {
                    directives.push(Directive {
                        line: lines.len() + 1,
                        kind,
                    });
                }
            }
            '/' if i + 1 < cs.len() && cs[i + 1] == '*' => {
                // Block comment, nested per Rust. Newlines inside keep the
                // line structure; the text becomes one space.
                cur.push(' ');
                let mut depth = 1usize;
                i += 2;
                while i < cs.len() && depth > 0 {
                    if cs[i] == '\n' {
                        lines.push(std::mem::take(&mut cur));
                        i += 1;
                    } else if cs[i] == '/' && i + 1 < cs.len() && cs[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if cs[i] == '*' && i + 1 < cs.len() && cs[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&cs, i, &mut cur, &mut lines),
            'r' | 'b' if starts_raw_string(&cs, i) => {
                i = skip_raw_string(&cs, i, &mut cur, &mut lines)
            }
            'b' if i + 1 < cs.len() && cs[i + 1] == '"' => {
                cur.push('b');
                i = skip_string(&cs, i + 1, &mut cur, &mut lines);
            }
            'b' if i + 1 < cs.len() && cs[i + 1] == '\'' => {
                cur.push('b');
                i = skip_char_or_lifetime(&cs, i + 1, &mut cur);
            }
            '\'' => i = skip_char_or_lifetime(&cs, i, &mut cur),
            _ => {
                // An identifier ending in r/b must not trigger the raw
                // string branch above, so consume whole identifiers here.
                if c.is_alphanumeric() || c == '_' {
                    while i < cs.len() && (cs[i].is_alphanumeric() || cs[i] == '_') {
                        cur.push(cs[i]);
                        i += 1;
                    }
                } else {
                    cur.push(c);
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    Stripped { lines, directives }
}

/// Does `r"`, `r#"`, `br"`, `br#"`... start at `i`?
fn starts_raw_string(cs: &[char], i: usize) -> bool {
    let mut j = i;
    if cs[j] == 'b' {
        j += 1;
    }
    if j >= cs.len() || cs[j] != 'r' {
        return false;
    }
    j += 1;
    while j < cs.len() && cs[j] == '#' {
        j += 1;
    }
    j < cs.len() && cs[j] == '"'
}

/// Skips a `"…"` literal starting at `cs[i]`, blanking its contents.
/// Returns the index just past the closing quote.
fn skip_string(cs: &[char], i: usize, cur: &mut String, lines: &mut Vec<String>) -> usize {
    cur.push('"');
    let mut i = i + 1;
    while i < cs.len() {
        match cs[i] {
            '\\' => i += 2, // escape: skip the escaped char too
            '"' => {
                cur.push('"');
                return i + 1;
            }
            '\n' => {
                lines.push(std::mem::take(cur));
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string (`r"…"`, `r#"…"#`, optionally `b`-prefixed) starting
/// at `cs[i]`, blanking its contents.
fn skip_raw_string(cs: &[char], i: usize, cur: &mut String, lines: &mut Vec<String>) -> usize {
    let mut i = i;
    if cs[i] == 'b' {
        cur.push('b');
        i += 1;
    }
    cur.push('r');
    i += 1;
    let mut hashes = 0usize;
    while i < cs.len() && cs[i] == '#' {
        cur.push('#');
        hashes += 1;
        i += 1;
    }
    cur.push('"');
    i += 1; // opening quote
    while i < cs.len() {
        if cs[i] == '\n' {
            lines.push(std::mem::take(cur));
            i += 1;
            continue;
        }
        if cs[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if cs.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                cur.push('"');
                for _ in 0..hashes {
                    cur.push('#');
                }
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Distinguishes a char literal (`'a'`, `'\n'`) from a lifetime (`'a`)
/// starting at the `'` at `cs[i]`; blanks char literal contents, keeps
/// lifetimes verbatim.
fn skip_char_or_lifetime(cs: &[char], i: usize, cur: &mut String) -> usize {
    debug_assert_eq!(cs[i], '\'');
    if i + 1 < cs.len() && cs[i + 1] == '\\' {
        // Escaped char literal: find the closing quote.
        cur.push('\'');
        let mut j = i + 2;
        while j < cs.len() && cs[j] != '\'' && cs[j] != '\n' {
            j += 1;
        }
        cur.push('\'');
        return (j + 1).min(cs.len());
    }
    if i + 2 < cs.len() && cs[i + 2] == '\'' {
        // Plain char literal 'x'.
        cur.push('\'');
        cur.push('\'');
        return i + 3;
    }
    // Lifetime: keep the tick, the identifier is copied by the main loop.
    cur.push('\'');
    i + 1
}

/// Parses a line comment's text into a directive, if it carries one.
fn parse_directive(comment: &str) -> Option<DirectiveKind> {
    let t = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim();
    let rest = t.strip_prefix("lint:")?.trim();
    if rest == "hot-path" {
        return Some(DirectiveKind::HotPath);
    }
    if let Some(r) = rest.strip_prefix("allow(") {
        return Some(match r.find(')') {
            None => DirectiveKind::Malformed {
                message: "unclosed `allow(` in lint directive".to_string(),
            },
            Some(p) => {
                let rule = r[..p].trim().to_string();
                let reason = r[p + 1..].trim().to_string();
                if rule.is_empty() {
                    DirectiveKind::Malformed {
                        message: "empty rule name in `lint: allow(...)`".to_string(),
                    }
                } else {
                    DirectiveKind::Allow { rule, reason }
                }
            }
        });
    }
    Some(DirectiveKind::Malformed {
        message: format!("unrecognised lint directive `{rest}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let s = strip("let x = \"unwrap()\"; // also unwrap()\nx.unwrap();");
        assert!(!s.lines[0].contains("unwrap"));
        assert!(s.lines[1].contains(".unwrap()"));
    }

    #[test]
    fn block_comments_nest_and_keep_line_numbers() {
        let s = strip("a /* x /* y */ z\nstill comment */ b\nc");
        assert_eq!(s.lines.len(), 3);
        assert!(s.lines[0].trim_end().ends_with('a'));
        assert_eq!(s.lines[1].trim(), "b");
        assert_eq!(s.lines[2], "c");
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = strip("fn f<'a>(q: &'a str) { let c = 'x'; let d = '\\n'; }");
        assert!(s.lines[0].contains("<'a>"));
        assert!(
            !s.lines[0].contains('x'),
            "char contents blanked: {}",
            s.lines[0]
        );
        assert!(
            !s.lines[0].contains("\\n"),
            "escape blanked: {}",
            s.lines[0]
        );
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = strip("let x = r#\"panic!(\"no\")\"#; y");
        assert!(!s.lines[0].contains("panic"));
        assert!(s.lines[0].ends_with("y"));
    }

    #[test]
    fn directives_are_extracted() {
        let s = strip("// lint: hot-path\nfn f() {}\nlet x = 1; // lint: allow(hot-path-alloc) provably fine\n// lint: allow(hot-path-alloc)\n// lint: frobnicate");
        assert_eq!(s.directives.len(), 4);
        assert_eq!(
            s.directives[0],
            Directive {
                line: 1,
                kind: DirectiveKind::HotPath
            }
        );
        assert!(matches!(
            &s.directives[1].kind,
            DirectiveKind::Allow { rule, reason } if rule == "hot-path-alloc" && reason == "provably fine"
        ));
        assert!(matches!(
            &s.directives[2].kind,
            DirectiveKind::Allow { reason, .. } if reason.is_empty()
        ));
        assert!(matches!(
            &s.directives[3].kind,
            DirectiveKind::Malformed { .. }
        ));
    }

    #[test]
    fn doc_comment_examples_are_invisible() {
        let s = strip("/// let y = x.unwrap();\n//! panic!(\"boom\")\nfn f() {}");
        assert!(!s.lines[0].contains("unwrap"));
        assert!(!s.lines[1].contains("panic"));
    }
}
