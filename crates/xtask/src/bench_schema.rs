//! Schema validation for the unified benchmark report (`BENCH_pr9.json`).
//!
//! `cargo run -p xtask -- bench-schema` parses the report with a
//! std-only JSON reader and checks the versioned shape that downstream
//! consumers (the README table, CI artifacts) rely on: `schema_version`
//! 5, the named kernel sections with their equivalence labels, the
//! end-to-end throughput block, the session-engine load section
//! (sessions/sec plus p50/p99 latency per worker count), the A/B
//! `backends` section (baseline vs candidate backends with per-class
//! precision deltas), and the `lint` section (rule/waiver counts spliced
//! in by `xtask lint --report`). CI runs this right after
//! `perf_report --smoke`, `engine-bench --smoke`, `ab-bench --smoke` and
//! the lint splice, so schema drift fails the build without ever
//! asserting on timing values (which are noise on shared runners).

use std::fmt;

/// A parsed JSON value (just enough of the grammar for the report).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (how `json_num` spells a non-finite measurement).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escape sequences are accepted but kept verbatim).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as insertion-ordered pairs (no hashing: determinism).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// A schema violation or parse failure, with a JSON-pointer-ish path.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// Where in the document, e.g. `kernels.filtfilt.speedup`.
    pub path: String,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

fn err(path: &str, message: impl Into<String>) -> SchemaError {
    SchemaError {
        path: path.to_string(),
        message: message.into(),
    }
}

// ---- minimal JSON parser ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(
                "parse",
                format!("expected `{}` at byte {}", c as char, self.pos),
            ))
        }
    }

    fn value(&mut self) -> Result<Value, SchemaError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(err("parse", format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, SchemaError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(err("parse", format!("bad literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, SchemaError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err("parse", "non-utf8 number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err("parse", format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Keep the escape verbatim; the report never needs
                    // unescaping for validation.
                    out.push('\\');
                    self.pos += 1;
                    if let Some(c) = self.peek() {
                        out.push(c as char);
                        self.pos += 1;
                    }
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err(err("parse", "unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(err("parse", format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err("parse", format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`SchemaError`] with path `parse` for malformed input.
pub fn parse_json(text: &str) -> Result<Value, SchemaError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err("parse", format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

// ---- the BENCH_pr9 schema ----

/// The kernel sections every report must carry, matching the
/// `KernelRow` names in `perf_report`.
pub const REQUIRED_KERNELS: &[&str] = &[
    "filtfilt",
    "window_multiply",
    "correlation",
    "mel_projection",
    "mfcc",
    "quality_scan",
    "wav_decode",
];

fn want<'v>(
    obj: &'v Value,
    path: &str,
    key: &str,
    errors: &mut Vec<SchemaError>,
) -> Option<&'v Value> {
    let v = obj.get(key);
    if v.is_none() {
        errors.push(err(&format!("{path}.{key}"), "missing required key"));
    }
    v
}

/// A number, or `null` (how `json_num` renders a non-finite value).
fn want_num(obj: &Value, path: &str, key: &str, errors: &mut Vec<SchemaError>) {
    if let Some(v) = want(obj, path, key, errors) {
        if !matches!(v, Value::Num(_) | Value::Null) {
            errors.push(err(
                &format!("{path}.{key}"),
                format!("expected number, found {}", v.type_name()),
            ));
        }
    }
}

fn want_bool(obj: &Value, path: &str, key: &str, errors: &mut Vec<SchemaError>) {
    if let Some(v) = want(obj, path, key, errors) {
        if !matches!(v, Value::Bool(_)) {
            errors.push(err(
                &format!("{path}.{key}"),
                format!("expected bool, found {}", v.type_name()),
            ));
        }
    }
}

/// Validates the session-engine load section: the run's shape knobs and
/// a non-empty worker sweep with throughput and tail-latency columns.
fn check_engine(v: &Value, errors: &mut Vec<SchemaError>) {
    let p = "$.engine";
    want_num(v, p, "sessions", errors);
    want_num(v, p, "shards", errors);
    want_num(v, p, "queue_capacity", errors);
    want_num(v, p, "chunk_len", errors);
    want_num(v, p, "best_sessions_per_sec", errors);
    want_bool(v, p, "equivalent_to_sequential", errors);
    let Some(sweep) = want(v, p, "worker_sweep", errors) else {
        return;
    };
    let path = "$.engine.worker_sweep";
    let Value::Arr(rows) = sweep else {
        errors.push(err(
            path,
            format!("expected array, found {}", sweep.type_name()),
        ));
        return;
    };
    if rows.is_empty() {
        errors.push(err(path, "worker sweep must not be empty"));
    }
    for (i, row) in rows.iter().enumerate() {
        let p = format!("{path}[{i}]");
        want_num(row, &p, "workers", errors);
        want_num(row, &p, "sessions_per_sec", errors);
        want_num(row, &p, "p50_ms", errors);
        want_num(row, &p, "p99_ms", errors);
        want_num(row, &p, "peak_in_flight", errors);
    }
}

/// Number of effusion classes; `precision` vectors and confusion
/// matrices in the `backends` section are sized by it.
pub const MEE_CLASSES: usize = 4;

/// The reference backend every report's A/B baseline must name.
pub const REFERENCE_BACKEND: &str = "mfcc-kmeans";

/// Validates one backend score object (baseline or candidate).
/// Candidates additionally carry delta columns vs the baseline.
fn check_backend_score(v: &Value, path: &str, candidate: bool, errors: &mut Vec<SchemaError>) {
    match want(v, path, "name", errors) {
        Some(Value::Str(_)) => {}
        Some(other) => errors.push(err(
            &format!("{path}.name"),
            format!("expected string, found {}", other.type_name()),
        )),
        None => {}
    }
    want_num(v, path, "version", errors);
    want_num(v, path, "accuracy", errors);
    want_num(v, path, "mean_confidence", errors);
    want_num(v, path, "dropped", errors);
    check_class_vector(v, path, "precision", errors);
    if candidate {
        check_class_vector(v, path, "precision_delta", errors);
        want_num(v, path, "accuracy_delta", errors);
    }
    if let Some(confusion) = want(v, path, "confusion", errors) {
        let p = format!("{path}.confusion");
        let Value::Arr(rows) = confusion else {
            errors.push(err(
                &p,
                format!("expected array, found {}", confusion.type_name()),
            ));
            return;
        };
        if rows.len() != MEE_CLASSES {
            errors.push(err(&p, format!("expected {MEE_CLASSES} rows")));
        }
        for (i, row) in rows.iter().enumerate() {
            match row {
                Value::Arr(cols) if cols.len() == MEE_CLASSES => {}
                _ => errors.push(err(
                    &format!("{p}[{i}]"),
                    format!("expected array of {MEE_CLASSES} counts"),
                )),
            }
        }
    }
}

/// A per-class metric vector: exactly one number (or null) per class.
fn check_class_vector(v: &Value, path: &str, key: &str, errors: &mut Vec<SchemaError>) {
    let Some(vec) = want(v, path, key, errors) else {
        return;
    };
    let p = format!("{path}.{key}");
    let Value::Arr(items) = vec else {
        errors.push(err(&p, format!("expected array, found {}", vec.type_name())));
        return;
    };
    if items.len() != MEE_CLASSES {
        errors.push(err(&p, format!("expected {MEE_CLASSES} per-class entries")));
    }
    for (i, item) in items.iter().enumerate() {
        if !matches!(item, Value::Num(_) | Value::Null) {
            errors.push(err(
                &format!("{p}[{i}]"),
                format!("expected number, found {}", item.type_name()),
            ));
        }
    }
}

/// Validates the A/B `backends` section: cohort shape, the reference
/// baseline score, and at least two candidate scores with delta columns.
fn check_backends(v: &Value, errors: &mut Vec<SchemaError>) {
    let p = "$.backends";
    want_num(v, p, "patients", errors);
    want_num(v, p, "sessions", errors);
    want_num(v, p, "seed", errors);
    if let Some(baseline) = want(v, p, "baseline", errors) {
        let bp = "$.backends.baseline";
        check_backend_score(baseline, bp, false, errors);
        match baseline.get("name") {
            Some(Value::Str(s)) if s == REFERENCE_BACKEND => {}
            Some(Value::Str(s)) => errors.push(err(
                &format!("{bp}.name"),
                format!("baseline must be \"{REFERENCE_BACKEND}\", found \"{s}\""),
            )),
            _ => {}
        }
    }
    let Some(candidates) = want(v, p, "candidates", errors) else {
        return;
    };
    let cp = "$.backends.candidates";
    let Value::Arr(items) = candidates else {
        errors.push(err(
            cp,
            format!("expected array, found {}", candidates.type_name()),
        ));
        return;
    };
    if items.len() < 2 {
        errors.push(err(cp, "expected at least 2 candidate backends"));
    }
    for (i, item) in items.iter().enumerate() {
        check_backend_score(item, &format!("{cp}[{i}]"), true, errors);
    }
}

/// Validates the `lint` section spliced in by `xtask lint --report`:
/// static-analysis coverage counts and the waiver inventory, so a report
/// generated without the lint pass (or with a stale splicer) fails CI.
fn check_lint(v: &Value, errors: &mut Vec<SchemaError>) {
    let p = "$.lint";
    want_num(v, p, "version", errors);
    want_num(v, p, "files_scanned", errors);
    want_num(v, p, "crates_scanned", errors);
    want_num(v, p, "hot_functions", errors);
    want_num(v, p, "findings", errors);
    want_num(v, p, "waivers", errors);
    want_num(v, p, "lock_edges", errors);
    let Some(rw) = want(v, p, "rule_waivers", errors) else {
        return;
    };
    let rp = "$.lint.rule_waivers";
    let Value::Obj(pairs) = rw else {
        errors.push(err(rp, format!("expected object, found {}", rw.type_name())));
        return;
    };
    for (rule, count) in pairs {
        if !crate::rules::WAIVABLE_RULES.contains(&rule.as_str()) {
            errors.push(err(
                &format!("{rp}.{rule}"),
                format!("`{rule}` is not a waivable rule"),
            ));
        }
        if !matches!(count, Value::Num(n) if *n >= 0.0) {
            errors.push(err(
                &format!("{rp}.{rule}"),
                format!("expected count >= 0, found {}", count.type_name()),
            ));
        }
    }
}

/// Validates a `BENCH_pr9.json` document against schema version 5.
///
/// Checks shape and enumerations only — never timing magnitudes, which
/// CI runners cannot reproduce. Returns every violation found, empty for
/// a conforming report.
pub fn validate(root: &Value) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    if !matches!(root, Value::Obj(_)) {
        errors.push(err("$", "report must be a JSON object"));
        return errors;
    }

    match want(root, "$", "schema_version", &mut errors) {
        Some(Value::Num(v)) if *v == 5.0 => {}
        Some(other) => errors.push(err(
            "$.schema_version",
            format!("expected 5, found {other:?}"),
        )),
        None => {}
    }
    match want(root, "$", "report", &mut errors) {
        Some(Value::Str(s)) if s == "BENCH_pr9" => {}
        Some(other) => errors.push(err(
            "$.report",
            format!("expected \"BENCH_pr9\", found {other:?}"),
        )),
        None => {}
    }
    match want(root, "$", "mode", &mut errors) {
        Some(Value::Str(s)) if s == "full" || s == "smoke" => {}
        Some(other) => errors.push(err(
            "$.mode",
            format!("expected \"full\" or \"smoke\", found {other:?}"),
        )),
        None => {}
    }
    match want(root, "$", "cores", &mut errors) {
        Some(Value::Num(v)) if *v >= 1.0 => {}
        Some(other) => errors.push(err("$.cores", format!("expected >= 1, found {other:?}"))),
        None => {}
    }
    want_bool(root, "$", "low_core_host", &mut errors);

    if let Some(kernels) = want(root, "$", "kernels", &mut errors) {
        for &name in REQUIRED_KERNELS {
            let path = format!("$.kernels.{name}");
            let Some(k) = kernels.get(name) else {
                errors.push(err(&path, "missing kernel section"));
                continue;
            };
            want_num(k, &path, "n", &mut errors);
            want_num(k, &path, "scalar_ns", &mut errors);
            want_num(k, &path, "vectorized_ns", &mut errors);
            want_num(k, &path, "speedup", &mut errors);
            match want(k, &path, "equivalence", &mut errors) {
                Some(Value::Str(s)) if s == "bit_identical" || s == "ulp_bounded" => {}
                Some(other) => errors.push(err(
                    &format!("{path}.equivalence"),
                    format!("expected \"bit_identical\" or \"ulp_bounded\", found {other:?}"),
                )),
                None => {}
            }
        }
    }

    if let Some(fft) = want(root, "$", "fft", &mut errors) {
        if let Value::Arr(rows) = fft {
            for (i, row) in rows.iter().enumerate() {
                let p = format!("$.fft[{i}]");
                want_num(row, &p, "size", &mut errors);
                want_num(row, &p, "one_shot_ns", &mut errors);
                want_num(row, &p, "planned_ns", &mut errors);
                want_num(row, &p, "speedup", &mut errors);
            }
        } else {
            errors.push(err("$.fft", "expected array"));
        }
    }

    if let Some(e2e) = want(root, "$", "end_to_end", &mut errors) {
        let p = "$.end_to_end";
        want_num(e2e, p, "recordings", &mut errors);
        want_num(e2e, p, "chirps_total", &mut errors);
        want_num(e2e, p, "front_end_ns", &mut errors);
        want_num(e2e, p, "chirps_per_sec", &mut errors);
        want_num(e2e, p, "screening_ns", &mut errors);
        want_num(e2e, p, "screenings_per_sec", &mut errors);
    }

    if let Some(synth) = want(root, "$", "synthesis", &mut errors) {
        let p = "$.synthesis";
        want_num(synth, p, "legacy_pre_pr_ns", &mut errors);
        want_num(synth, p, "spectral_warm_ns", &mut errors);
        want_num(synth, p, "speedup", &mut errors);
        want_num(synth, p, "equivalence_max_rel_error", &mut errors);
    }

    if let Some(qg) = want(root, "$", "quality_gate", &mut errors) {
        let p = "$.quality_gate";
        want_num(qg, p, "gated_ns", &mut errors);
        want_num(qg, p, "ungated_ns", &mut errors);
        want_num(qg, p, "overhead_pct", &mut errors);
        want_bool(qg, p, "bit_identical", &mut errors);
    }

    if let Some(backends) = want(root, "$", "backends", &mut errors) {
        check_backends(backends, &mut errors);
    }

    if let Some(engine) = want(root, "$", "engine", &mut errors) {
        check_engine(engine, &mut errors);
    }

    if let Some(lint) = want(root, "$", "lint", &mut errors) {
        check_lint(lint, &mut errors);
    }

    errors
}

/// Parses and validates a report file's text.
///
/// # Errors
///
/// Returns all violations (parse failure is reported as a single
/// violation at path `parse`).
pub fn check_report(text: &str) -> Result<(), Vec<SchemaError>> {
    let root = parse_json(text).map_err(|e| vec![e])?;
    let errors = validate(&root);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal conforming document (the shape `perf_report` writes).
    fn conforming() -> String {
        let kernels: String = REQUIRED_KERNELS
            .iter()
            .map(|k| {
                format!(
                    "\"{k}\": {{\"n\": 8, \"scalar_ns\": 2.0, \"vectorized_ns\": 1.0, \
                     \"speedup\": 2.0, \"equivalence\": \"bit_identical\"}}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let score = |name: &str, candidate: bool| {
            let deltas = if candidate {
                "\"precision_delta\": [0.0, 0.0, -0.1, 0.1], \"accuracy_delta\": -0.05, "
            } else {
                ""
            };
            format!(
                "{{\"name\": \"{name}\", \"version\": 1, \"accuracy\": 0.9, \
                 \"mean_confidence\": 0.8, \"dropped\": 0, \
                 \"precision\": [0.9, 0.8, 0.7, 0.6], {deltas}\
                 \"confusion\": [[4,0,0,0],[0,4,0,0],[0,0,4,0],[0,0,0,4]]}}"
            )
        };
        let backends = format!(
            "{{\"patients\": 8, \"sessions\": 64, \"seed\": 7, \"baseline\": {}, \
             \"candidates\": [{}, {}]}}",
            score("mfcc-kmeans", false),
            score("absorbance-logistic", true),
            score("absorbance-knn", true),
        );
        format!(
            r#"{{
  "schema_version": 5,
  "report": "BENCH_pr9",
  "mode": "smoke",
  "cores": 1,
  "low_core_host": true,
  "kernels": {{{kernels}}},
  "fft": [{{"size": 1024, "kind": "real", "one_shot_ns": 2.0, "planned_ns": 1.0, "speedup": 2.0}}],
  "end_to_end": {{
    "recordings": 8, "chirps_total": 1536, "front_end_ns": 10.0,
    "chirps_per_sec": 100.0, "screening_ns": 12.0, "screenings_per_sec": 50.0
  }},
  "synthesis": {{"legacy_pre_pr_ns": 2.0, "spectral_warm_ns": 1.0, "speedup": 2.0,
    "equivalence_max_rel_error": 3e-15}},
  "quality_gate": {{"gated_ns": 2.0, "ungated_ns": 1.9, "overhead_pct": 5.3,
    "bit_identical": true}},
  "backends": {backends},
  "engine": {{
    "sessions": 64, "shards": 16, "queue_capacity": 32, "chunk_len": 2400,
    "worker_sweep": [{{"workers": 1, "sessions_per_sec": 40.0, "p50_ms": 12.0,
      "p99_ms": 30.0, "peak_in_flight": 64}}],
    "best_sessions_per_sec": 40.0, "equivalent_to_sequential": true
  }},
  "lint": {{
    "version": 1, "files_scanned": 136, "crates_scanned": 11,
    "hot_functions": 42, "findings": 0, "waivers": 18, "lock_edges": 0,
    "rule_waivers": {{"panic": 9, "hot-path-alloc": 7, "wall-clock": 2}}
  }}
}}"#
        )
    }

    #[test]
    fn conforming_document_passes() {
        check_report(&conforming()).expect("conforming report validates");
    }

    #[test]
    fn parser_handles_null_and_exponents() {
        let v = parse_json(r#"{"a": null, "b": -1.5e-12, "c": [true, false]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Null));
        assert!(matches!(v.get("b"), Some(Value::Num(x)) if *x == -1.5e-12));
        assert_eq!(
            v.get("c"),
            Some(&Value::Arr(vec![Value::Bool(true), Value::Bool(false)]))
        );
    }

    #[test]
    fn missing_kernel_section_is_reported() {
        let doc = conforming().replace("\"mfcc\":", "\"mfcc_renamed\":");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.kernels.mfcc"),
            "{errors:?}"
        );
    }

    #[test]
    fn wrong_schema_version_is_reported() {
        // A version-4 report (with the batch and dataset-build sweeps the
        // single fan-out retired) no longer conforms.
        let doc = conforming().replace("\"schema_version\": 5", "\"schema_version\": 4");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.schema_version"),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_lint_section_is_reported() {
        // A report generated by the bench binaries alone, without the
        // `xtask lint --report` splice, must fail the schema gate.
        let doc = conforming().replace("\"lint\":", "\"lint_renamed\":");
        let errors = check_report(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.path == "$.lint"), "{errors:?}");
    }

    #[test]
    fn lint_rule_waivers_must_name_waivable_rules() {
        let doc = conforming().replace("\"wall-clock\": 2", "\"layering\": 2");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path == "$.lint.rule_waivers.layering"),
            "{errors:?}"
        );
        let doc = conforming().replace("\"wall-clock\": 2", "\"wall-clock\": \"two\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path == "$.lint.rule_waivers.wall-clock"),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_section_needs_the_waiver_inventory() {
        let doc = conforming().replace("\"rule_waivers\":", "\"per_rule\":");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.lint.rule_waivers"),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_backends_section_is_reported() {
        let doc = conforming().replace("\"backends\":", "\"backends_renamed\":");
        let errors = check_report(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.path == "$.backends"), "{errors:?}");
    }

    #[test]
    fn baseline_must_be_the_reference_backend() {
        let doc = conforming().replace("\"mfcc-kmeans\"", "\"absorbance-knn\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.backends.baseline.name"),
            "{errors:?}"
        );
    }

    #[test]
    fn fewer_than_two_candidates_is_rejected() {
        // Drop the second candidate (", {score-for-absorbance-knn}").
        let doc = conforming();
        let knn = doc.find("\"absorbance-knn\"").expect("knn candidate");
        let start = doc[..knn].rfind(", {").expect("candidate separator");
        let end = doc[knn..].find("}]").expect("candidates close") + knn + 1;
        let doc = format!("{}{}", &doc[..start], &doc[end..]);
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.backends.candidates"),
            "{errors:?}"
        );
    }

    #[test]
    fn candidates_need_precision_delta_columns() {
        let doc = conforming().replace("\"precision_delta\"", "\"precision_diff\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path.ends_with(".precision_delta") && e.path.contains("candidates")),
            "{errors:?}"
        );
    }

    #[test]
    fn per_class_vectors_must_cover_every_class() {
        let doc = conforming().replace("[0.9, 0.8, 0.7, 0.6]", "[0.9, 0.8, 0.7]");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path.ends_with(".precision")),
            "{errors:?}"
        );
    }

    #[test]
    fn confusion_matrix_must_be_square_in_classes() {
        let doc = conforming().replacen("[4,0,0,0],", "[4,0,0],", 1);
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path.contains(".confusion[")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_engine_section_is_reported() {
        let doc = conforming().replace("\"engine\":", "\"engine_renamed\":");
        let errors = check_report(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.path == "$.engine"), "{errors:?}");
    }

    #[test]
    fn engine_sweep_rows_need_tail_latency() {
        let doc = conforming().replace("\"p99_ms\"", "\"p99_percent\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path == "$.engine.worker_sweep[0].p99_ms"),
            "{errors:?}"
        );
    }

    #[test]
    fn empty_engine_sweep_is_rejected() {
        let doc = conforming().replace(
            "[{\"workers\": 1, \"sessions_per_sec\": 40.0, \"p50_ms\": 12.0,\n      \"p99_ms\": 30.0, \"peak_in_flight\": 64}]",
            "[]",
        );
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.engine.worker_sweep"),
            "{errors:?}"
        );
    }

    #[test]
    fn bad_equivalence_label_is_reported() {
        let doc = conforming().replacen("bit_identical\"}}", "close_enough\"}}", 1);
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path.ends_with(".equivalence")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_throughput_key_is_reported() {
        let doc = conforming().replace("\"chirps_per_sec\"", "\"chirps_per_min\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.path == "$.end_to_end.chirps_per_sec"),
            "{errors:?}"
        );
    }

    #[test]
    fn null_timing_is_tolerated_but_wrong_type_is_not() {
        // json_num renders non-finite as null; that's shape-conforming.
        let doc = conforming().replace("\"front_end_ns\": 10.0", "\"front_end_ns\": null");
        check_report(&doc).expect("null timings validate");
        let doc = conforming().replace("\"front_end_ns\": 10.0", "\"front_end_ns\": \"fast\"");
        let errors = check_report(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.path == "$.end_to_end.front_end_ns"),
            "{errors:?}"
        );
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let errors = check_report("{\"schema_version\": 1,,}").unwrap_err();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].path, "parse");
    }
}
