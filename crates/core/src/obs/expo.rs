//! The one writer behind every exposition format this workspace emits.
//!
//! Every JSON string the workspace writes is escaped by [`escape_into`].
//! The JSON reports — the `--json` output of `explain`, `flow`, `mem`,
//! `profile` and `trace-tree`, and the `BENCH_<fig>.json` trajectory
//! files — lay out their objects and arrays with [`Json`], which owns the
//! comma and bracket bookkeeping. (The Chrome trace's records are
//! fixed-shape numeric templates; their one free-text field, the operator
//! name, goes through [`quote`].) Every Prometheus series
//! (`--metrics-out`: phase histograms, template cache, per-edge flow,
//! residency) is written by [`family`], which owns the `HELP`/`TYPE`
//! header lines and label quoting. Dependency-free; output is
//! deterministic given deterministic input.
//!
//! [`validate_json`] is the test-suite's structural checker for the
//! documents written here.

use std::fmt::{Display, Write as _};

/// Appends `s` to `out` as a JSON string literal, quotes included.
/// `"`, `\`, newline, tab and carriage return take their short escapes;
/// every other control character is written as `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (see [`escape_into`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A JSON document under construction. Values and keys are appended in
/// order; the writer inserts the separating commas, so callers never
/// track "first element" state. Containers are written through closures
/// ([`Json::obj`], [`Json::arr`]), so brackets always balance.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// Whether the next key or value needs a leading comma.
    comma: bool,
}

/// Builds one JSON object: `f` writes its fields.
pub fn object(f: impl FnOnce(&mut Json)) -> String {
    let mut j = Json::default();
    j.obj(f);
    j.out
}

impl Json {
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn nest(&mut self, open: char, close: char, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.sep();
        self.out.push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object value; `f` writes its fields.
    pub fn obj(&mut self, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.nest('{', '}', f)
    }

    /// An array value; `f` writes its elements.
    pub fn arr(&mut self, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.nest('[', ']', f)
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Json {
        self.sep();
        escape_into(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A value that is already JSON: a number, `true`/`false`/`null`, or
    /// a nested document serialized elsewhere. Its `Display` form is
    /// written verbatim (format floats with the precision the schema
    /// fixes, e.g. `format_args!("{x:.6}")`).
    pub fn raw(&mut self, v: impl Display) -> &mut Json {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A string value, escaped.
    pub fn str(&mut self, s: &str) -> &mut Json {
        self.sep();
        escape_into(&mut self.out, s);
        self
    }

    /// `"k":v` with `v` written by [`Json::raw`].
    pub fn field(&mut self, k: &str, v: impl Display) -> &mut Json {
        self.key(k).raw(v)
    }

    /// `"k":"s"` with `s` escaped.
    pub fn field_str(&mut self, k: &str, s: &str) -> &mut Json {
        self.key(k).str(s)
    }
}

/// A Prometheus metric type, as written on a family's `TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        })
    }
}

/// Appends one metric family in Prometheus text exposition format: the
/// `HELP` and `TYPE` lines, then one line per sample. A sample is
/// `(series, value)`, where `series` is what follows the family name on
/// the line — an optional suffix such as `_bucket` and a label set from
/// [`labels`], or `""` for an unlabelled gauge or counter.
pub fn family<S: AsRef<str>, V: Display>(
    out: &mut String,
    name: &str,
    help: &str,
    kind: Kind,
    samples: impl IntoIterator<Item = (S, V)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (series, v) in samples {
        let _ = writeln!(out, "{name}{} {v}", series.as_ref());
    }
}

/// A Prometheus label set, `{k="v",...}`, with `\`, `"` and newline in
/// the values escaped as the text format requires.
pub fn labels(pairs: &[(&str, &dyn Display)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.to_string().chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

// --- Minimal JSON validator (tests; no external parser available) --------

/// Checks that `s` is one well-formed JSON value. Returns the byte offset
/// and a description on failure. Not a full RFC 8259 validator (accepts
/// any non-control characters in strings) but strict about structure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object_value(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        other => Err(format!("unexpected {other:?} at byte {i}")),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len()
        && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    if *i == start {
        return Err(format!("empty number at byte {start}"));
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(|_| ())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {i}"));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("control char in string at byte {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn object_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}"));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        *i += 1;
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,null,\"x\\n\"]}").unwrap();
        validate_json("[]").unwrap();
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("{\"a\"}").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }

    #[test]
    fn escapes_use_short_forms_then_unicode() {
        assert_eq!(quote("a\"b\\c\nd\te\rf"), r#""a\"b\\c\nd\te\rf""#);
        assert_eq!(quote("\u{1}é"), "\"\\u0001é\"");
        validate_json(&quote("\u{0}\u{1f}\t")).unwrap();
    }

    #[test]
    fn writer_places_commas_and_brackets() {
        let doc = object(|j| {
            j.field("n", 1).field_str("s", "x").key("a").arr(|j| {
                j.raw(1).obj(|_| {}).arr(|j| {
                    j.str("y");
                });
            });
            j.key("o").obj(|j| {
                j.field("f", format_args!("{:.2}", 0.5));
            });
            j.field("null", "null");
        });
        assert_eq!(
            doc,
            r#"{"n":1,"s":"x","a":[1,{},["y"]],"o":{"f":0.50},"null":null}"#
        );
        validate_json(&doc).unwrap();
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn family_writes_header_then_samples() {
        let mut out = String::new();
        family(
            &mut out,
            "m_total",
            "Things.",
            Kind::Counter,
            [(labels(&[("a", &1), ("b", &"x\"y")]), 3)],
        );
        family(&mut out, "g", "A gauge.", Kind::Gauge, [("", 0.5)]);
        assert_eq!(
            out,
            "# HELP m_total Things.\n# TYPE m_total counter\nm_total{a=\"1\",b=\"x\\\"y\"} 3\n\
             # HELP g A gauge.\n# TYPE g gauge\ng 0.5\n"
        );
    }
}
