//! The workspace's one TOML-subset parser.
//!
//! `faults.toml` ([`crate::faults::FaultSpec::from_toml`]), `claims.toml`
//! (`bench::claims`) and `simlint.toml` share a dialect small enough to
//! parse by hand — the hermetic build carries no external crates:
//!
//! ```toml
//! # comment
//! top = 1                      # top-level `key = value`
//! [table]                      # table header
//! name = "a # inside a string stays"
//! rate = 0.5
//! on = true
//! list = ["x", "y",]           # single-line array, trailing comma ok
//! [[entry]]                    # array-of-tables header
//! ```
//!
//! [`items`] yields one [`Item`] per meaningful line, lazily and in file
//! order, so a caller that interprets as it goes reports whichever error
//! — syntactic or semantic — comes first, with its 1-based line number.

/// A parsed right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"text"` (no escapes; a `"` ends the string).
    Str(String),
    /// A number, kept as written so integers beyond 2^53 survive.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, ...]` on one line.
    Array(Vec<Value>),
}

impl Value {
    /// The string, or a reason naming what was found instead.
    pub fn str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other}")),
        }
    }

    /// The number as a float.
    pub fn f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|_| format!("bad number: {raw}")),
            other => Err(format!("expected a number, got {other}")),
        }
    }

    /// The number as an unsigned integer.
    pub fn u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|_| format!("bad integer: {raw}")),
            other => Err(format!("expected an integer, got {other}")),
        }
    }

    /// The array's elements, each converted by `item`.
    pub fn list<'a, T>(
        &'a self,
        item: impl Fn(&'a Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        match self {
            Value::Array(vs) => vs.iter().map(item).collect(),
            other => Err(format!("expected a [..] list, got {other}")),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Num(raw) => write!(f, "{raw}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(_) => write!(f, "a list"),
        }
    }
}

/// What one meaningful line says.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind<'a> {
    /// `[name]`.
    Table(&'a str),
    /// `[[name]]`.
    ArrayTable(&'a str),
    /// `key = value`.
    Pair(&'a str, Value),
}

/// One meaningful line with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct Item<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The line's content.
    pub kind: Kind<'a>,
}

/// A line that is not in the dialect, or that a caller refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl TomlError {
    /// An error at `line` — for callers rejecting a well-formed line
    /// (unknown key, wrong value type) in the parser's own format.
    pub fn at(line: usize, reason: impl Into<String>) -> TomlError {
        TomlError {
            line,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TomlError {}

/// Parses `text` line by line; blank and comment-only lines are skipped.
pub fn items(text: &str) -> impl Iterator<Item = Result<Item<'_>, TomlError>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            return None;
        }
        Some(
            parse_line(line)
                .map(|kind| Item { line: i + 1, kind })
                .map_err(|reason| TomlError::at(i + 1, reason)),
        )
    })
}

/// Cuts a `#` comment, ignoring `#` inside double quotes.
fn strip_comment(raw: &str) -> &str {
    let mut in_str = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &raw[..i],
            _ => {}
        }
    }
    raw
}

fn parse_line(line: &str) -> Result<Kind<'_>, String> {
    if let Some(rest) = line.strip_prefix('[') {
        let name = rest.strip_suffix(']').ok_or("unterminated table header")?;
        return Ok(
            match name.strip_prefix('[').and_then(|n| n.strip_suffix(']')) {
                Some(entry) => Kind::ArrayTable(entry.trim()),
                None => Kind::Table(name.trim()),
            },
        );
    }
    let (key, value) = line.split_once('=').ok_or("expected `key = value`")?;
    Ok(Kind::Pair(key.trim(), parse_value(value.trim())?))
}

fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(rest) = v.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(s) if !s.contains('"') => Ok(Value::Str(s.to_string())),
            _ => Err(format!("malformed string: {v}")),
        };
    }
    if let Some(rest) = v.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| format!("expected a single-line [..] list: {v}"))?;
        // Split on commas outside strings; an empty piece is a trailing
        // comma (or an empty list).
        let mut items = Vec::new();
        let (mut start, mut in_str) = (0, false);
        for (i, c) in inner.char_indices().chain([(inner.len(), ',')]) {
            match c {
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    let piece = inner[start..i].trim();
                    if !piece.is_empty() {
                        items.push(parse_value(piece)?);
                    }
                    start = i + 1;
                }
                _ => {}
            }
        }
        if in_str {
            return Err(format!("malformed string: {v}"));
        }
        return Ok(Value::Array(items));
    }
    match v {
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ if v.parse::<f64>().is_ok() => Ok(Value::Num(v.to_string())),
        _ => Err(format!("bad value: {v}")),
    }
}
