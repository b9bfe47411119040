//! The workspace's one JSON module: one escaping writer, one reader.
//!
//! There is no serde here (offline vendored deps only), and every
//! document this repository emits — dump lines, `BENCH_*.json`, sweep
//! checkpoints, `kar-bench inspect --view json` — is flat enough to
//! write with [`Obj`] and read back with [`Json::parse`]. Numbers stay
//! the raw text they were written with, so a `u64` seed such as
//! 11981841711409792483 survives a round trip that an `f64` would
//! corrupt.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a valid JSON number (non-finite values become 0)
/// — the dump-line convention, where a reader wants a number always.
pub fn json_f64(v: f64) -> String {
    f64_or(v, "0")
}

/// Formats an `f64` for a document: non-finite values become `null`,
/// which is what "no such measurement" means in a committed BENCH file.
pub fn f64_or_null(v: f64) -> String {
    f64_or(v, "null")
}

fn f64_or(v: f64, non_finite: &str) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        non_finite.to_string()
    }
}

/// Writes one JSON object, member by member, in call order and without
/// whitespace: `Obj::new().str("k", "v").num("n", 3).finish()` is
/// `{"k":"v","n":3}`.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Appends `"key":<value>` with `value` already valid JSON.
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        let sep = if self.0.is_empty() { '{' } else { ',' };
        let _ = write!(self.0, "{sep}\"{}\":{value}", escape(key));
        self
    }

    /// Appends a string member (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{}\"", escape(value)))
    }

    /// Appends an integer (or any `Display`-as-JSON scalar) member.
    pub fn num(self, key: &str, value: impl Display) -> Self {
        self.raw(key, value)
    }

    /// Appends a float member, `null` when non-finite.
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, f64_or_null(value))
    }

    /// Appends `"key":<value>` when there is a value, nothing otherwise.
    pub fn opt(self, key: &str, value: Option<impl Display>) -> Self {
        match value {
            Some(value) => self.raw(key, value),
            None => self,
        }
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as the raw text it was written with.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document; malformed, truncated or trailing input
    /// is an `Err` naming the byte offset, never a panic.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing content"));
        }
        Ok(value)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `json.path(&["a", "b"])` is `json["a"]["b"]`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |cur, k| cur.get(k))
    }

    /// The number parsed as `T` (`u64`, `i64`, `usize`, `f64`, …).
    pub fn as_num<T: FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()
    }

    /// The number as `f64`, with `null` read as NaN — the inverse of
    /// [`f64_or_null`].
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match self {
            Json::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Renders the value back to text in the writer's own form (no
/// whitespace, [`escape`]d strings, numbers verbatim).
impl Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(raw) => f.write_str(raw),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    write!(f, "{}\"{}\":{v}", if i > 0 { "," } else { "" }, escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, word: &str) -> Result<(), String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .sequence(b'}', depth, |p, depth| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(":")?;
                    Ok((key, p.value(depth)?))
                })
                .map(Json::Obj),
            Some(b'[') => self
                .sequence(b']', depth, |p, depth| p.value(depth))
                .map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            _ => self.number(),
        }
    }

    /// `open item (',' item)* close` or `open close`, the opener at `pos`.
    fn sequence<T>(
        &mut self,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self, depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            self.pos = start;
            return Err(self.err("expected a value"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the slice ends on a char boundary.
            let rest = &self.text[self.pos..];
            let stop = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' | b'\\' | b'/' => esc as char,
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    code
                }
                _ => return Err(self.err("unknown escape")),
            });
        }
    }
}
