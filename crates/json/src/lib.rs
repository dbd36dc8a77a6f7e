//! # mcpb-json
//!
//! The workspace's one JSON codec. Every artifact the benchmark writes and
//! reads back goes through it: sweep journals, `MCPB_TRACE` JSONL, serve
//! requests and responses, and the result and baseline JSON of the serde
//! shims.
//!
//! - [`Value`] is the value tree. Object keys keep insertion order (a `Vec`
//!   of pairs), so output is deterministic.
//! - [`parse`] and [`parse_prefix`] are a recursive-descent parser. Nesting
//!   is capped at [`MAX_DEPTH`], so hostile input becomes a typed
//!   [`Error::TooDeep`] instead of a stack overflow.
//! - [`write_str`], [`write_u64`] and [`write_f64`] are the scalar writers
//!   that the fixed-layout wire formats are built from; [`to_string`] and
//!   [`to_string_pretty`] render whole trees with them.
//!
//! Integers are exact. A non-negative integer literal above 2^53 parses to
//! [`Value::U64`]; every other number is a [`Value::Number`]. Seeds,
//! counters and request ids therefore never round through `f64`.
//!
//! ```
//! let v = mcpb_json::parse(r#"{"id":9007199254740993,"xs":[1.5,null]}"#)?;
//! assert_eq!(v.get("id").and_then(|x| x.as_u64()), Some(9_007_199_254_740_993));
//! assert_eq!(mcpb_json::to_string(&v), r#"{"id":9007199254740993,"xs":[1.5,null]}"#);
//! # Ok::<(), mcpb_json::Error>(())
//! ```

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts: `[[1]]` has depth 2. The
/// deepest JSON this workspace writes (the SARIF export) has depth 9.
pub const MAX_DEPTH: usize = 32;

/// 2^53: every integer up to here is exact as an `f64`.
const MAX_EXACT: u64 = 1 << 53;

/// In-memory JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number. Integers up to 2^53 are exact.
    Number(f64),
    /// A non-negative integer above 2^53, kept exact. Smaller integers are
    /// always [`Value::Number`], so each number has one form and derived
    /// equality compares values.
    U64(u64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl From<u64> for Value {
    /// The canonical form of `n`: [`Value::Number`] up to 2^53,
    /// [`Value::U64`] above.
    fn from(n: u64) -> Value {
        if n <= MAX_EXACT {
            Value::Number(n as f64)
        } else {
            Value::U64(n)
        }
    }
}

impl Value {
    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number (a [`Value::U64`] rounds to the
    /// nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as `u64` if it is a non-negative integer held exactly: a
    /// [`Value::U64`], or a [`Value::Number`] no larger than 2^53. A larger
    /// or fractional `f64` is a rounded guess, not an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::Number(n) if (0.0..=MAX_EXACT as f64).contains(n) && n.trunc() == *n => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup by key (the first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Nesting exceeds [`MAX_DEPTH`].
    TooDeep {
        /// First depth past the limit.
        depth: usize,
    },
    /// Any other malformed input, described with its byte offset where one
    /// applies.
    Syntax(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TooDeep { depth } => {
                write!(f, "nesting depth {depth} exceeds limit {MAX_DEPTH}")
            }
            Error::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

fn syntax(msg: impl Into<String>) -> Error {
    Error::Syntax(msg.into())
}

// ---- writing -------------------------------------------------------------

/// Appends `s` as a JSON string literal. `"`, `\`, newline, carriage return
/// and tab get their short escapes; every other control character is
/// written `\u00XX` (so U+0008 is `\u0008`, not `\b`).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole. Escaped bytes are ASCII, so every run
    // boundary is a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` as exact decimal digits.
pub fn write_u64(out: &mut String, n: u64) {
    let _ = write!(out, "{n}");
}

/// Appends `x` in Rust's shortest round-trip form (`2000`, `0.25`,
/// `-0`), or `null` when it is not finite, as `serde_json` does.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Renders `v` as compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Renders `v` as pretty JSON with a two-space indent.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_f64(out, *n),
        Value::U64(n) => write_u64(out, *n),
        Value::String(s) => write_str(out, s),
        Value::Array(items) => write_seq(out, indent, depth, ['[', ']'], items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1)
        }),
        Value::Object(pairs) => write_seq(out, indent, depth, ['{', '}'], pairs.len(), |out, i| {
            let (k, val) = &pairs[i];
            write_str(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, val, indent, depth + 1)
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    [open, close]: [char; 2],
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let newline = |out: &mut String, level: usize| {
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * level {
                out.push(' ');
            }
        }
    };
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        write_item(out, i);
    }
    newline(out, depth);
    out.push(close);
}

// ---- parsing -------------------------------------------------------------

/// Parses one JSON document. Whitespace may surround the value; anything
/// else after it is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(syntax(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parses one JSON value at the start of `text` (after optional
/// whitespace) and returns it with the unparsed rest. This is how
/// fixed-layout lines decode their fields in order.
pub fn parse_prefix(text: &str) -> Result<(Value, &str), Error> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    Ok((v, &text[p.pos..]))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!(
                "expected `{}` at byte {}",
                char::from(b),
                self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(syntax(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Parses a value after optional leading whitespace.
    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(syntax(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.pos
            ))),
        }
    }

    /// Runs an array or object parse one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::TooDeep { depth: self.depth });
        }
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        // A plain digit run keeps its exact value (see `Value::U64`).
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::from(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| syntax(format!("bad number `{text}`: {e}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote or backslash in one go: both are
            // ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.parse_unicode_escape();
            }
            other => return Err(syntax(format!("bad escape {other:?}"))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the hex digits of a `\u` escape, joining a surrogate pair
    /// into one char. A lone or mismatched surrogate half is an error.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.parse_hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| syntax("invalid \\u escape"));
        }
        // Surrogate pair: the high half must be followed by a `\u` low half.
        self.eat(b'\\')?;
        self.eat(b'u')?;
        let lo = self.parse_hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(syntax(format!(
                "high surrogate \\u{hi:04x} followed by \\u{lo:04x}, not a low surrogate"
            )));
        }
        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(code).ok_or_else(|| syntax("invalid surrogate pair"))
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| syntax("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| syntax("bad \\u escape"))?;
            code = code * 16 + d;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(syntax(format!(
                        "expected `,` or `]`, found {:?} at byte {}",
                        other.map(char::from),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(syntax(format!(
                        "expected `,` or `}}`, found {:?} at byte {}",
                        other.map(char::from),
                        self.pos
                    )))
                }
            }
        }
    }
}
