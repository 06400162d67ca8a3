//! The workspace's one JSON reader and its two writers.
//!
//! The offline build carries no `serde`, so every JSON file the
//! workspace writes is rendered by hand — Chrome traces by
//! [`crate::TraceSink`], `BENCH_figures.json` by `cypress-bench` — with
//! `json_num` / [`json_str`], and read back through
//! [`JsonParser::parse`]: a recursive-descent parser over the whole
//! grammar whose errors carry the byte offset they were raised at.

use std::fmt;

/// Render an `f64` as a JSON number that parses back bit-for-bit:
/// integral values print as integers, everything else in Rust's
/// shortest round-trip form. Non-finite values (never produced by the
/// simulator) clamp to 0.
#[must_use]
pub(crate) fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

/// Escape a string for a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object's fields in file order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The field `key` of an object (its first occurrence).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items of an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The contents of a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Why and where [`JsonParser::parse`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// The first syntax problem.
    pub message: String,
    /// Byte offset the parser had reached when it gave up.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.message
    }
}

/// Deepest `[` / `{` nesting [`JsonParser::parse`] accepts. The files
/// the workspace writes nest at most four deep; the bound keeps a
/// hostile file from recursing the parser off the stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser with positions in error messages.
#[derive(Debug)]
pub struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    /// Parse `text` as one JSON value.
    ///
    /// # Errors
    ///
    /// Returns the first syntax problem and the offset it was found at;
    /// nesting deeper than 128 arrays and objects is one.
    pub fn parse(text: &'a str) -> Result<JsonValue, JsonError> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let parsed = p.value().and_then(|v| {
            p.skip_ws();
            if p.pos == p.bytes.len() {
                Ok(v)
            } else {
                Err(format!("trailing data at byte {}", p.pos))
            }
        });
        parsed.map_err(|message| JsonError {
            message,
            offset: p.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found `{}`",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            match code {
                                // High surrogate: JSON encodes astral-plane
                                // characters as a `\uXXXX\uXXXX` pair; combine
                                // with the low half that must follow.
                                0xD800..=0xDBFF
                                    if self.bytes.get(self.pos) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 1) == Some(&b'u') =>
                                {
                                    let rewind = self.pos;
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..=0xDFFF).contains(&lo) {
                                        let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        out.push(
                                            char::from_u32(c)
                                                .expect("combined surrogate pair is a scalar"),
                                        );
                                    } else {
                                        // Not a low half: the lone high
                                        // surrogate is U+FFFD and the second
                                        // escape stands on its own.
                                        out.push('\u{FFFD}');
                                        self.pos = rewind;
                                    }
                                }
                                // Lone or trailing surrogate halves are not
                                // scalar values; replace like `String::from_utf8_lossy`.
                                0xD800..=0xDFFF => out.push('\u{FFFD}'),
                                _ => out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate u16 code points are scalars"),
                                ),
                            }
                        }
                        other => {
                            return Err(format!(
                                "bad escape `\\{}` at byte {}",
                                char::from(other),
                                self.pos - 1
                            ))
                        }
                    }
                }
                _ => {
                    // Re-decode from the byte position: names can carry
                    // multi-byte UTF-8.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|e| format!("bad UTF-8 at byte {start}: {e}"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| "unterminated string".to_string())?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(digits).map_err(|_| "bad \\u escape".to_string())?;
        let code = u32::from_str_radix(s, 16).map_err(|e| format!("bad \\u escape `{s}`: {e}"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number `{s}` at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    /// A file nested past the cap is a typed error at the first bracket
    /// beyond it, through the parser and through the trace reader built
    /// on it — not a stack overflow that aborts the process.
    #[test]
    fn deep_nesting_is_a_typed_error() {
        let arrays = "[".repeat(100_000);
        let err = JsonParser::parse(&arrays).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let objects = "{\"a\":".repeat(100_000);
        let err = JsonParser::parse(&objects).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH, "{err}");
        let err = TraceSink::parse_chrome_json(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");

        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonParser::parse(&at_cap).is_ok());
    }
}
