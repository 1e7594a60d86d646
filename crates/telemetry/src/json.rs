//! Minimal deterministic JSON value model (the workspace builds offline,
//! so serde is not available; exporters hand-roll their JSON through this,
//! and readers of those files parse it back with [`Json::parse`]).

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order, so rendering is
/// deterministic — a hard requirement for the telemetry determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one JSON document. A number with a `.` or an exponent
    /// parses to [`Json::F64`], a negative integer to [`Json::I64`] and
    /// any other integer to [`Json::U64`] — the forms [`Json::render`]
    /// writes — so `parse(&v.render()) == v` for every finite value that
    /// keeps `I64` for negatives.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.s.len() {
            return Err(p.error(Expected::End));
        }
        Ok(v)
    }

    /// The value of `key` if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any JSON number as an `f64`; `None` for every other value.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{v:?}` keeps a decimal point or exponent, so the
                    // value re-parses as a float; plain `{}` prints `1`.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Why [`Json::parse`] rejected its input: where it stopped and what it
/// expected there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    pub expected: Expected,
}

/// What [`Json::parse`] expected where it stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The end of the document: trailing input follows it.
    End,
    /// This punctuation.
    Literal(&'static str),
    /// A value; the input held something else.
    Value,
    /// A value; the input ended.
    MoreInput,
    /// A string's opening quote.
    String,
    /// A string's closing quote; the input ended.
    Quote,
    /// Four hex digits naming a char after `\u`.
    Unicode,
    /// An escape character after `\`.
    Escape,
    /// UTF-8 string content.
    Utf8(std::str::Utf8Error),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match self.expected {
            Expected::End => write!(f, "trailing input at byte {at}"),
            Expected::Literal(lit) => write!(f, "expected `{lit}` at byte {at}"),
            Expected::Value => write!(f, "bad value at byte {at}"),
            Expected::MoreInput => f.write_str("unexpected end of input"),
            Expected::String => write!(f, "expected a string at byte {at}"),
            Expected::Quote => f.write_str("unterminated string"),
            Expected::Unicode => write!(f, "bad \\u escape at byte {at}"),
            Expected::Escape => write!(f, "unsupported escape at byte {at}"),
            Expected::Utf8(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn error(&self, expected: Expected) -> JsonError {
        JsonError {
            at: self.at,
            expected,
        }
    }

    fn expect(&mut self, lit: &'static str) -> Result<(), JsonError> {
        self.space();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.error(Expected::Literal(lit)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.space();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.error(Expected::MoreInput)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        let t = std::str::from_utf8(&self.s[start..self.at]).unwrap_or_default();
        let v = if t.contains(['.', 'e', 'E']) {
            t.parse().ok().map(Json::F64)
        } else if t.starts_with('-') {
            t.parse().ok().map(Json::I64)
        } else {
            t.parse().ok().map(Json::U64)
        };
        v.ok_or(JsonError {
            at: start,
            expected: Expected::Value,
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat("\"") {
            return Err(self.error(Expected::String));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return Err(self.error(Expected::Quote)),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out)
                        .map_err(|e| self.error(Expected::Utf8(e.utf8_error())));
                }
                Some(b'\\') => {
                    let c = match self.s.get(self.at + 1) {
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(&c @ (b'"' | b'\\' | b'/')) => char::from(c),
                        Some(b'u') => self
                            .s
                            .get(self.at + 2..self.at + 6)
                            .and_then(|h| {
                                u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                            })
                            .and_then(char::from_u32)
                            .ok_or(self.error(Expected::Unicode))?,
                        _ => return Err(self.error(Expected::Escape)),
                    };
                    self.at += if self.s[self.at + 1] == b'u' { 6 } else { 2 };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), r#""\u0001""#);
    }

    #[test]
    fn renders_nested_structures_in_order() {
        let j = Json::obj(vec![
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, "x".into()])),
        ]);
        assert_eq!(j.render(), r#"{"b":1,"a":[null,"x"]}"#);
    }

    #[test]
    fn parse_inverts_render() {
        let v = Json::obj(vec![
            ("int", Json::U64(2)),
            ("float", Json::F64(2.0)),
            ("max", Json::U64(u64::MAX)),
            ("neg", Json::I64(-7)),
            ("tiny", Json::F64(1.5e-300)),
            ("huge", Json::F64(-3.25e300)),
            ("esc", "q\"b\\s/n\nr\rt\t\u{1}é".into()),
            (
                "nested",
                Json::obj(vec![
                    ("empty", Json::obj(vec![])),
                    (
                        "arr",
                        Json::Arr(vec![Json::Null, true.into(), Json::Arr(vec![])]),
                    ),
                ]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text), Ok(v.clone()));
        assert_eq!(v.get("int"), Some(&Json::U64(2)));
        assert_eq!(v.get("float"), Some(&Json::F64(2.0)));
        assert_eq!(v.get("max").and_then(Json::as_f64), Some(u64::MAX as f64));
        assert_eq!(v.get("esc").and_then(Json::as_f64), None);
        // Whitespace between tokens is accepted; trailing garbage is not.
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2.5 ] } "),
            Ok(Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::U64(1), Json::F64(2.5)])
            )]))
        );
        let err = |at, expected| Err(JsonError { at, expected });
        for (bad, expected, text) in [
            (
                "{\"a\":1} x",
                err(8, Expected::End),
                "trailing input at byte 8",
            ),
            ("{\"a\":}", err(5, Expected::Value), "bad value at byte 5"),
            (
                "[1,",
                err(3, Expected::MoreInput),
                "unexpected end of input",
            ),
            (
                "[1 2]",
                err(3, Expected::Literal(",")),
                "expected `,` at byte 3",
            ),
            (
                "{1:2}",
                err(1, Expected::String),
                "expected a string at byte 1",
            ),
            ("\"open", err(5, Expected::Quote), "unterminated string"),
            ("1.2.3", err(0, Expected::Value), "bad value at byte 0"),
            (
                "\"\\x\"",
                err(1, Expected::Escape),
                "unsupported escape at byte 1",
            ),
            (
                "\"\\u00zz\"",
                err(1, Expected::Unicode),
                "bad \\u escape at byte 1",
            ),
        ] {
            let got = Json::parse(bad);
            assert_eq!(got, expected, "{bad}");
            assert_eq!(got.unwrap_err().to_string(), text, "{bad}");
        }
    }
}
