//! A minimal, dependency-free JSON value: parser and writer.
//!
//! The suite renders its reports as JSON already (`bfl_core::report`);
//! what the *server* additionally needs is the other direction — parsing
//! request lines — plus a value type the protocol layer can inspect.
//! [`Json`] is that type, with two properties the protocol tests rely
//! on:
//!
//! * **round-trip fidelity** — objects preserve key order and numbers
//!   keep their original text, so `parse → to_string` reproduces any
//!   document this suite writes byte-identically;
//! * **strictness** — trailing garbage, unterminated strings, bad
//!   escapes and malformed numbers are [`JsonError`]s with a byte
//!   offset, never panics.
//!
//! ```
//! use bfl_server::json::Json;
//! let v = Json::parse(r#"{"op":"load","workers":4}"#)?;
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("load"));
//! assert_eq!(v.to_string(), r#"{"op":"load","workers":4}"#);
//! # Ok::<(), bfl_server::json::JsonError>(())
//! ```

use std::fmt;

/// A parsed JSON value. Numbers keep their source text (see the module
/// docs); objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its original (validated) text.
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in key order.
    Object(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A number value from anything `Display`-able as a JSON number
    /// (callers pass Rust integer/float formatting, which is valid
    /// JSON except for non-finite floats — map those to `null` first).
    pub fn number(n: impl fmt::Display) -> Json {
        Json::Number(n.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset, on any syntax violation.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the string out of object field `key` (first occurrence),
    /// leaving an empty string behind; `None`, with `self` untouched, if
    /// the field is absent or not a string.
    pub(crate) fn take_str(&mut self, key: &str) -> Option<String> {
        match self {
            Json::Object(fields) => match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, Json::Str(s))) => Some(std::mem::take(s)),
                _ => None,
            },
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The Boolean payload, if this is a Boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Compact rendering with the same escaping rules as
    /// [`bfl_core::report::json_str`] — the property behind byte-exact
    /// round trips of this suite's documents.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => f.write_str(n),
            Json::Str(s) => f.write_str(&bfl_core::report::json_str(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", bfl_core::report::json_str(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Recursion limit for nested arrays/objects: deep enough for any
/// report this suite emits, shallow enough that a hostile request line
/// cannot blow the worker's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one piece. Those three are
            // ASCII, so the run ends on a character boundary of `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by `\u` and
        // a low surrogate.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.eat(b'u', "expected low surrogate after high surrogate")?;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a non-zero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        Ok(Json::Number(text.to_string()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number("42".into()));
        assert_eq!(
            Json::parse("-1.5e-3").unwrap(),
            Json::Number("-1.5e-3".into())
        );
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn preserves_number_text_and_key_order() {
        let doc = r#"{"b":0.020000000000000004,"a":1e10,"c":[1,2,3]}"#;
        assert_eq!(Json::parse(doc).unwrap().to_string(), doc);
    }

    #[test]
    fn unescapes_and_reescapes() {
        let doc = r#"{"s":"a\"b\\c\nd\te"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te"));
        assert_eq!(v.to_string(), doc);
        // Control characters round-trip through the \uXXXX form.
        let ctl = "\"\\u0001\"";
        let v = Json::parse(ctl).unwrap();
        assert_eq!(v.as_str(), Some("\u{1}"));
        assert_eq!(v.to_string(), ctl);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Non-ASCII re-renders raw (same policy as report::json_str).
        assert_eq!(v.to_string(), "\"😀\"");
    }

    #[test]
    fn plain_runs_next_to_every_escape() {
        let run = "plain text, ".repeat(400);
        for (escape, decoded) in [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\u00e9", "é"),
            ("\\ud83d\\ude00", "😀"),
        ] {
            let doc = format!("\"{escape}{run}{escape}{escape}{run}{escape}\"");
            let want = format!("{decoded}{run}{decoded}{decoded}{run}{decoded}");
            assert_eq!(
                Json::parse(&doc).unwrap().as_str(),
                Some(want.as_str()),
                "{escape}"
            );
        }
    }

    #[test]
    fn multibyte_characters_at_both_ends_of_a_run() {
        for edge in ["é", "日本", "😀"] {
            let run = format!("{edge}{}{edge}", "y".repeat(3000));
            let doc = format!("\"{run}\\n{run}\"");
            let v = Json::parse(&doc).unwrap();
            assert_eq!(v.as_str(), Some(format!("{run}\n{run}").as_str()));
            assert_eq!(v.to_string(), doc);
        }
    }

    #[test]
    fn errors_after_long_runs_keep_their_offsets() {
        let run = "x".repeat(4096);
        for (doc, message, offset) in [
            (
                format!("\"{run}\u{1}tail\""),
                "raw control character in string",
                4098,
            ),
            (
                format!("\"é{run}\u{1f}\""),
                "raw control character in string",
                4100,
            ),
            (format!("\"{run}"), "unterminated string", 4097),
            (format!("\"{run}\\"), "unterminated escape", 4098),
            (
                format!("\"{run}\\q{run}\""),
                "invalid escape character",
                4099,
            ),
        ] {
            let err = Json::parse(&doc).unwrap_err();
            assert_eq!((err.message.as_str(), err.offset), (message, offset));
        }
    }

    #[test]
    fn scaled_load_line_round_trips_byte_identically() {
        use bfl_fault_tree::{corpus, galileo};
        let model = corpus::scaled_model(5000);
        let text = galileo::to_galileo(&model.tree, Some(&model.probabilities));
        let line = format!(
            "{{\"id\":1,\"op\":\"load\",\"model\":{}}}",
            bfl_core::report::json_str(&text)
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("model").and_then(Json::as_str), Some(text.as_str()));
        assert_eq!(doc.to_string(), line);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "-",
            "nulltrailing",
            "{\"a\":1} extra",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = format!("{}1{}", "[".repeat(10), "]".repeat(10));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"f":1.5,"b":true,"a":["x"],"s":"y"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("s").unwrap().as_str(), Some("y"));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
