//! A minimal JSON parser for validating metric exports.
//!
//! The offline workspace has no `serde_json`; the CLI tests and the
//! bench harness still need to prove that `--metrics=json` output and
//! `BENCH_sweep.json` are well-formed and carry the expected keys.
//! This is a straightforward recursive-descent parser over the JSON
//! grammar — strict enough to reject malformed documents, small enough
//! to audit in one sitting. It is a *reader* only; rendering lives
//! with the data (the registry, the bench `JsonObject`).
//!
//! The serve daemon feeds it bytes from untrusted TCP clients, so
//! nesting is capped at [`MAX_DEPTH`]: each level costs a stack frame,
//! and an unbounded `[[[[…` line would overflow the parsing thread's
//! stack — an abort of the whole process, not a catchable panic.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`parse`] accepts. Every document
/// the workspace reads nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// Arrays and objects nested deeper than [`MAX_DEPTH`]; `offset` is
    /// the byte that would have opened one level too many.
    TooDeep {
        /// Byte offset of the refused `[` or `{`.
        offset: usize,
    },
    /// Any other syntax error, described with its byte offset.
    Syntax(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {offset}")
            }
            Self::Syntax(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Callers that report errors as plain messages keep using `?`.
impl From<ParseError> for String {
    fn from(error: ParseError) -> Self {
        error.to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys are sorted for stable iteration.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member access shorthand: `value.get("counters")` on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`ParseError::TooDeep`] past [`MAX_DEPTH`] levels of nesting, and
/// otherwise [`ParseError::Syntax`] describing the first syntax error
/// with its byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        input,
        pos: 0,
        depth: 0,
        too_deep: None,
    };
    parser.skip_whitespace();
    let value = parser.value().map_err(|message| match parser.too_deep {
        Some(offset) => ParseError::TooDeep { offset },
        None => ParseError::Syntax(message),
    })?;
    parser.skip_whitespace();
    if parser.pos != input.len() {
        return Err(ParseError::Syntax(format!(
            "trailing garbage at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Where nesting first exceeded [`MAX_DEPTH`], if it did.
    too_deep: Option<usize>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an object or array one nesting level down, refusing to
    /// open a level past [`MAX_DEPTH`].
    fn nested(&mut self) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            // `parse` reports this as `ParseError::TooDeep`.
            self.too_deep = Some(self.pos);
            return Err(String::new());
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            map.insert(key, self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole. Both
            // are ASCII, so the run ends on a char boundary of the input.
            let run = self.input.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            // A backslash: decode one escape.
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .input
                        .as_bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                        16,
                    )
                    .map_err(|_| "bad \\u escape")?;
                    // Surrogates are rejected rather than paired:
                    // metric names never need astral characters.
                    out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Value::Number(-2500.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Value::String("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": false}], "c": {"d": null}}"#;
        let value = parse(doc).unwrap();
        assert_eq!(
            value.get("a").and_then(|a| match a {
                Value::Array(items) => items.first().and_then(Value::as_f64),
                _ => None,
            }),
            Some(1.0)
        );
        assert_eq!(value.get("c").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::String("Aé".into())
        );
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn string_scan_matches_a_per_char_reference() {
        // One char at a time, as the scanner did before it copied runs.
        fn reference(body: &str) -> String {
            let mut out = String::new();
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next().expect("escape in test body") {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                        out.push(char::from_u32(code).expect("scalar escape"));
                    }
                    other => out.push(other),
                }
            }
            out
        }
        let mut bodies: Vec<String> = (0u8..128)
            .filter(|&b| b != b'"' && b != b'\\')
            .map(|b| format!("a{0}b{0}", char::from(b)))
            .collect();
        bodies.extend(
            [
                "é",
                "漢字",
                "🦀x🦀",
                "aé漢🦀z",
                r#"\"é\\漢\n🦀\/\u00e9x\tb\rf\b\f"#,
                r"\\\\",
                r"ab\u0041\u00e9cd",
                r#"é\""#,
                r"漢\u5b57\u0041",
                "",
            ]
            .map(String::from),
        );
        bodies.push(format!("{}é{}", "x".repeat(1 << 18), r"\n"));
        for body in &bodies {
            assert_eq!(
                parse(&format!("\"{body}\"")),
                Ok(Value::String(reference(body))),
                "{body:.40}"
            );
        }
        assert!(parse("\"abc").is_err(), "unterminated run");
        assert!(parse("\"ab\\").is_err(), "unterminated escape");
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels are allowed");
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());

        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&over), Err(ParseError::TooDeep { offset: MAX_DEPTH }));
        // Far past the cap, unterminated: still a typed error, and the
        // stack never grows past the cap.
        let hostile = format!("{{\"a\":{}", "[".repeat(100_000));
        assert_eq!(
            parse(&hostile),
            Err(ParseError::TooDeep {
                offset: 5 + MAX_DEPTH - 1
            })
        );
        let message: String = parse(&hostile).unwrap_err().into();
        assert!(
            message.contains("nesting deeper than 128 levels"),
            "{message}"
        );
        // Ordinary syntax errors stay syntax errors.
        assert!(matches!(parse("[1,"), Err(ParseError::Syntax(_))));
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let value = parse(" \n\t{ \"k\" :\r [ ] } ").unwrap();
        assert_eq!(value.get("k"), Some(&Value::Array(vec![])));
    }
}
