//! Minimal JSON document model, pretty printer and parser.
//!
//! The build environment has no registry access, so instead of `serde` the
//! report layer builds [`Json`] values by hand and renders them with the
//! same layout `serde_json::to_string_pretty` produced (2-space indent,
//! `"key": value`), keeping the CLI's `--json` output stable for existing
//! consumers. The parser exists for round-trip validation in tests; it
//! accepts exactly the standard JSON grammar (no comments, no trailing
//! commas).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document. Objects preserve insertion order: keys print in the
/// order their writer sets them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (covers every counter this crate emits).
    Int(i128),
    /// Non-integer number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object (panics on non-objects: construction-time
    /// misuse, not data-dependent).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Remove a member from an object, returning it if present. A no-op
    /// returning `None` on non-objects; used e.g. to strip timing-bearing
    /// subtrees ("stats") before comparing reports for bit-identity.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .position(|(k, _)| k == key)
                .map(|i| fields.remove(i).1),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation (`serde_json` pretty layout).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serialize on a single line with no whitespace — the framing the
    /// newline-delimited serve protocol needs (a pretty document would
    /// split one message across lines). Escaping matches [`Json::pretty`],
    /// so embedded newlines in strings stay escaped.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
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
                    v.write_compact(out);
                }
                out.push('}');
            }
            leaf => leaf.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    // `Display` renders integral floats without a decimal
                    // point (`3.0` → `"3"`), which would re-parse as
                    // `Json::Int` and break round-tripping; force a marker
                    // so the number stays a float on the wire.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the full input must be one value).
    pub fn parse(src: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
macro_rules! json_from_int {
    ($($t:ty),+) => {
        $(impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        })+
    };
}
json_from_int!(i32, i64, u32, u64, usize, u128);

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting accepted by [`Json::parse`]. The parser
/// recurses once per `[`/`{`, so unbounded nesting in attacker-shaped
/// input (a `psa serve` request body) would overflow the native stack and
/// kill the process; past this depth we return a parse error instead.
/// Matches the C front end's `MAX_NESTING` cap.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Four hex digits starting at byte offset `at` (does not advance).
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run one container parse a level deeper, enforcing [`MAX_NESTING`].
    fn nested(
        &mut self,
        f: fn(&mut Parser<'a>) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            match hi {
                                0xD800..=0xDBFF => {
                                    // High surrogate: combine with a
                                    // following `\uDC00`–`\uDFFF` escape; a
                                    // lone half decodes to U+FFFD.
                                    let lo = if self.bytes.get(self.pos + 1) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 2) == Some(&b'u')
                                    {
                                        self.hex4(self.pos + 3).ok()
                                    } else {
                                        None
                                    };
                                    match lo {
                                        Some(lo @ 0xDC00..=0xDFFF) => {
                                            let cp =
                                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                            s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                                            self.pos += 6;
                                        }
                                        _ => s.push('\u{FFFD}'),
                                    }
                                }
                                0xDC00..=0xDFFF => s.push('\u{FFFD}'),
                                cp => s.push(char::from_u32(cp).unwrap_or('\u{FFFD}')),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("bare control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_serde_layout() {
        let mut j = Json::obj();
        j.set("function", "main").set("count", 3u32);
        let mut stats = Json::obj();
        stats.set("level", "L1");
        j.set("stats", stats);
        j.set("items", vec![Json::Int(1), Json::Int(2)]);
        j.set("empty", Vec::<Json>::new());
        let text = j.pretty();
        assert!(text.contains("\"function\": \"main\""));
        assert!(text.contains("  \"stats\": {\n    \"level\": \"L1\"\n  }"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with('}'));
    }

    #[test]
    fn roundtrip() {
        let mut j = Json::obj();
        j.set("s", "a \"quoted\"\nline");
        j.set("n", -42i64);
        j.set("f", 1.5f64);
        j.set("b", true);
        j.set("nul", Json::Null);
        j.set("arr", vec![Json::Int(1), Json::Str("x".into())]);
        let parsed = Json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn integral_floats_roundtrip_as_floats() {
        // Regression: `format!("{f}")` renders `3.0` as `3`, which the
        // parser classified as an integer — a Float → Int type flip on
        // every serialize/parse cycle.
        for f in [3.0f64, -0.0, 0.0, 1e300, -7.0] {
            let j = Json::Float(f);
            let text = j.pretty();
            assert!(
                text.contains(['.', 'e', 'E']),
                "float {f} serialized without a float marker: {text}"
            );
            match Json::parse(&text).unwrap() {
                Json::Float(back) => assert_eq!(back, f, "value drift for {f}"),
                other => panic!("float {f} re-parsed as {other:?}"),
            }
        }
        // Non-integral values and non-finite → null are unchanged.
        assert_eq!(Json::Float(2.5).pretty(), "2.5");
        assert_eq!(Json::Float(f64::NAN).pretty(), "null");
        assert_eq!(Json::Float(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"a": [1, 2], "b": "x", "c": true, "d": 2.5}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[0].as_i64(), Some(1));
        assert_eq!(j.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("d").unwrap().as_f64(), Some(2.5));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // 10k-deep input must come back as a clean error; before the
        // MAX_NESTING cap this recursed once per bracket and blew the
        // stack, killing the resident daemon on a hostile serve request.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}null{}", open.repeat(10_000), close.repeat(10_000));
            let err = Json::parse(&deep).expect_err("deep nesting rejected");
            assert!(err.message.contains("nesting too deep"), "{err}");
        }
        // Depth just under the cap still parses.
        let ok = format!("{}null{}", "[".repeat(256), "]".repeat(256));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}null{}", "[".repeat(257), "]".repeat(257));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let j = Json::Str("héllo\tworld \u{1}".to_string());
        let text = j.pretty();
        assert!(text.contains("\\t"));
        assert!(text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn surrogate_pairs_decode() {
        // U+1F600 and U+1D11E spelled as UTF-16 escape pairs.
        assert_eq!(
            Json::parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(
            Json::parse(r#""a \uD834\uDD1E b""#).unwrap(),
            Json::Str("a \u{1D11E} b".to_string())
        );
        // Consecutive pairs must not consume each other's halves.
        assert_eq!(
            Json::parse(r#""\uD83D\uDE00\uD83D\uDE01""#).unwrap(),
            Json::Str("\u{1F600}\u{1F601}".to_string())
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_char() {
        // High half with no continuation, low half alone, high half
        // followed by a BMP escape: each bad half is one U+FFFD and the
        // rest of the string is preserved.
        assert_eq!(
            Json::parse(r#""\uD800""#).unwrap(),
            Json::Str("\u{FFFD}".to_string())
        );
        assert_eq!(
            Json::parse(r#""x\uDC00y""#).unwrap(),
            Json::Str("x\u{FFFD}y".to_string())
        );
        assert_eq!(
            Json::parse(r#""\uD800A""#).unwrap(),
            Json::Str("\u{FFFD}A".to_string())
        );
    }

    #[test]
    fn bare_control_characters_rejected() {
        // Raw control bytes inside a string are invalid JSON; their
        // escaped spellings are fine.
        assert!(Json::parse("\"a\u{1}b\"").is_err());
        assert!(Json::parse("\"a\tb\"").is_err());
        assert!(Json::parse("\"a\nb\"").is_err());
        assert_eq!(
            Json::parse(r#""a\tb""#).unwrap(),
            Json::Str("a\tb".to_string())
        );
    }
}
