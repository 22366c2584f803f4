//! A minimal JSON value type with a parser and a deterministic writer.
//!
//! The daemon speaks newline-delimited JSON and persists its verdict
//! artifacts as JSON files; nothing else in the workspace needs a JSON
//! *reader*, and the tier-1 gate forbids new external dependencies, so
//! this module carries its own ~RFC 8259 implementation.
//!
//! Two properties matter more than speed here:
//!
//! - **Determinism** — [`Json::write`] is a pure function of the value:
//!   object member order is preserved (members are a `Vec`, not a map)
//!   and numbers print via `f64`'s shortest-round-trip `Display`. That
//!   makes `write ∘ parse ∘ write = write`, which is what lets a
//!   replayed verdict (parsed from disk, re-serialized) be
//!   byte-identical to the freshly computed response it was saved from.
//!   The same fixpoint lets a subtree be written once and held as bytes:
//!   [`Json::preserialized`] renders a value's writer output, and a
//!   [`Json::Raw`] node holding it is copied in unchanged. The
//!   daemon holds every verdict's page that way, so a replay is a
//!   reference-count bump and a byte copy, not a tree clone and a
//!   re-serialization.
//! - **Total parsing** — [`parse`] never panics on malformed input; a
//!   corrupt artifact or a garbage request line becomes an `Err`, which
//!   the store treats as a cache miss and the server as a protocol
//!   error reply.

use std::fmt;
use std::sync::Arc;

/// A JSON value. Object members keep insertion order so serialization
/// is deterministic. Equality is by value: a [`Json::Raw`] node equals
/// the tree its bytes parse to.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers beyond 2^53 lose precision — encode
    /// hashes as hex *strings*, never as numbers.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
    /// A value already serialized by [`Json::write`], copied in
    /// unchanged when written. Its bytes come from
    /// [`Json::preserialized`]: other bytes would break the parse
    /// fixpoint. Accessors see no members through it; parse the
    /// bytes to read them.
    Raw(Arc<str>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value written once, as the shared bytes a [`Json::Raw`]
    /// node holds: `Json::Raw(v.preserialized())` writes exactly as `v`
    /// does.
    pub fn preserialized(&self) -> Arc<str> {
        let mut out = String::new();
        self.write(&mut out);
        out.into()
    }

    /// Member lookup (first match) on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                // JSON has no NaN/Infinity; degrade to null rather
                // than emit an unparsable token.
                if n.is_finite() {
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(bytes) => out.push_str(bytes),
        }
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Raw(a), Json::Raw(b)) if a == b => true,
            (Json::Raw(raw), value) | (value, Json::Raw(raw)) => {
                parse(raw).is_ok_and(|parsed| parsed == *value)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable cause.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, requiring it to span the whole input
/// (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns [`JsonError`] on any syntax error, non-UTF-8 escape, or
/// trailing garbage. Nesting is capped (defense against a hostile
/// request recursing the parser off the stack).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX\uXXXX.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos after the last digit;
                            // the outer increment below is skipped.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte at once. Those are all ASCII, so the
                    // run ends on a character boundary.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    self.pos += rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(run) => out.push_str(run),
                        Err(e) => {
                            self.pos = start + e.valid_up_to();
                            return Err(self.err("invalid UTF-8"));
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = &self.bytes[self.pos..self.pos + 4];
        let s = std::str::from_utf8(hex).map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
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
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

/// Formats a `u64` (content hashes, fingerprints) as the fixed-width
/// hex string the artifact format uses — never a JSON number, which
/// would silently round above 2^53.
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Inverse of [`hex64`].
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).expect("parses").to_string()
    }

    #[test]
    fn scalars() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip(" false "), "false");
        assert_eq!(roundtrip("3"), "3");
        assert_eq!(roundtrip("-2.5"), "-2.5");
        assert_eq!(roundtrip("\"a\\nb\""), "\"a\\nb\"");
    }

    #[test]
    fn containers_preserve_order() {
        let src = r#"{"b":1,"a":[true,null,{"x":"y"}]}"#;
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn writer_is_a_fixpoint_of_parse() {
        // write ∘ parse ∘ write = write, including float formatting.
        let v = Json::obj(vec![
            ("ms", Json::Num(23.498)),
            ("count", Json::Num(30.0)),
            ("tiny", Json::Num(0.1 + 0.2)),
            ("s", Json::Str("π \"quote\" \u{1}".into())),
        ]);
        let once = v.to_string();
        let twice = parse(&once).expect("own output parses").to_string();
        assert_eq!(once, twice);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(roundtrip(r#""\u00e9""#), "\"é\"");
        // Surrogate pair → astral char.
        assert_eq!(roundtrip(r#""\ud83d\ude00""#), "\"😀\"");
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn string_runs_copy_multi_byte_text_whole() {
        let v = parse("\"héllo → wörld 😀 naïve\"").expect("parses");
        assert_eq!(v.as_str(), Some("héllo → wörld 😀 naïve"));
        // A run that fills the whole input past the last escape.
        let long = "é".repeat(10_000);
        let v = parse(&format!("\"{long}\"")).expect("parses");
        assert_eq!(v.as_str(), Some(long.as_str()));
    }

    #[test]
    fn escapes_between_runs_split_them_exactly() {
        let v = parse(r#""ab\ncd\"é\\f\u00e9g\/""#).expect("parses");
        assert_eq!(v.as_str(), Some("ab\ncd\"é\\fég/"));
        let v = parse(r#""\n\t""#).expect("parses");
        assert_eq!(v.as_str(), Some("\n\t"));
    }

    #[test]
    fn control_character_error_names_its_byte() {
        // `"`, two 2-byte chars, then U+0001 at byte 5.
        let err = parse("\"éé\u{1}x\"").expect_err("control char rejected");
        assert_eq!(err.message, "unescaped control character");
        assert_eq!(err.at, 5);
        let err = parse("[\"ok\", \"a\\n\tb\"]").expect_err("raw tab rejected");
        assert_eq!((err.message.as_str(), err.at), ("unescaped control character", 11));
        let err = parse("\"abc").expect_err("unterminated");
        assert_eq!((err.message.as_str(), err.at), ("unterminated string", 4));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "nul", "01x", "\"\u{1}\"", "1 2",
            "{\"a\":}", "[1,]", "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_is_capped() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn raw_nodes_write_their_bytes_unchanged() {
        let page = Json::obj(vec![
            ("entry", Json::Str("a \"b\".php".into())),
            ("ms", Json::Num(0.1 + 0.2)),
            ("list", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let raw = Json::Raw(page.preserialized());
        assert_eq!(raw.to_string(), page.to_string());
        // Nested inside an ordinary tree, beside plain members.
        let tree = |p: Json| {
            Json::obj(vec![("ok", Json::Bool(true)), ("pages", Json::Arr(vec![p]))])
        };
        let spliced = tree(raw).to_string();
        assert_eq!(spliced, tree(page).to_string());
        assert_eq!(parse(&spliced).expect("parses").to_string(), spliced);
    }

    #[test]
    fn raw_nodes_are_opaque_to_accessors() {
        let raw = Json::Raw(Json::obj(vec![("k", Json::Str("v".into()))]).preserialized());
        assert!(raw.get("k").is_none());
        assert!(raw.as_str().is_none());
        assert_eq!(raw, Json::obj(vec![("k", Json::Str("v".into()))]), "equal by value");
        assert_ne!(raw, Json::obj(vec![("k", Json::Null)]));
    }

    /// Arbitrary trees, each paired with a copy in which random subtrees
    /// were replaced by [`Json::Raw`] nodes of their writer bytes.
    struct TreeWithRaw;

    const CHARS: [char; 10] = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', 'é', '😀'];

    fn tree(rng: &mut proptest::TestRng, depth: usize) -> Json {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool()),
            2 => Json::Num((rng.next_u64() as i64 >> 20) as f64 / [1.0, 10.0, 1e3][rng.below(3)]),
            3 => Json::Str((0..rng.below(6)).map(|_| CHARS[rng.below(CHARS.len())]).collect()),
            4 => Json::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|i| (format!("k{i}"), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn rawify(v: &Json, rng: &mut proptest::TestRng) -> Json {
        if rng.below(4) == 0 {
            return Json::Raw(v.preserialized());
        }
        match v {
            Json::Arr(items) => Json::Arr(items.iter().map(|i| rawify(i, rng)).collect()),
            Json::Obj(members) => Json::Obj(
                members.iter().map(|(k, m)| (k.clone(), rawify(m, rng))).collect(),
            ),
            other => other.clone(),
        }
    }

    impl proptest::Strategy for TreeWithRaw {
        type Value = (Json, Json);
        fn generate(&self, rng: &mut proptest::TestRng) -> (Json, Json) {
            let plain = tree(rng, 4);
            let raw = rawify(&plain, rng);
            (plain, raw)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn raw_subtrees_write_like_the_trees_they_replace(pair in TreeWithRaw) {
            let (plain, raw) = pair;
            let written = raw.to_string();
            proptest::prop_assert_eq!(&written, &plain.to_string());
            let reparsed = parse(&written).expect("writer output parses");
            proptest::prop_assert_eq!(reparsed.to_string(), written);
            proptest::prop_assert_eq!(&reparsed, &raw);
        }
    }

    #[test]
    fn hex64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v));
        }
        assert_eq!(parse_hex64("xyz"), None);
        assert_eq!(parse_hex64("123"), None);
    }
}
