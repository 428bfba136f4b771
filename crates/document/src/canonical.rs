//! The canonical JSON body format: its writer and its reader. The crate
//! docs state the format as one contract, writer and reader side by side.
//!
//! The reader ([`decode_value`]) is the client's cache-hit path: it turns
//! any cached body back into a [`Value`] in one pass over the bytes.
//! Within the depth cap it accepts exactly the bodies the workspace's
//! `serde_json` parser accepts and returns the same value as that parser
//! followed by a conversion to [`Value`]; the tests below hold it to that
//! oracle.

use std::fmt::{self, Write as _};

use crate::document::Document;
use crate::string::Str;
use crate::value::Value;

/// Hard ceiling on decoder recursion: nested arrays and objects here and
/// in the binary WAL/wire codec, nested filter combinators there. Real
/// documents nest a handful of levels; the cap exists because decoders
/// also face *untrusted* bytes, where a few KB of crafted nesting would
/// otherwise drive the recursion to a stack overflow — an abort, not a
/// clean error.
pub const MAX_DECODE_DEPTH: usize = 64;

// ---- writer ----------------------------------------------------------------

/// Append the canonical rendering of `v` to `out`.
pub(crate) fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(v, out);
            }
            out.push(']');
        }
        Value::Object(map) => write_document(map, out),
    }
}

/// Append the canonical rendering of `doc` to `out`: the bytes of
/// `Value::Object(doc.clone()).canonical()`, without the clone.
pub fn write_document(doc: &Document, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in doc.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(k, out);
        out.push(':');
        write_value(v, out);
    }
    out.push('}');
}

pub(crate) fn write_float(f: f64, out: &mut String) {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        // 3.0 and 3 must produce the same cache key: they are the same
        // point in MongoDB's numeric order.
        let _ = write!(out, "{}", f as i64);
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Append `s` as a quoted string, escaping `"` and `\` only. Keys and
/// ids go through here too, so none can close its own quotes.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' {
            out.push_str(&s[run..i]);
            out.push('\\');
            // The escaped byte itself starts the next run.
            run = i;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---- reader ----------------------------------------------------------------

/// Why a body did not decode, and the byte offset where that showed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    msg: &'static str,
    at: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// Decode one canonical JSON body (see the module docs for the format).
/// Never panics: malformed, truncated or over-deep input is an `Err`.
pub fn decode_value(bytes: &[u8]) -> Result<Value, DecodeError> {
    let text = std::str::from_utf8(bytes).map_err(|e| DecodeError {
        msg: "invalid utf-8",
        at: e.valid_up_to(),
    })?;
    let mut r = Reader {
        text,
        pos: 0,
        items: Vec::with_capacity(16),
        fields: Vec::with_capacity(8),
    };
    r.skip_ws();
    let v = r.value_at(0)?;
    r.skip_ws();
    if r.pos != bytes.len() {
        return Err(r.err("trailing data"));
    }
    Ok(v)
}

/// A cursor over a body already known to be valid UTF-8, so every string
/// run between ASCII delimiters can be copied out whole.
///
/// Open arrays and objects stack their elements on `items` and `fields`,
/// innermost last, and move them into a vector of exactly their count
/// when they close: each container allocates once, and a string of at
/// most 22 bytes not at all.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    items: Vec<Value>,
    fields: Vec<(Str, Value)>,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &'static str) -> DecodeError {
        DecodeError { msg, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn deeper(&self, depth: usize) -> Result<usize, DecodeError> {
        if depth >= MAX_DECODE_DEPTH {
            return Err(self.err("nesting exceeds the depth cap"));
        }
        Ok(depth + 1)
    }

    /// One value whose enclosing containers sit `depth` levels deep.
    fn value_at(&mut self, depth: usize) -> Result<Value, DecodeError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array_at(self.deeper(depth)?),
            Some(b'{') => self.object_at(self.deeper(depth)?).map(Value::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, DecodeError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn array_at(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.pos += 1; // '['
        let base = self.items.len();
        self.skip_ws();
        if !self.eat(b']') {
            loop {
                self.skip_ws();
                let item = self.value_at(depth)?;
                self.items.push(item);
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
        Ok(Value::Array(self.items.split_off(base)))
    }

    /// An object's fields, in any key order; a repeated key keeps its last
    /// value ([`Document::from_fields`]).
    fn object_at(&mut self, depth: usize) -> Result<Document, DecodeError> {
        self.pos += 1; // '{'
        let base = self.fields.len();
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("expected a key"));
                }
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return Err(self.err("expected ':'"));
                }
                self.skip_ws();
                let v = self.value_at(depth)?;
                self.fields.push((key, v));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
        Ok(Document::from_fields(self.fields.split_off(base)))
    }

    /// A string starting at its opening quote. Without escapes it is one
    /// slice of the already-validated body; with them, each run between
    /// escapes is copied whole: it starts and ends on an ASCII byte, so it
    /// is a valid `&str` slice.
    fn string(&mut self) -> Result<Str, DecodeError> {
        self.pos += 1; // '"'
        let text = self.run()?;
        if self.eat(b'"') {
            return Ok(Str::new(text));
        }
        let mut out = String::from(text);
        loop {
            // At a backslash.
            let Some(&esc) = self.text.as_bytes().get(self.pos + 1) else {
                return Err(self.err("dangling escape"));
            };
            self.pos += 2;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{0008}',
                b'f' => '\u{000C}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
            out.push_str(self.run()?);
            if self.eat(b'"') {
                return Ok(Str::from(out));
            }
        }
    }

    /// The run up to the next quote or backslash, which is left unread.
    fn run(&mut self) -> Result<&'a str, DecodeError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let Some(len) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
            self.pos = bytes.len();
            return Err(self.err("unterminated string"));
        };
        self.pos += len;
        Ok(&self.text[start..self.pos])
    }

    /// The four hex digits after `\u`, as one scalar value.
    fn unicode_escape(&mut self) -> Result<char, DecodeError> {
        let Some(hex) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.err("short \\u escape"));
        };
        let mut code = 0u32;
        for &h in hex {
            let digit = char::from(h)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        let c = char::from_u32(code).ok_or_else(|| self.err("\\u escape of a surrogate"))?;
        self.pos += 4;
        Ok(c)
    }

    /// A number token: the longest run of `[0-9.eE+-]` after an optional
    /// sign, `Int` when it has no fraction or exponent and fits `i64`.
    fn number(&mut self) -> Result<Value, DecodeError> {
        let start = self.pos;
        self.eat(b'-');
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DecodeError {
                msg: "malformed number",
                at: start,
            })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::doc;
    use proptest::prelude::*;

    /// `serde_json` → [`Value`], as the client decoded bodies before this
    /// reader existed: integers that fit `i64` become `Int`.
    pub(crate) fn from_json(v: serde_json::Value) -> Value {
        match v {
            serde_json::Value::Null => Value::Null,
            serde_json::Value::Bool(b) => Value::Bool(b),
            serde_json::Value::Number(n) => match n.as_i64() {
                Some(i) => Value::Int(i),
                None => Value::Float(n.as_f64().unwrap_or(f64::NAN)),
            },
            serde_json::Value::String(s) => Value::str(s),
            serde_json::Value::Array(a) => Value::Array(a.into_iter().map(from_json).collect()),
            serde_json::Value::Object(o) => {
                Value::Object(o.into_iter().map(|(k, v)| (k, from_json(v))).collect())
            }
        }
    }

    /// [`Value`] → `serde_json`; non-finite floats become `null`.
    pub(crate) fn to_json(v: Value) -> serde_json::Value {
        match v {
            Value::Null => serde_json::Value::Null,
            Value::Bool(b) => serde_json::Value::Bool(b),
            Value::Int(i) => serde_json::Value::from(i),
            Value::Float(f) => serde_json::Number::from_f64(f)
                .map(serde_json::Value::Number)
                .unwrap_or(serde_json::Value::Null),
            Value::Str(s) => serde_json::Value::String(s.into()),
            Value::Array(a) => serde_json::Value::Array(a.into_iter().map(to_json).collect()),
            Value::Object(o) => serde_json::Value::Object(
                o.into_iter().map(|(k, v)| (k.into(), to_json(v))).collect(),
            ),
        }
    }

    /// The oracle: the previous decode path.
    fn oracle(bytes: &[u8]) -> Option<Value> {
        serde_json::from_slice(bytes).ok().map(from_json)
    }

    /// Structural identity, stricter than `==`: `Int(3)` and `Float(3.0)`
    /// compare equal as values, but the reader must pick the same variant
    /// as the oracle. Floats compare by bits (NaN never decodes).
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Array(x), Value::Array(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
            }
            (Value::Object(x), Value::Object(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
            }
            _ => false,
        }
    }

    fn nested(depth: usize) -> String {
        let mut s = "[".repeat(depth);
        s.push_str(&"]".repeat(depth));
        s
    }

    /// Quotes, backslashes, raw control characters, multi-byte text.
    const STRINGS: &str = "[a-c\"\\\u{0}\u{1}\n\u{1f}/é€😀 ]{0,8}";

    /// Values with string contents from `STRINGS` and keys from `keys`.
    fn arb_value_keyed(keys: &'static str) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Integers around and above 2^53.
            ((1i64 << 53) - 4..(1i64 << 53) + 4).prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            // Integral floats: rendered and decoded as integers.
            (-1_000_000i64..1_000_000).prop_map(|i| Value::Float(i as f64)),
            // Past the integer rendering: 1e15 and up, tiny magnitudes.
            (15i32..300).prop_map(|e| Value::Float(10f64.powi(e) * 1.5)),
            (-300i32..-5).prop_map(|e| Value::Float(10f64.powi(e) * -3.25)),
            STRINGS.prop_map(Value::str),
        ];
        leaf.prop_recursive(6, 48, 5, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
                proptest::collection::btree_map(keys, inner, 0..5)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    fn arb_value() -> BoxedStrategy<Value> {
        arb_value_keyed(STRINGS)
    }

    /// A byte to overwrite or insert: any byte, or one JSON gives meaning.
    fn arb_edit_byte() -> BoxedStrategy<u8> {
        const SYNTAX: &[u8] = b"\"\\,:[]{} \t\n0123456789-+.eEu/ntfrb";
        prop_oneof![any::<u8>(), (0..SYNTAX.len()).prop_map(|i| SYNTAX[i])]
    }

    /// The writer as it was before keys were escaped, verbatim.
    fn previous_canonical(v: &Value, out: &mut String) {
        match v {
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                    out.push_str(&(*f as i64).to_string());
                } else {
                    out.push_str(&f.to_string());
                }
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    previous_canonical(v, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\":");
                    previous_canonical(v, out);
                }
                out.push('}');
            }
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decoder_matches_the_oracle_on_canonical_bodies(v in arb_value()) {
            let body = v.canonical();
            let want = oracle(body.as_bytes()).expect("oracle decodes canonical bodies");
            let got = decode_value(body.as_bytes()).expect("decoder decodes canonical bodies");
            prop_assert!(same(&got, &want), "{body}: {got:?} vs {want:?}");
            // Decoding loses no information the writer kept.
            prop_assert_eq!(got.canonical(), body);
        }

        #[test]
        fn decoder_matches_the_oracle_on_mutated_bodies(
            v in arb_value(),
            edits in proptest::collection::vec((any::<usize>(), arb_edit_byte(), 0u8..3), 1..4),
        ) {
            let mut body = v.canonical().into_bytes();
            for (at, byte, kind) in edits {
                let at = at % (body.len() + 1);
                match kind {
                    0 if at < body.len() => body[at] = byte,
                    1 if at < body.len() => {
                        body.remove(at);
                    }
                    _ => body.insert(at, byte),
                }
            }
            match (decode_value(&body), oracle(&body)) {
                (Ok(got), Some(want)) => prop_assert!(same(&got, &want), "{got:?} vs {want:?}"),
                (Err(_), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "{:?}: decoder {got:?}, oracle {want:?}",
                    String::from_utf8_lossy(&body)
                ),
            }
        }

        #[test]
        fn document_writer_matches_the_previous_writer(
            d in proptest::collection::btree_map("[a-z_]{1,6}", arb_value_keyed("[a-z_]{1,6}"), 0..6),
        ) {
            // Same bytes wherever no key holds `"` or `\`.
            let d: Document = d.into_iter().collect();
            let mut out = String::new();
            write_document(&d, &mut out);
            let mut prev = String::new();
            previous_canonical(&Value::Object(d), &mut prev);
            prop_assert_eq!(out, prev);
        }
    }

    #[test]
    fn malformed_bodies_are_errors_not_panics() {
        let cases: &[&[u8]] = &[
            b"",
            b"[1,2",
            br#"{"a":1"#,
            br#"{"a""#,
            br#""abc"#,
            b"nul",
            b"[1,]",
            br#"{"a":1,}"#,
            b"[1] 2",
            b"{} x",
            b"[\"\xff\"]",
            b"\xc3",
            br#""\q""#,
            br#""\u12""#,
            br#""\u12"#,
            br#""\uzzzz""#,
            br#""\ud800""#,
            br#""\"#,
            b"-",
            b"1e",
            b"1-2",
            b"NaN",
            b"inf",
            b"-inf",
        ];
        for &body in cases {
            assert!(
                decode_value(body).is_err(),
                "{:?} must not decode",
                String::from_utf8_lossy(body)
            );
            assert!(oracle(body).is_none(), "the oracle agrees");
        }
    }

    #[test]
    fn depth_cap_is_exact() {
        assert!(decode_value(nested(MAX_DECODE_DEPTH).as_bytes()).is_ok());
        let err = decode_value(nested(MAX_DECODE_DEPTH + 1).as_bytes()).unwrap_err();
        assert_eq!(err.at, MAX_DECODE_DEPTH);
        let objects = format!(
            "{}1{}",
            r#"{"k":"#.repeat(MAX_DECODE_DEPTH + 1),
            "}".repeat(MAX_DECODE_DEPTH + 1)
        );
        assert!(decode_value(objects.as_bytes()).is_err());
    }

    #[test]
    fn escapes_whitespace_and_numbers_decode_like_json() {
        let body = r#" { "s" : "a\"b\\c\/d\n\t\r\b\fé€" , "n" : [ -0 , 007 , 1.5e3 , -2E-2 , 9223372036854775808 , 1. ] } "#
            .as_bytes();
        let v = decode_value(body).unwrap();
        assert!(same(&v, &oracle(body).unwrap()));
        let o = v.as_object().unwrap();
        assert_eq!(o["s"], Value::str("a\"b\\c/d\n\t\r\u{8}\u{c}é€"));
        let n = o["n"].as_array().unwrap();
        assert!(matches!(n[0], Value::Int(0)));
        assert!(matches!(n[1], Value::Int(7)));
        assert!(matches!(n[2], Value::Float(f) if f == 1500.0));
        assert!(matches!(n[4], Value::Float(f) if f == 9223372036854775808.0));
        assert!(matches!(n[5], Value::Float(f) if f == 1.0));
        // Raw control characters are accepted; a repeated key keeps its
        // last value.
        let v = decode_value(b"{\"a\":\"x\x01\ny\",\"a\":2}").unwrap();
        assert_eq!(v, Value::Object(doc! { "a" => 2 }));
    }

    #[test]
    fn keys_are_escaped_like_strings() {
        let key = r#"a":1,"b"#.to_string();
        let tricky = Value::Object(doc! { key.as_str() => 2 });
        let plain = Value::Object(doc! { "a" => 1, "b" => 2 });
        assert_eq!(tricky.canonical(), r#"{"a\":1,\"b":2}"#);
        assert_ne!(tricky.canonical(), plain.canonical());
        let back = decode_value(tricky.canonical().as_bytes()).unwrap();
        assert_eq!(back.as_object().unwrap().keys().collect::<Vec<_>>(), [&key]);
        let mut eq_key = String::new();
        tricky.eq_canonical_into(&mut eq_key);
        assert_eq!(eq_key, r#"{"a\":1,\"b":2}"#);
    }
}
