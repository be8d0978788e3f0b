//! A minimal JSON value type with writer and parser.
//!
//! Scenario specs and the store's records are plain JSON so they stay
//! greppable and tool-friendly, but the workspace is vendored-offline with
//! no serde; this module implements exactly the subset needed — objects,
//! arrays, strings, integer numbers, and booleans. Floats are *never*
//! serialized as JSON numbers: exact `f64` round-tripping matters for
//! byte-identical resumes, so callers store them as strings (decimal via
//! `format!("{value}")` for scenario files, or hex bit-pattern strings in
//! the store's records).
//!
//! A string value is a [`JsonStr`], which keeps up to [`JsonStr::INLINE`]
//! bytes inline and only longer text on the heap. A record's thousands of
//! 16-digit sample strings are therefore parsed, built and dropped without
//! a heap allocation each. The parser copies each unescaped run of a
//! string in one piece, and the writer does the same.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value. Objects use [`BTreeMap`] so serialization is canonical
/// (sorted keys), which the manifest hash relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Only integer-valued numbers are ever produced by this
    /// workspace; the parser accepts any JSON number into an `i64` when
    /// lossless, else a float (accepted but not canonical).
    Int(i64),
    /// A string.
    Str(JsonStr),
    /// An array.
    Arr(Vec<Json>),
    /// An object with canonically sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(JsonStr::from(s.into()))
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A field of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serializes to a compact single-line string (no whitespace), with
    /// object keys in sorted order — the canonical form used both on disk
    /// and as the manifest-hash preimage.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (for `avc show`).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_json_string(out, s.as_str()),
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error (with byte offset),
    /// or of trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// A JSON string value: up to [`JsonStr::INLINE`] bytes are kept inline,
/// longer text on the heap. Which form a string takes depends only on its
/// length, and both compare, print and serialize as the text they hold.
#[derive(Clone)]
pub struct JsonStr(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the text.
    Inline {
        len: u8,
        bytes: [u8; JsonStr::INLINE],
    },
    /// Text longer than [`JsonStr::INLINE`] bytes.
    Heap(Box<str>),
}

impl JsonStr {
    /// The longest text, in bytes, kept without a heap allocation. It keeps
    /// a [`JsonStr`] at 24 bytes, and so [`Json`] at 32.
    pub const INLINE: usize = 22;

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a `str`"),
            Repr::Heap(text) => text,
        }
    }

    /// The text's bytes, without the UTF-8 check of [`JsonStr::as_str`].
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// The inline form of `text`, if it is short enough.
    fn inline(text: &str) -> Option<JsonStr> {
        let len = text.len();
        (len <= JsonStr::INLINE).then(|| {
            let mut bytes = [0; JsonStr::INLINE];
            bytes[..len].copy_from_slice(text.as_bytes());
            JsonStr(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl From<&str> for JsonStr {
    fn from(text: &str) -> JsonStr {
        JsonStr::inline(text).unwrap_or_else(|| JsonStr(Repr::Heap(text.into())))
    }
}

impl From<String> for JsonStr {
    fn from(text: String) -> JsonStr {
        JsonStr::inline(&text).unwrap_or_else(|| JsonStr(Repr::Heap(text.into_boxed_str())))
    }
}

impl PartialEq for JsonStr {
    fn eq(&self, other: &JsonStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for JsonStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for JsonStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Writes `s` as a JSON string literal, copying each run of characters
/// that need no escape in one piece.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Every byte escaped is ASCII, so `run..i` lies on char boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", byte as char))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?.into_owned();
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(match parse_string(text, pos)? {
            Cow::Borrowed(run) => JsonStr::from(run),
            Cow::Owned(unescaped) => JsonStr::from(unescaped),
        })),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<i64>()
        .map(Json::Int)
        .map_err(|_| format!("unsupported number `{text}` at byte {start} (only integers)"))
}

/// Parses the string literal at `pos`. A string without escapes is
/// borrowed from `text` whole; otherwise each unescaped run is copied into
/// the result in one piece.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut unescaped: Option<String> = None;
    loop {
        let start = *pos;
        let Some(len) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
            return Err("unterminated string".to_string());
        };
        *pos = start + len;
        // `start` follows a quote or an escape and `*pos` is at one, so the
        // run is whole characters.
        let run = &text[start..*pos];
        *pos += 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(match unescaped {
                None => Cow::Borrowed(run),
                Some(mut out) => {
                    out.push_str(run);
                    Cow::Owned(out)
                }
            });
        }
        let out = unescaped.get_or_insert_with(String::new);
        out.push_str(run);
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".to_string());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = bytes
                    .get(*pos..*pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                *pos += 4;
                // Surrogate pairs are not produced by our writer; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("unknown escape at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("b", Json::Int(-3)),
            ("a", Json::str("hi \"there\"\n")),
            (
                "list",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::str("x")]),
            ),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Keys serialize sorted regardless of insertion order.
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn pretty_printing_is_reparseable() {
        let doc = Json::obj([("k", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_float_numbers() {
        // Floats travel as hex bit strings, never JSON numbers.
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("[3]").is_ok());
    }

    #[test]
    fn escapes_control_characters() {
        let doc = Json::str("tab\tnul\u{1}");
        let text = doc.to_string_compact();
        assert!(text.contains("\\t"));
        assert!(text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn preserves_unicode() {
        let doc = Json::str("ε ≈ 10⁻⁵");
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
    }

    /// `json` parses back from its compact form to itself, and serializes
    /// again to the same bytes; a string is inline exactly when short.
    fn assert_roundtrips(json: &Json) {
        let text = json.to_string_compact();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, json, "{text}");
        assert_eq!(back.to_string_compact(), text);
        if let Json::Str(s) = &back {
            let inline = matches!(s.0, Repr::Inline { .. });
            assert_eq!(inline, s.as_bytes().len() <= JsonStr::INLINE, "{text}");
        }
    }

    #[test]
    fn json_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<JsonStr>(), 24);
        assert_eq!(std::mem::size_of::<Json>(), 32);
    }

    #[test]
    fn strings_roundtrip_on_both_sides_of_the_inline_bound() {
        let texts = [
            String::new(),
            "a".to_string(),
            "x".repeat(22),
            "x".repeat(23),
            // Two-, three- and four-byte characters ending at 22 and 23+
            // bytes.
            format!("{}é", "x".repeat(20)),
            format!("{}é", "x".repeat(21)),
            format!("{}x", "€".repeat(7)),
            format!("{}€", "x".repeat(20)),
            format!("{}xx", "𝄞".repeat(5)),
            "𝄞".repeat(6),
            // Escapes just inside and just past the bound.
            format!("{}\"", "x".repeat(21)),
            format!("{}\n", "x".repeat(22)),
            "\u{0}".repeat(22),
            "\u{1f}".repeat(23),
        ];
        for text in texts {
            let json = Json::str(text.clone());
            assert_eq!(json.as_str(), Some(text.as_str()));
            assert_roundtrips(&json);
            assert_roundtrips(&Json::obj([(text.clone(), Json::str(text.clone()))]));
            assert_roundtrips(&Json::Arr(vec![Json::str(text.clone()); 3]));
        }
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_characters() {
        let doc = Json::str("a\"b\\c\nd\re\tf\u{0}g\u{8}h\u{c}i\u{1f}j\u{7f}é/");
        assert_eq!(
            doc.to_string_compact(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u0008h\\u000ci\\u001fj\u{7f}é/\""
        );
        assert_roundtrips(&doc);
        for code in 0..0x20u8 {
            assert_roundtrips(&Json::str(char::from(code).to_string()));
        }
    }

    #[test]
    fn parser_reads_every_escape() {
        let text = r#""\"\\\/\n\r\t\b\f\u0041\u00e9\u20AC\ud800""#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.as_str(), Some("\"\\/\n\r\t\u{8}\u{c}Aé€\u{fffd}"));
        assert_roundtrips(&doc);
        // Escapes split runs of plain text, which may be multibyte.
        let doc = Json::parse(r#""ε\u0020≈\n10⁻⁵""#).unwrap();
        assert_eq!(doc.as_str(), Some("ε ≈\n10⁻⁵"));
    }

    #[test]
    fn string_errors_name_what_and_where() {
        for (text, error) in [
            ("\"abc", "unterminated string"),
            ("\"ab\\n", "unterminated string"),
            ("\"ab\\", "unterminated escape"),
            ("\"\\x\"", "unknown escape at byte 3"),
            ("\"é\\é\"", "unknown escape at byte 5"),
            ("\"\\u12\"", "bad \\u escape at byte 3"),
            ("\"\\u12G4\"", "bad \\u escape at byte 3"),
            ("{\"a\":\"b}", "unterminated string"),
            ("{a:1}", "expected `\"` at byte 1"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err(), error, "{text}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn any_string_roundtrips(picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..32)) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            assert_roundtrips(&Json::str(text.clone()));
            assert_roundtrips(&Json::obj([(text.clone(), Json::Arr(vec![Json::str(text)]))]));
        }
    }

    /// Characters that stress the string codec: plain ASCII, every escape
    /// the writer emits, other control characters, and two-, three- and
    /// four-byte UTF-8.
    const ALPHABET: [char; 16] = [
        'a', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '\u{7f}', 'é', '€',
        '⁻', '𝄞',
    ];
}
