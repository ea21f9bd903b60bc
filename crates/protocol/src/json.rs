//! Minimal JSON value, writer, and parser — the repo's one JSON codec.
//!
//! The repo is std-only (no serde). Everything the workspace writes or
//! reads as JSON goes through here: the line-delimited wire protocol, the
//! `commspec-perf` report, and the campaign's JSONL telemetry, which doubles
//! as the resume journal and the server's job and lease journal. The value
//! model is objects, arrays, strings, finite numbers, booleans, and null.
//! Two renderings share the one value type: [`Json::to_compact`] emits the
//! single-line form line-delimited logs and the wire protocol require,
//! while `Display` pretty-prints for committed reports. Object keys keep
//! insertion order, so both forms are byte-stable across runs.
//!
//! The parser refuses documents nested deeper than [`MAX_DEPTH`], so no
//! input line can exhaust the reading thread's stack.

use std::fmt;

/// A JSON value. Object keys keep insertion order so the emitted report is
/// byte-stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values render as `null`, the only spelling the
    /// parser (and JSON) accepts for them.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&String> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as an exact unsigned integer, if this is a
    /// non-negative whole number small enough for f64 to represent exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 9e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// Single-line rendering with no inter-token whitespace: the framing
    /// the line-delimited wire protocol requires (a value never contains a
    /// raw newline — newlines inside strings are escaped).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {
                use fmt::Write as _;
                let _ = write!(out, "{self}");
            }
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `Display` for f64 is shortest-roundtrip and never uses an
            // exponent, so whole numbers print without a fraction and every
            // finite value parses back to the same bits.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return write!(f, "[]");
                }
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    item.write(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
                }
                write!(f, "{pad}]")
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    return write!(f, "{{}}");
                }
                writeln!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    write_str(f, k)?;
                    write!(f, ": ")?;
                    v.write(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < members.len() { "," } else { "" })?;
                }
                write!(f, "{pad}}}")
            }
        }
    }
}

/// The one string writer: every string value and every object key, in
/// both renderings, is quoted and escaped here.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

/// Exact below 2^53; larger values round to the nearest f64, and
/// [`Json::as_u64`] reads back only whole numbers below 9e15.
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

/// Exact while the magnitude is below 2^53, as for `u64`.
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
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

/// Deepest container nesting [`parse`] accepts. Every document the repo
/// writes nests fewer than ten levels; the bound keeps the recursive
/// descent far inside a default 2 MiB thread stack whatever a peer sends.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

/// `depth` counts the containers enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = hex4(bytes, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low one is
                        // one character outside the BMP; a lone surrogate
                        // decodes to U+FFFD.
                        if (0xd800..0xdc00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            if let Some(low @ 0xdc00..=0xdfff) = hex4(bytes, *pos + 3) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one piece
                // (both are ASCII, so the run ends on a char boundary).
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

/// The four hex digits at `bytes[at..at + 4]` as a UTF-16 code unit.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let hex = std::str::from_utf8(bytes.get(at..at + 4)?).ok()?;
    u32::from_str_radix(hex, 16).ok()
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
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

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_schema_subset() {
        let v = Json::Obj(vec![
            ("schema".into(), Json::Str("commspec-perf/v1".into())),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "suites".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("compress_r64".into())),
                    ("speedup".into(), Json::Num(2.125)),
                    ("current_ns".into(), Json::Num(123456789.0)),
                ])]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_survive_a_roundtrip() {
        let v = Json::Str("a \"quoted\" \\ line\nbreak".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Keys are strings too, in both renderings.
        let keyed = Json::Obj(vec![("a\"b\\c\nd".into(), Json::Null)]);
        assert_eq!(parse(&keyed.to_string()).unwrap(), keyed);
        assert_eq!(parse(&keyed.to_compact()).unwrap(), keyed);
    }

    #[test]
    fn string_decoding_is_linear_in_the_input() {
        // ~1 MiB of text with escapes and 2-, 3- and 4-byte characters.
        let unit = "plain ascii run, \"quoted\" back\\slash\nnew\tline é ✓ 🦀 \u{1} ";
        let text = |bytes: usize| unit.repeat(bytes / unit.len() + 1);
        let decode_secs = |s: &str| {
            let doc = Json::Str(s.to_string()).to_compact();
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let v = parse(std::hint::black_box(&doc)).unwrap();
                    let secs = t.elapsed().as_secs_f64();
                    assert_eq!(v.as_str().map(String::as_str), Some(s));
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (text(1 << 18), text(1 << 20));
        let (t_small, t_large) = (decode_secs(&small), decode_secs(&large));
        assert!(
            t_large < 8.0 * t_small,
            "4x the input took {:.1}x the time ({t_small:.4}s -> {t_large:.4}s)",
            t_large / t_small
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("12 34").is_err(), "trailing data");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers are rejected");
    }

    #[test]
    fn integers_print_without_a_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn compact_form_is_single_line_and_roundtrips() {
        let v = Json::Obj(vec![
            ("type".into(), Json::Str("status".into())),
            ("line".into(), Json::Str("two\nlines\r\ttab".into())),
            ("n".into(), Json::Num(7.0)),
            ("ok".into(), Json::Bool(true)),
            ("items".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        let line = v.to_compact();
        assert!(!line.contains('\n'), "compact form must be one line");
        assert!(!line.contains(": "), "no inter-token whitespace");
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(
            Json::Arr(vec![]).to_compact(),
            "[]",
            "empty containers stay tight"
        );
        assert_eq!(Json::Obj(vec![]).to_compact(), "{}");
    }

    #[test]
    fn bool_and_u64_accessors() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1.0).as_bool(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(2.5).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 10^5 levels overflowed a default 2 MiB stack before the bound; run
        // on a spawned thread so the test sees that stack, not the main one.
        let deep = format!("{{\"type\":\"trace\",\"app\":{}", "[".repeat(100_000));
        let err = std::thread::spawn(move || parse(&deep))
            .join()
            .expect("parser thread survived")
            .unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn non_finite_numbers_are_written_as_null_in_both_renderings() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Json::Arr(vec![Json::Num(x)]);
            assert_eq!(v.to_compact(), "[null]");
            assert_eq!(parse(&v.to_string()).unwrap(), Json::Arr(vec![Json::Null]));
        }
    }

    #[test]
    fn finite_numbers_roundtrip_bit_exact() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            5e-324,
            1e21,
            -0.0,
            9_007_199_254.0,
            1e-7,
        ] {
            let back = parse(&Json::Num(x).to_compact()).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(Json::from(123_456_789u64).to_compact(), "123456789");
        assert_eq!(Json::from(-5i64).to_compact(), "-5");
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_character() {
        // Python's json.dumps("🦀") spells the crab as a UTF-16 pair.
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), Json::Str("🦀".into()));
        assert_eq!(
            parse(r#""a\ud83d\ude00b""#).unwrap(),
            Json::Str("a😀b".into())
        );
        // Lone surrogates, in either order, stay one U+FFFD each.
        assert_eq!(parse(r#""\ud83e""#).unwrap(), Json::Str("\u{fffd}".into()));
        assert_eq!(
            parse(r#""\udd80x""#).unwrap(),
            Json::Str("\u{fffd}x".into())
        );
        assert_eq!(
            parse(r#""\ud83eA""#).unwrap(),
            Json::Str("\u{fffd}A".into())
        );
        assert_eq!(
            parse(r#""\udd80\ud83e""#).unwrap(),
            Json::Str("\u{fffd}\u{fffd}".into())
        );
        assert!(parse(r#""\ud83e\udd8""#).is_err(), "truncated low half");
    }
}
