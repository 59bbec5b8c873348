//! A minimal hand-rolled JSON parser (no `serde` in this workspace).
//!
//! Originally the private protocol parser of the `serve` front end in
//! `robusched-experiments`; extracted here so the WfCommons trace parser
//! and the wire protocol share one implementation. The subset is exactly
//! RFC 8259 minus surrogate-pair decoding (unpaired `\u` escapes map to
//! U+FFFD — fine for both the protocol and WfCommons instance files),
//! plus a nesting-depth limit ([`MAX_DEPTH`]) so adversarial inputs
//! (`[[[[…`) fail with an error instead of a stack overflow.

/// Maximum array/object nesting depth accepted by [`parse_json`]. Real
/// WfCommons documents nest 4–6 levels; 128 leaves two orders of margin
/// while keeping the recursive-descent parser safely within any stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects preserve key order (no hashing needed at
/// these document sizes). An integer literal that fits a `u64` keeps its
/// exact value ([`Json::Int`]); every other number is an `f64`, as in
/// JavaScript.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal (no fraction or exponent) up to
    /// `u64::MAX`.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one (an [`Json::Int`] above
    /// 2^53 rounds to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer index, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        (v.fract() == 0.0 && v >= 0.0 && v <= u32::MAX as f64).then_some(v as usize)
    }

    /// The value as a `u64`, if it is exactly one: an integer literal, or
    /// another number form (`5.0`, `1e3`) with an integral value below
    /// 2^53, where every `f64` integer is exact. Anything else — a
    /// fraction, a negative number, a value past `u64::MAX` — is `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) => (v.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(v))
                .then_some(*v as u64),
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

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err("object keys must be strings".into()),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(str::to_string)?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are out of scope for this subset;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 scalar starting here.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8".to_string())?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("the scan accepts only ASCII");
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Json::Int(v));
    }
    text.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// Serializes a value back to compact JSON (non-finite numbers → `null`).
pub fn write_json(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Json::Int(v) => out.push_str(&v.to_string()),
        Json::Num(v) => push_number(*v, out),
        Json::Str(s) => push_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_string(k, out);
                out.push(':');
                write_json(v, out);
            }
            out.push('}');
        }
    }
}

fn push_number(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn push_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure() {
        let doc = parse_json(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_f64(),
            Some(-300.0)
        );
        let mut out = String::new();
        write_json(&doc, &mut out);
        assert_eq!(parse_json(&out).unwrap(), doc);
    }

    #[test]
    fn string_escapes_decode() {
        let doc = parse_json(r#""a\"b\\c\/d\b\f\n\r\tA\ud800e""#).unwrap();
        assert_eq!(
            doc.as_str(),
            Some("a\"b\\c/d\u{8}\u{c}\n\r\tA\u{fffd}e"),
            "every escape plus the unpaired-surrogate fallback"
        );
        assert!(parse_json(r#""bad \x escape""#).is_err());
        assert!(parse_json(r#""truncated \u00"#).is_err());
        assert!(parse_json(r#""truncated \uZZZZ""#).is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn exponent_and_negative_numbers() {
        for (text, want) in [
            ("-0.5", -0.5),
            ("1e3", 1000.0),
            ("1E3", 1000.0),
            ("2.5e-2", 0.025),
            ("-1.25E+2", -125.0),
            ("0", 0.0),
        ] {
            assert_eq!(parse_json(text).unwrap().as_f64(), Some(want), "{text}");
        }
        for bad in ["1e", "--1", "1.2.3", "+-3", "1e999", "NaN", "Infinity"] {
            assert!(parse_json(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn nesting_depth_is_limited() {
        // MAX_DEPTH levels parse…
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&ok).is_ok());
        // …one more errors out instead of blowing the stack; same for
        // objects, whose keys and values both recurse.
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&deep).unwrap_err().contains("nesting"));
        let objs = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&objs).unwrap_err().contains("nesting"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_json("[1, 2] tail").is_err());
        assert!(parse_json("{} {}").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("[1, 2] \n\t ").is_ok(), "whitespace is fine");
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn integer_literals_keep_every_u64_exactly() {
        for v in [1 << 53, (1 << 53) + 1, u64::MAX] {
            let doc = parse_json(&v.to_string()).unwrap();
            assert_eq!(doc.as_u64(), Some(v), "{v}");
            let mut out = String::new();
            write_json(&doc, &mut out);
            assert_eq!(out, v.to_string());
        }
        for bad in ["18446744073709551616", "1.5", "-1", "9007199254740993.0"] {
            let doc = parse_json(bad).unwrap();
            assert_eq!(doc.as_u64(), None, "{bad}");
        }
        // Other number forms still read as integers where `f64` is exact.
        assert_eq!(parse_json("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse_json("5.0").unwrap().as_u64(), Some(5));
        assert_eq!(parse_json("0").unwrap(), Json::Int(0));
    }

    #[test]
    fn typed_accessors() {
        let doc = parse_json(r#"{"i": 3, "f": 3.5, "s": "x", "a": [1], "big": 1e20}"#).unwrap();
        assert_eq!(doc.get("i").unwrap().as_usize(), Some(3));
        assert_eq!(doc.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("f").unwrap().as_usize(), None);
        assert_eq!(doc.get("big").unwrap().as_u64(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("a").unwrap().as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(doc.get("missing"), None);
    }
}
