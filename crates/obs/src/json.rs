//! Minimal JSON support for the run journal: an append-only object
//! writer and a small recursive-descent parser with a fixed nesting bound
//! (used by checkpoints, the serve daemon's request frames, tests and the
//! CI journal validator — the build environment has no serde).

use std::fmt::Write as _;

/// Incremental `{...}` builder. Field order is insertion order; values go
/// in pre-encoded via the typed `field_*` methods.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a float field. Non-finite values (which JSON cannot represent)
    /// are encoded as `null`.
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Add a pre-encoded JSON value (nested object/array) verbatim.
    pub fn field_raw(&mut self, name: &str, encoded: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(encoded);
        self
    }

    /// Close the object and return the encoded text.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Encode a `[..]` of floats (non-finite → `null`).
pub fn array_f64(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| if v.is_finite() { v.to_string() } else { "null".to_string() })
        .collect();
    format!("[{}]", items.join(","))
}

/// Encode a `[..]` of unsigned integers.
pub fn array_u64(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats on the writer side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl std::fmt::Display for JsonValue {
    /// Re-serialize: compact JSON that [`parse`] round-trips. Integral
    /// numbers print without a fractional part; non-finite numbers (which
    /// JSON cannot represent) print as `null`, matching the writer side.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if !n.is_finite() => f.write_str("null"),
            JsonValue::Num(n) => write!(f, "{n}"),
            JsonValue::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    write!(f, "{buf}:{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a small hostile document (a 100 KB
/// run of `[`) would overflow the thread's stack and abort the process.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Errors carry the byte offset of the problem;
/// nesting deeper than 128 levels is an error too.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, pos))
    }
}

/// Parse the value at `pos`, nested `depth` containers deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(JsonValue::Num).map_err(|e| format!("bad number at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so they never split a multi-byte scalar,
                // and each byte is validated once, which keeps a long
                // string (an upload carries a whole CSV) linear to parse.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text = std::str::from_utf8(&bytes[*pos..*pos + run]);
                out.push_str(text.map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_parseable_output() {
        let mut inner = JsonObject::new();
        inner.field_u64("count", 3);
        let mut obj = JsonObject::new();
        obj.field_str("type", "iteration")
            .field_u64("n", 42)
            .field_f64("f1", 0.875)
            .field_f64("nan", f64::NAN)
            .field_raw("nested", &inner.finish())
            .field_raw("xs", &array_f64(&[1.0, 2.5]));
        let text = obj.finish();
        let value = parse(&text).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("iteration"));
        assert_eq!(value.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(value.get("f1").unwrap().as_f64(), Some(0.875));
        assert_eq!(value.get("nan"), Some(&JsonValue::Null));
        assert_eq!(value.get("nested").unwrap().get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            value.get("xs"),
            Some(&JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.5)]))
        );
    }

    #[test]
    fn escaping_round_trips() {
        let mut obj = JsonObject::new();
        obj.field_str("text", "a\"b\\c\nd\te\u{1}");
        let parsed = parse(&obj.finish()).unwrap();
        assert_eq!(parsed.get("text").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn parses_standard_documents() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-2.5),
                JsonValue::Num(1000.0)
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse(" 3.5 ").unwrap(), JsonValue::Num(3.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{} extra", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        // At the bound both container kinds still parse...
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        // ...one level deeper is an error, not a deeper recursion.
        assert!(parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        // 100,000 levels on a thread with the default 2 MiB stack: an
        // unbounded parser aborts the whole process here.
        let hostile = std::thread::spawn(|| {
            let arrays = parse(&"[".repeat(100_000)).unwrap_err();
            let objects = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
            (arrays, objects)
        });
        let (arrays, objects) = hostile.join().expect("parse must not overflow the stack");
        assert!(arrays.contains("nesting"), "{arrays}");
        assert!(objects.contains("nesting"), "{objects}");
    }

    #[test]
    fn display_round_trips() {
        for text in [
            r#"{"a":[1,-2.5,"x\ny"],"b":{"c":true,"d":null},"e":7}"#,
            r#"[{"nested":[[],{}]},false]"#,
        ] {
            let value = parse(text).unwrap();
            assert_eq!(parse(&value.to_string()).unwrap(), value, "{text}");
        }
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(3.0).to_string(), "3");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MiB string value, like a CSV in an upload frame. Validating
        // the rest of the document once per character takes minutes here;
        // one pass takes milliseconds.
        let long = "héllo, \"wörld\"\n".repeat(1 << 16);
        let mut obj = JsonObject::new();
        obj.field_str("csv", &long);
        let doc = obj.finish();
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert!(started.elapsed().as_secs_f64() < 2.0, "took {:?}", started.elapsed());
        assert_eq!(parsed.get("csv").unwrap().as_str(), Some(long.as_str()));
    }

    #[test]
    fn unicode_passthrough() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "héllo → 世界");
        let parsed = parse(&obj.finish()).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str(), Some("héllo → 世界"));
        assert_eq!(parse(r#""A""#).unwrap(), JsonValue::Str("A".into()));
    }
}
