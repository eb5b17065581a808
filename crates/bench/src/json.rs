//! A minimal JSON value: enough to write and read the repo's golden
//! fixtures and benchmark reports without a serde dependency (the
//! container builds offline with vendored shims only).
//!
//! Objects preserve insertion order, so serializing a value the
//! harness just built is deterministic — the property the golden
//! files and the `BENCH_*.json` reports rely on for stable diffs.
//! Numbers are stored as `f64` and rendered with Rust's shortest
//! round-trip formatting; the quantities recorded here (fractions,
//! ratios, cycle counts at bench scale, milliseconds) are all well
//! inside the 2^53 exact-integer range.

use std::fmt;

/// A parsed or under-construction JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects: builder
    /// misuse, not data-dependent).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn fields(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value on a single line with no inter-token
    /// whitespace — the form the append-only sweep journal needs,
    /// where one record is one line and a torn tail is detected by
    /// the missing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.push_compact(&mut out);
        out
    }

    fn push_compact(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                let _ = escape(s, out);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.push_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = escape(k, out);
                    out.push(':');
                    v.push_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u{hex} escape"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn escape<W: fmt::Write>(s: &str, f: &mut W) -> fmt::Result {
    write!(f, "\"")?;
    for ch in s.chars() {
        match ch {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            '\r' => write!(f, "\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    write!(f, "{:width$}", "", width = depth * 2)
}

fn render(v: &Json, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    match v {
        Json::Null => write!(f, "null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(n) => {
            if n.is_finite() {
                write!(f, "{n}")
            } else {
                // JSON has no Inf/NaN; null round-trips losslessly
                // enough for a report field that went off the rails.
                write!(f, "null")
            }
        }
        Json::Str(s) => escape(s, f),
        Json::Arr(items) if items.is_empty() => write!(f, "[]"),
        Json::Arr(items) => {
            writeln!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                indent(f, depth + 1)?;
                render(item, f, depth + 1)?;
                writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
            }
            indent(f, depth)?;
            write!(f, "]")
        }
        Json::Obj(fields) if fields.is_empty() => write!(f, "{{}}"),
        Json::Obj(fields) => {
            writeln!(f, "{{")?;
            for (i, (k, val)) in fields.iter().enumerate() {
                indent(f, depth + 1)?;
                escape(k, f)?;
                write!(f, ": ")?;
                render(val, f, depth + 1)?;
                writeln!(f, "{}", if i + 1 < fields.len() { "," } else { "" })?;
            }
            indent(f, depth)?;
            write!(f, "}}")
        }
    }
}

impl fmt::Display for Json {
    /// Pretty-prints with two-space indentation and a stable field
    /// order (insertion order), so goldens diff cleanly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let mut obj = Json::obj();
        obj.set("name", Json::Str("fig5 \"quoted\"\n".into()));
        obj.set("n", Json::Num(42.0));
        obj.set("frac", Json::Num(0.125));
        obj.set("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = obj.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
        // Serialization is deterministic.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn compact_is_single_line_and_roundtrips() {
        let mut obj = Json::obj();
        obj.set("name", Json::Str("a \"b\"\n".into()));
        obj.set("xs", Json::Arr(vec![Json::Num(1.0), Json::Bool(false), Json::Null]));
        obj.set("inner", {
            let mut inner = Json::obj();
            inner.set("k", Json::Num(2.5));
            inner
        });
        let line = obj.compact();
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(
            line,
            "{\"name\":\"a \\\"b\\\"\\n\",\"xs\":[1,false,null],\"inner\":{\"k\":2.5}}"
        );
        assert_eq!(Json::parse(&line).unwrap(), obj);
    }

    #[test]
    fn parses_plain_json_with_whitespace() {
        let v = Json::parse(" {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"\\u0041\"}} ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"x\": 7}").unwrap();
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("y"), None);
        assert!(v.fields().is_some());
        assert_eq!(Json::Num(1.0).fields(), None);
    }
}
