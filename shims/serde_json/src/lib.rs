//! In-tree shim of `serde_json`: converts the serde shim's [`Content`]
//! tree to and from JSON text. Formatting matches real `serde_json`
//! where the workspace can observe it: floats always carry a decimal
//! point or exponent (so `Float(2.0)` round-trips as a float, not an
//! integer), non-finite floats serialize as `null`, and pretty output
//! uses two-space indentation.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// This crate's result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

/// Serialize to pretty (2-space indented) JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), Some("  "), 0);
    Ok(out)
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let content = parse(s)?;
    Ok(T::from_content(&content)?)
}

// ---- writer -------------------------------------------------------------

fn write_content(out: &mut String, c: &Content, indent: Option<&str>, depth: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => write_f64(out, *v),
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_content(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Content::Map(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Infinity; match serde_json's `null`.
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    // `{}` prints integral floats without a decimal point; add one so the
    // value parses back as a float.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser -------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so an
/// unbounded depth would let a hostile input overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

fn parse(s: &str) -> Result<Content> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                other as char, self.pos
            ))),
        }
    }

    /// Parse one array or object with `parse`, one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Content> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Content> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(pairs));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let slice = self
                        .bytes
                        .get(start..self.pos)
                        .ok_or_else(|| Error::new("truncated utf-8"))?;
                    out.push_str(
                        std::str::from_utf8(slice).map_err(|e| Error::new(e.to_string()))?,
                    );
                }
            }
        }
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` would also
    /// take a leading `+`).
    fn hex4(&mut self) -> Result<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut v = 0;
        for &d in slice {
            let h = char::from(d)
                .to_digit(16)
                .ok_or_else(|| Error::new("\\u escape needs four hex digits"))?;
            v = v * 16 + h;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::new(e.to_string()))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Content::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Content::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b\n".to_string()).unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1i64, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<i64>>(&s).unwrap(), v);
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), vec![true, false]);
        let s = to_string(&m).unwrap();
        assert_eq!(s, r#"{"k":[true,false]}"#);
        assert_eq!(
            from_str::<std::collections::BTreeMap<String, Vec<bool>>>(&s).unwrap(),
            m
        );
    }

    #[test]
    fn pretty_output_is_indented() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1i64);
        let s = to_string_pretty(&m).unwrap();
        assert_eq!(s, "{\n  \"a\": 1\n}");
    }

    #[test]
    fn integral_float_keeps_decimal_point() {
        // Without the `.0` the value would come back as an integer and
        // break untagged enums distinguishing Int from Float.
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(to_string(&-0.5f64).unwrap(), "-0.5");
        // Huge magnitudes print as digit strings; they must still parse
        // back as floats (the integer parse overflows first).
        assert_eq!(from_str::<f64>(&to_string(&1e300f64).unwrap()).unwrap(), 1e300);
    }

    #[test]
    fn unicode_and_escapes_parse() {
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
        assert_eq!(from_str::<String>(r#""héllo""#).unwrap(), "héllo");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041\u00e9""#).unwrap(), "Aé");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            let err = from_str::<String>(bad).unwrap_err();
            assert!(err.to_string().contains("escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<i64>("42x").is_err());
        assert!(from_str::<Vec<i64>>("[1,").is_err());
        assert!(from_str::<bool>("tru").is_err());
    }

    #[test]
    fn nesting_depth_is_limited() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Objects count toward the same limit.
        let obj = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj).is_err());
        // A hostile depth fails fast instead of overflowing the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(
            from_str::<Vec<i64>>(" [ 1 , 2 ,\n\t3 ] ").unwrap(),
            vec![1, 2, 3]
        );
    }
}
