//! JSON codec for [`GraphDoc`], written for its one shape.
//!
//! The reader makes one pass over the input bytes and builds
//! [`NodeDoc`]/[`EdgeDoc`] values directly: keys are compared as slices
//! of the input, runs of unescaped string bytes are copied in bulk, and no
//! intermediate value tree is built. The writer streams into one
//! pre-sized `String`.
//!
//! Both sides match the serde derive path on these types byte for byte
//! and document for document (`tests/prop_json.rs` checks it):
//!
//! - **Output:** two-space pretty printing, struct fields in declaration
//!   order, `attrs` omitted when empty, floats printed with `{}` plus
//!   `.0` when the text has no `.`/`e`/`E`, non-finite floats as `null`,
//!   and `\"`, `\\`, `\n`, `\r`, `\t`, `\b`, `\f` or `\u00XX` for the
//!   other control characters.
//! - **Input:** any key order and whitespace; unknown keys at any level
//!   are skipped but still syntax-checked; a repeated struct field keeps
//!   its first value and a repeated attr key its last; `attrs` may be
//!   missing; `id`/`src`/`dst` must be integers in `u32` range. An attr
//!   value is `Str` for a string, `Int` for an integer in `i64` range,
//!   `Float` for any other number, `Float(NaN)` for `null` and `Bool` for
//!   a bool; arrays and objects are errors. A `\u` escape takes exactly
//!   four hex digits. Trailing bytes are an error, as is nesting deeper
//!   than [`MAX_DEPTH`] (the top-level object is depth 1).

use crate::error::{GraphError, Result};
use crate::io::{EdgeDoc, GraphDoc, NodeDoc};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting accepted, counting the top-level object
/// as depth 1 (serde_json's default recursion limit).
const MAX_DEPTH: usize = 128;

/// Parse a [`GraphDoc`] from JSON text.
pub(crate) fn read(s: &str) -> Result<GraphDoc> {
    let mut r = Reader {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    let doc = r.doc()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing characters"));
    }
    Ok(doc)
}

/// Serialize a [`GraphDoc`] to pretty JSON.
pub(crate) fn write(doc: &GraphDoc) -> String {
    let mut out = String::with_capacity(size_hint(doc));
    out.push_str("{\n  \"nodes\": ");
    if doc.nodes.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, n) in doc.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"id\": ");
            push_u64(&mut out, n.id.into());
            out.push_str(",\n      \"label\": ");
            push_escaped(&mut out, &n.label);
            if !n.attrs.is_empty() {
                out.push_str(",\n      \"attrs\": {");
                for (j, (k, v)) in n.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("\n        ");
                    push_escaped(&mut out, k);
                    out.push_str(": ");
                    push_value(&mut out, v);
                }
                out.push_str("\n      }");
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  ]");
    }
    out.push_str(",\n  \"edges\": ");
    if doc.edges.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, e) in doc.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"src\": ");
            push_u64(&mut out, e.src.into());
            out.push_str(",\n      \"dst\": ");
            push_u64(&mut out, e.dst.into());
            out.push_str(",\n      \"label\": ");
            push_escaped(&mut out, &e.label);
            out.push_str("\n    }");
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}");
    out
}

// ---- writer -------------------------------------------------------------

/// Close upper estimate of the output length, so `write` fills one
/// allocation (strings needing escapes can still outgrow it).
fn size_hint(doc: &GraphDoc) -> usize {
    let attr = |(k, v): (&String, &Value)| {
        16 + k.len()
            + match v {
                Value::Str(s) => s.len() + 2,
                _ => 24,
            }
    };
    let nodes: usize = doc
        .nodes
        .iter()
        .map(|n| 84 + n.label.len() + n.attrs.iter().map(attr).sum::<usize>())
        .sum();
    let edges: usize = doc.edges.iter().map(|e| 84 + e.label.len()).sum();
    32 + nodes + edges
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => push_escaped(out, s),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_u64(out, i.unsigned_abs());
        }
        Value::Float(f) if !f.is_finite() => out.push_str("null"),
        Value::Float(f) => {
            let start = out.len();
            write!(out, "{f}").expect("writing to a String cannot fail");
            // `{}` prints integral floats without a decimal point; add one
            // so the value reads back as a float.
            if !out.as_bytes()[start..]
                .iter()
                .any(|b| matches!(b, b'.' | b'e' | b'E'))
            {
                out.push_str(".0");
            }
        }
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
    }
}

/// Write `s` as a JSON string. Every byte that needs an escape is ASCII,
/// so the unescaped runs between them are sliced on char boundaries.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)].into());
            out.push(HEX[usize::from(b & 0xf)].into());
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---- reader -------------------------------------------------------------

/// A number as the input spells it: integers stay exact while they fit.
enum Num {
    Int(i64),
    UInt(u64),
    Float(f64),
}

struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &str) -> GraphError {
        GraphError::Parse(format!("{msg} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(kw.as_bytes());
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    /// `{"nodes": [...], "edges": [...]}`.
    fn doc(&mut self) -> Result<GraphDoc> {
        let (mut nodes, mut edges) = (None, None);
        self.object(|r, key| {
            match key {
                "nodes" if nodes.is_none() => nodes = Some(r.list(Self::node)?),
                "edges" if edges.is_none() => edges = Some(r.list(Self::edge)?),
                _ => r.skip_value(1)?,
            }
            Ok(())
        })?;
        Ok(GraphDoc {
            nodes: nodes.ok_or_else(|| missing("nodes"))?,
            edges: edges.ok_or_else(|| missing("edges"))?,
        })
    }

    /// A `nodes` or `edges` array (depth 2) of objects (depth 3).
    fn list<T>(&mut self, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = Vec::new();
        self.seq(|r| {
            items.push(item(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    fn node(&mut self) -> Result<NodeDoc> {
        let (mut id, mut label, mut attrs) = (None, None, None);
        self.object(|r, key| {
            match key {
                "id" if id.is_none() => id = Some(r.handle()?),
                "label" if label.is_none() => label = Some(r.string()?.into_owned()),
                "attrs" if attrs.is_none() => attrs = Some(r.attrs()?),
                _ => r.skip_value(3)?,
            }
            Ok(())
        })?;
        Ok(NodeDoc {
            id: id.ok_or_else(|| missing("id"))?,
            label: label.ok_or_else(|| missing("label"))?,
            attrs: attrs.unwrap_or_default(),
        })
    }

    fn edge(&mut self) -> Result<EdgeDoc> {
        let (mut src, mut dst, mut label) = (None, None, None);
        self.object(|r, key| {
            match key {
                "src" if src.is_none() => src = Some(r.handle()?),
                "dst" if dst.is_none() => dst = Some(r.handle()?),
                "label" if label.is_none() => label = Some(r.string()?.into_owned()),
                _ => r.skip_value(3)?,
            }
            Ok(())
        })?;
        Ok(EdgeDoc {
            src: src.ok_or_else(|| missing("src"))?,
            dst: dst.ok_or_else(|| missing("dst"))?,
            label: label.ok_or_else(|| missing("label"))?,
        })
    }

    /// A node's `attrs` object; a repeated key keeps its last value.
    fn attrs(&mut self) -> Result<BTreeMap<String, Value>> {
        let mut attrs = BTreeMap::new();
        self.object(|r, key| {
            let v = r.attr_value()?;
            attrs.insert(key.to_owned(), v);
            Ok(())
        })?;
        Ok(attrs)
    }

    fn attr_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Num::Int(i) => Value::Int(i),
                Num::UInt(u) => Value::Float(u as f64),
                Num::Float(f) => Value::Float(f),
            }),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Float(f64::NAN)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            _ => Err(self.err("expected a string, number, bool or null attr value")),
        }
    }

    /// A doc-local node handle: an integer in `u32` range.
    fn handle(&mut self) -> Result<u32> {
        self.skip_ws();
        if let Some(b'-' | b'0'..=b'9') = self.peek() {
            let h = match self.number()? {
                Num::Int(i) => u32::try_from(i).ok(),
                Num::UInt(u) => u32::try_from(u).ok(),
                Num::Float(_) => None,
            };
            if let Some(h) = h {
                return Ok(h);
            }
        }
        Err(self.err("expected an integer node handle in u32 range"))
    }

    /// Scan a number the way the serde_json shim does: an optional `-`,
    /// then any run of digits, `.`, `e`, `E`, `+` and `-`, parsed as an
    /// integer when it has only digits and fits, else as a float.
    fn number(&mut self) -> Result<Num> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Num::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Num::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Num::Float)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    /// A JSON string. Borrowed from the input unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let Some(off) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += off;
            // `"` and `\` are ASCII, so both ends of the run are char
            // boundaries.
            let chunk = &self.src[run..self.pos];
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            let ch = self.escape()?;
            s.push(ch);
            run = self.pos;
        }
    }

    /// The character of an escape whose `\` was just consumed.
    fn escape(&mut self) -> Result<char> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat_keyword("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    /// Exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let h = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
            v = v * 16 + h;
        }
        self.pos += 4;
        Ok(v)
    }

    /// `[v, ...]`, calling `item` positioned at each element.
    fn seq(&mut self, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// `{"k": v, ...}`, calling `field` with each key, positioned at its
    /// value.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Result<()>) -> Result<()> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Syntax-check and drop one value inside a container at depth
    /// `parent`.
    fn skip_value(&mut self, parent: usize) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'n') if self.eat_keyword("null") => Ok(()),
            Some(b't') if self.eat_keyword("true") => Ok(()),
            Some(b'f') if self.eat_keyword("false") => Ok(()),
            Some(b'[' | b'{') if parent == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.seq(|r| r.skip_value(parent + 1)),
            Some(b'{') => self.object(|r, _| r.skip_value(parent + 1)),
            None => Err(self.err("unexpected end of input")),
            Some(_) => Err(self.err("unexpected character")),
        }
    }
}

fn missing(field: &str) -> GraphError {
    GraphError::Parse(format!("missing field `{field}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_escapes_need_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#] {
            let text = format!(r#"{{"nodes":[{{"id":0,"label":{bad}}}],"edges":[]}}"#);
            let err = read(&text).unwrap_err();
            assert!(err.to_string().contains("escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn depth_counts_the_top_level_object() {
        let under_key = |depth: usize| {
            format!(
                r#"{{"x":{}{},"nodes":[],"edges":[]}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert!(read(&under_key(MAX_DEPTH - 1)).is_ok());
        let err = read(&under_key(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }
}
