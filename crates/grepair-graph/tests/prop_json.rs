//! Differential tests of the `GraphDoc` JSON codec against the serde
//! derive path on the same types, which serves as the oracle:
//!
//! - `to_json(doc)` equals `serde_json::to_string_pretty(&doc)` byte for
//!   byte;
//! - `from_json(t)` and `serde_json::from_str::<GraphDoc>(t)` agree on
//!   Ok/Err, and on the document when both are Ok — for pretty and
//!   compact text, for rewrites that reorder keys, insert unknown nested
//!   keys, repeat keys, spell strings with `\u` escapes and scatter
//!   whitespace, for every prefix of a small doc, and for hand-picked
//!   hostile inputs.

use grepair_graph::{EdgeDoc, GraphDoc, NodeDoc, Value};
use proptest::prelude::*;
use proptest::TestRunner;
use serde::{Content, Serialize};
use std::collections::BTreeMap;

/// String pieces covering every escape class: quotes, backslashes,
/// named and `\u00XX` control characters, DEL, multi-byte and non-BMP
/// characters, and the empty string.
const PIECES: &[&str] = &[
    "", "a", "Person", "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{0}", "\u{1}", "\u{1f}",
    "\u{7f}", "/", "é", "😀", "\u{ffff}", " x y ",
];

const FLOATS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e300,
    5e-324,
    2.0,
    -3.0,
    0.5,
    1e-7,
    123456789.0,
    9007199254740993.0,
];

fn text(r: &mut TestRunner) -> String {
    let n = r.index(4);
    (0..n).map(|_| PIECES[r.index(PIECES.len())]).collect()
}

fn value(r: &mut TestRunner) -> Value {
    match r.index(8) {
        0 => Value::Str(text(r)),
        1 => Value::Int([i64::MIN, i64::MAX, 0, -1][r.index(4)]),
        2 => Value::Int(r.next_u64() as i64),
        3 => Value::Float(FLOATS[r.index(FLOATS.len())]),
        4 => Value::Float(f64::from_bits(r.next_u64())),
        5 => Value::Bool(r.chance(0.5)),
        6 => Value::Int(r.index(100) as i64),
        _ => Value::Str(PIECES[r.index(PIECES.len())].to_owned()),
    }
}

/// Random small docs; handles are mostly small, sometimes near `u32::MAX`.
struct Docs;

impl Strategy for Docs {
    type Value = GraphDoc;

    fn generate(&self, r: &mut TestRunner) -> GraphDoc {
        let handle = |r: &mut TestRunner| {
            if r.chance(0.1) {
                u32::MAX - r.index(2) as u32
            } else {
                r.index(8) as u32
            }
        };
        let nodes = (0..r.index(6))
            .map(|_| NodeDoc {
                id: handle(r),
                label: text(r),
                attrs: (0..r.index(4)).map(|_| (text(r), value(r))).collect(),
            })
            .collect();
        let edges = (0..r.index(6))
            .map(|_| EdgeDoc {
                src: handle(r),
                dst: handle(r),
                label: text(r),
            })
            .collect();
        GraphDoc { nodes, edges }
    }
}

/// SplitMix64, driving the text rewrites from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Emit `c` as JSON with randomized key order, whitespace, unknown keys,
/// repeated keys and string spelling.
fn emit(c: &Content, m: &mut Mix, out: &mut String) {
    ws(m, out);
    match c {
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    ws(m, out);
                    out.push(',');
                }
                emit(item, m, out);
                ws(m, out);
            }
            ws(m, out);
            out.push(']');
        }
        Content::Map(pairs) => {
            let mut pairs: Vec<(String, Content)> = pairs.clone();
            if m.chance(2) {
                for i in (1..pairs.len()).rev() {
                    let j = m.below(i + 1);
                    pairs.swap(i, j);
                }
            }
            if m.chance(3) {
                let at = m.below(pairs.len() + 1);
                pairs.insert(at, (format!("x{}", m.below(3)), junk(m, 3)));
            }
            if !pairs.is_empty() && m.chance(4) {
                // Repeat a key, before or after its first spelling, with
                // the same value or with junk.
                let (k, v) = pairs[m.below(pairs.len())].clone();
                let v = if m.chance(2) { v } else { junk(m, 2) };
                let at = m.below(pairs.len() + 1);
                pairs.insert(at, (k, v));
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    ws(m, out);
                    out.push(',');
                }
                ws(m, out);
                string(k, m, out);
                ws(m, out);
                out.push(':');
                emit(v, m, out);
                ws(m, out);
            }
            ws(m, out);
            out.push('}');
        }
        Content::Str(s) => string(s, m, out),
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => out.push_str(&serde_json::to_string(v).unwrap()),
    }
}

fn ws(m: &mut Mix, out: &mut String) {
    if m.chance(3) {
        for _ in 0..m.below(3) {
            out.push([' ', '\n', '\t', '\r'][m.below(4)]);
        }
    }
}

/// A JSON string, sometimes spelled entirely with `\u` escapes
/// (surrogate pairs beyond the BMP, mixed-case hex).
fn string(s: &str, m: &mut Mix, out: &mut String) {
    if !m.chance(4) {
        out.push_str(&serde_json::to_string(s).unwrap());
        return;
    }
    out.push('"');
    let upper = m.chance(2);
    let mut units = [0u16; 2];
    for ch in s.chars() {
        for u in ch.encode_utf16(&mut units) {
            let hex = format!("{u:04x}");
            out.push_str("\\u");
            out.push_str(&if upper { hex.to_uppercase() } else { hex });
        }
    }
    out.push('"');
}

/// A random JSON value at most `depth` containers deep.
fn junk(m: &mut Mix, depth: usize) -> Content {
    match m.below(if depth == 0 { 6 } else { 8 }) {
        0 => Content::Null,
        1 => Content::Bool(m.chance(2)),
        2 => Content::I64(m.next() as i64),
        3 => Content::F64(f64::from_bits(m.next() >> 2)),
        4 => Content::Str(PIECES[m.below(PIECES.len())].to_owned()),
        5 => Content::U64(u64::MAX - m.below(3) as u64),
        6 => Content::Seq((0..m.below(3)).map(|_| junk(m, depth - 1)).collect()),
        _ => Content::Map(
            (0..m.below(3))
                .map(|i| (format!("k{i}"), junk(m, depth - 1)))
                .collect(),
        ),
    }
}

/// Both readers agree on `text`; returns whether it parsed.
fn agree(text: &str) -> Result<bool, TestCaseError> {
    let ours = GraphDoc::from_json(text);
    let oracle = serde_json::from_str::<GraphDoc>(text);
    match (&ours, &oracle) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a, b, "documents differ for {:?}", text);
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        _ => Err(TestCaseError::fail(format!(
            "readers disagree on {text:?}: ours {ours:?}, oracle {oracle:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_serde_pretty_output(doc in Docs) {
        prop_assert_eq!(doc.to_json(), serde_json::to_string_pretty(&doc).unwrap());
    }

    #[test]
    fn reader_matches_serde_on_pretty_and_compact_text(doc in Docs) {
        for text in [doc.to_json(), serde_json::to_string(&doc).unwrap()] {
            prop_assert!(agree(&text)?, "a written doc must parse: {:?}", text);
        }
    }

    #[test]
    fn reader_matches_serde_on_rewritten_text(doc in Docs, seed in any::<u64>()) {
        let tree = doc.to_content();
        let mut m = Mix(seed);
        for _ in 0..8 {
            let mut text = String::new();
            emit(&tree, &mut m, &mut text);
            ws(&mut m, &mut text);
            agree(&text)?;
        }
    }
}

#[test]
fn rewrites_reach_both_verdicts() {
    // The rewrite test is only differential if its inputs both parse and
    // fail: count each over a fixed set of seeds.
    let (mut ok, mut err) = (0, 0);
    for seed in 0..400u64 {
        let doc = Docs.generate(&mut TestRunner::new("verdicts", seed as u32));
        let mut m = Mix(seed);
        let mut text = String::new();
        emit(&doc.to_content(), &mut m, &mut text);
        match agree(&text) {
            Ok(true) => ok += 1,
            Ok(false) => err += 1,
            Err(e) => panic!("{e:?}"),
        }
    }
    assert!(ok > 40 && err > 40, "ok {ok}, err {err}");
}

#[test]
fn every_prefix_of_a_small_doc_agrees() {
    let mut attrs = BTreeMap::new();
    attrs.insert("name".to_owned(), Value::from("Ann \"Q\" \\ é😀\u{1}"));
    attrs.insert("age".to_owned(), Value::Int(-34));
    attrs.insert("score".to_owned(), Value::Float(0.5));
    attrs.insert("nan".to_owned(), Value::Float(f64::NAN));
    attrs.insert("on".to_owned(), Value::Bool(true));
    let doc = GraphDoc {
        nodes: vec![
            NodeDoc {
                id: 0,
                label: "Person".into(),
                attrs,
            },
            NodeDoc {
                id: 17,
                label: "City".into(),
                attrs: BTreeMap::new(),
            },
        ],
        edges: vec![EdgeDoc {
            src: 0,
            dst: 17,
            label: "livesIn".into(),
        }],
    };
    let escaped = r#"{"nodes":[{"id":1,"label":"é😀\n"}],"edges":[],"x":[1e5,{"y":null}]}"#;
    for text in [
        doc.to_json(),
        serde_json::to_string(&doc).unwrap(),
        escaped.to_owned(),
    ] {
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let parsed = agree(&text[..cut]).unwrap_or_else(|e| panic!("{e:?}"));
            // Only a cut inside the trailing whitespace could parse, and
            // these texts have none.
            assert!(!parsed, "prefix {cut} of {text:?} parsed");
        }
        assert!(agree(&text).unwrap());
    }
}

#[test]
fn hand_picked_inputs_agree() {
    let node = |field: &str| format!(r#"{{"nodes":[{{"id":0,"label":"P"{field}}}],"edges":[]}}"#);
    let attr = |v: &str| node(&format!(r#","attrs":{{"a":{v}}}"#));
    let under_key = |depth: usize| {
        format!(
            r#"{{"x":{}{},"nodes":[],"edges":[]}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    let under_node = |depth: usize| {
        node(&format!(
            r#","x":{}{}"#,
            "{\"k\":".repeat(depth),
            "0".to_owned() + &"}".repeat(depth)
        ))
    };
    let id = |v: &str| format!(r#"{{"nodes":[{{"id":{v},"label":"P"}}],"edges":[]}}"#);
    let mut cases: Vec<(String, bool)> = vec![
        (id("1.0"), false),
        (id("-1"), false),
        (id("4294967296"), false),
        (id("4294967295"), true),
        (id("\"0\""), false),
        (id("0 0"), false),
        (r#"{"nodes":[{"label":"P"}],"edges":[]}"#.into(), false),
        (
            r#"{"nodes":[],"edges":[{"src":0,"label":"r"}]}"#.into(),
            false,
        ),
        (r#"{"nodes":[]}"#.into(), false),
        (r#"{"edges":[]}"#.into(), false),
        (attr("null"), true),
        (attr("18446744073709551615"), true),
        (attr("9223372036854775808"), true),
        (attr("-9223372036854775809"), true),
        (attr("1e400"), true),
        (attr("-.5"), true),
        (attr("01"), true),
        (attr("1."), true),
        (attr("1e"), false),
        (attr("-"), false),
        (attr("1+2"), false),
        (attr("[1]"), false),
        (attr("{}"), false),
        (attr("nul"), false),
        (attr("truex"), false),
        (node(r#","attrs":null"#), false),
        (node(r#","attrs":{"a":1,"a":"two"}"#), true),
        (node(r#","attrs":{"a":1,"a":[1]}"#), false),
        (node(r#","label":7"#), true),
        (node(r#","label":[1,"#), false),
        (node(r#","attrs":{},"attrs":5"#), true),
        (node(r#","attrs":{"k":true}"#), true),
        (node(r#","x":"\ud800""#), false),
        (node(r#","x":"\ud800A""#), false),
        (node(r#","x":"\udc00""#), false),
        (node(r#","x":"\u+041""#), false),
        (node(r#","x":"\q""#), false),
        (id(r#"0,"label":"\u+041""#), false),
        (r#"{"nodes":[],"edges":[],}"#.into(), false),
        (r#"{"nodes":[,],"edges":[]}"#.into(), false),
        (r#"{"nodes":[],"edges":[]} x"#.into(), false),
        (r#"{"nodes":[],"edges":[]}{}"#.into(), false),
        (" \n{\"nodes\" : [ ] ,\t\"edges\":[]}\r\n".into(), true),
        ("{\"nodes\":[],\"edges\":[]}\u{feff}".into(), false),
        ("[]".into(), false),
        ("".into(), false),
        ("[".repeat(200_000), false),
    ];
    for depth in 125..=129 {
        cases.push((under_key(depth), depth <= 127));
        cases.push((under_node(depth), depth <= 125));
    }
    for (text, parses) in &cases {
        match agree(text) {
            Ok(p) => assert_eq!(p, *parses, "{text:.120}"),
            Err(e) => panic!("{e:?}"),
        }
    }
}
