//! Exit codes of the `grepair` binary on hostile or mistyped input,
//! checked as a subprocess so a crash shows up as a signal, not a panic
//! caught by the test harness.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grepair-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary and return (exit code, stderr). A signal death fails
/// the test with the signal in the message.
fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(args)
        .output()
        .expect("spawn grepair");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    match out.status.code() {
        Some(code) => (code, stderr),
        None => panic!(
            "grepair {args:?} died by signal: {:?}\n{stderr}",
            out.status
        ),
    }
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn unknown_flags_are_usage_errors() {
    let dir = tmpdir("flags");
    let rules = dir.join("gold.grr");
    let graph = dir.join("g.json");
    let out = dir.join("out.json");
    std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
    let (code, _) = run(&["gen", "kg", "--persons", "20", "-o", path(&graph)]);
    assert_eq!(code, 0);

    // The retired CSR-snapshot switch must not swallow `-o` as its value.
    let retired = format!("--{}", "frozen");
    let (code, err) = run(&[
        "repair",
        "-r",
        path(&rules),
        "-g",
        path(&graph),
        &retired,
        "-o",
        path(&out),
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains(&retired), "{err}");
    assert!(!out.exists(), "a rejected command must not write output");

    let (code, err) = run(&[
        "check",
        "-r",
        path(&rules),
        "-g",
        path(&graph),
        "--tiemout",
        "5",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--tiemout"), "{err}");

    // The same command without the bad flag succeeds.
    let (code, err) = run(&[
        "check",
        "-r",
        path(&rules),
        "-g",
        path(&graph),
        "--timeout",
        "5",
    ]);
    assert_eq!(code, 0, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_json_is_a_parse_error_not_a_crash() {
    let dir = tmpdir("nested");
    let nested = "[".repeat(200_000);
    let rules = dir.join("gold.grr");
    let deep_graph = dir.join("deep.json");
    let deep_rules = dir.join("deep-rules.json");
    let graph = dir.join("g.json");
    std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
    std::fs::write(&deep_graph, &nested).unwrap();
    std::fs::write(&deep_rules, &nested).unwrap();
    let (code, _) = run(&["gen", "kg", "--persons", "20", "-o", path(&graph)]);
    assert_eq!(code, 0);

    let (code, err) = run(&["check", "-r", path(&rules), "-g", path(&deep_graph)]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("cannot parse"), "{err}");

    let (code, err) = run(&["check", "-r", path(&deep_rules), "-g", path(&graph)]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("cannot parse"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile `-g` graph file must exit 1 with "cannot parse", by signal
/// never.
fn assert_graph_rejected(dir: &Path, name: &str, contents: &str) {
    let rules = dir.join("gold.grr");
    std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
    let file = dir.join(name);
    std::fs::write(&file, contents).unwrap();
    let (code, err) = run(&["check", "-r", path(&rules), "-g", path(&file)]);
    assert_eq!(code, 1, "{name}: {err}");
    assert!(err.contains("cannot parse"), "{name}: {err}");
}

#[test]
fn deep_nesting_inside_a_graph_is_a_parse_error_not_a_crash() {
    // A graph reader that rejects a top-level `[` at byte 0 never reaches
    // the nesting limit with the bare 200k-`[` file; these reach it
    // under keys it skips.
    let dir = tmpdir("nested-graph");
    let deep = "[".repeat(200_000);
    assert_graph_rejected(&dir, "top.json", &format!(r#"{{"x":{deep}"#));
    assert_graph_rejected(
        &dir,
        "node.json",
        &format!(r#"{{"nodes":[{{"id":0,"label":"P","x":{deep}"#),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_graph_is_a_parse_error() {
    let dir = tmpdir("truncated");
    let graph = dir.join("g.json");
    let (code, _) = run(&["gen", "kg", "--persons", "20", "-o", path(&graph)]);
    assert_eq!(code, 0);
    let text = std::fs::read_to_string(&graph).unwrap();
    // Cut two characters into the first label past the middle.
    let mid = text[text.len() / 2..].find("\"label\": \"").unwrap() + text.len() / 2;
    let cut = mid + "\"label\": \"".len() + 2;
    assert_graph_rejected(&dir, "cut.json", &text[..cut]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unicode_escape_with_a_sign_is_a_parse_error() {
    // `\u` takes exactly four hex digits; `\u+041` once read as `A`.
    let dir = tmpdir("sign");
    let graph = dir.join("sign.json");
    let text = r#"{"nodes":[{"id":0,"label":"\u+041"}],"edges":[]}"#;
    std::fs::write(&graph, text).unwrap();
    let (code, err) = run(&["stats", path(&graph)]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("cannot parse"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
