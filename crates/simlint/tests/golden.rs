//! Golden-corpus tests: every fixture under `tests/fixtures/` is linted
//! with [`dohmark_simlint::lint_source`] and the rendered findings are
//! compared byte-for-byte against the sibling `.expected` file.
//!
//! The corpus doubles as executable documentation of the rule catalog:
//! together the fixtures must exercise every rule plus the allow
//! machinery's own meta-findings (`unused-allow`, `allow-syntax`).
//!
//! To regenerate the expectations after an intentional rule change:
//! `cargo run -p dohmark-simlint -- --bless` (see `tests/bless.rs` for
//! the self-consistency guarantees).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use dohmark_simlint::{lint_source, render};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_sources() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    out.sort();
    out
}

#[test]
fn every_fixture_matches_its_expected_findings() {
    let sources = fixture_sources();
    assert!(
        sources.len() >= 12,
        "golden corpus shrank: expected at least 12 fixtures, found {}",
        sources.len()
    );
    for path in sources {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let rel = path.file_name().expect("file name").to_string_lossy();
        let got = render(&lint_source(&rel, &source));
        let expected_path = path.with_extension("expected");
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!("missing {} — regenerate with the simlint binary", expected_path.display())
        });
        assert_eq!(got, expected, "findings drifted for fixture {}", path.display());
    }
}

#[test]
fn every_fixture_produces_findings() {
    for path in fixture_sources() {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let rel = path.file_name().expect("file name").to_string_lossy();
        let findings = lint_source(&rel, &source);
        assert!(
            !findings.is_empty(),
            "fixture {} yields no findings — it no longer guards anything \
             (and `--deny` would exit 0 on it)",
            path.display()
        );
    }
}

#[test]
fn corpus_covers_every_rule_and_the_allow_meta_findings() {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for path in fixture_sources() {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let rel = path.file_name().expect("file name").to_string_lossy();
        for f in lint_source(&rel, &source) {
            seen.insert(f.rule.to_string());
        }
    }
    let mut required: BTreeSet<String> =
        dohmark_simlint::rules::RULES.iter().map(|r| r.name.to_string()).collect();
    required.insert("unused-allow".to_string());
    required.insert("allow-syntax".to_string());
    let missing: Vec<&String> = required.difference(&seen).collect();
    assert!(missing.is_empty(), "no fixture exercises: {missing:?} — add one per uncovered rule");
}

#[test]
fn corpus_findings_round_trip_through_the_json_format() {
    // The whole corpus through `--format json`'s renderer, parsed back
    // with the same in-tree JSON layer CI consumers would use: every
    // field of every finding must survive, in order.
    let mut all = Vec::new();
    for path in fixture_sources() {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let rel = path.file_name().expect("file name").to_string_lossy();
        all.extend(lint_source(&rel, &source));
    }
    assert!(!all.is_empty());
    let doc = dohmark_dns_wire::jsontext::parse(&dohmark_simlint::render_json(&all))
        .expect("render_json emits valid jsontext");
    assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(all.len() as u64));
    let rows = doc.get("findings").and_then(|v| v.as_array()).expect("findings array");
    assert_eq!(rows.len(), all.len());
    for (row, f) in rows.iter().zip(&all) {
        assert_eq!(row.get("file").and_then(|v| v.as_str()), Some(f.file.as_str()));
        assert_eq!(row.get("line").and_then(|v| v.as_u64()), Some(f.line as u64));
        assert_eq!(row.get("rule").and_then(|v| v.as_str()), Some(f.rule));
        assert_eq!(row.get("message").and_then(|v| v.as_str()), Some(f.message.as_str()));
        assert_eq!(row.get("item").and_then(|v| v.as_str()), Some(f.item.as_str()));
        assert!(!f.item.is_empty(), "every finding carries an item or module path: {f:?}");
    }
}
