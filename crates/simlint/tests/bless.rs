//! `--bless` self-consistency: the committed corpus is already blessed,
//! blessing is idempotent, and blessing actually repairs a drifted
//! `.expected` file. Runs against a copy of the corpus under
//! `CARGO_TARGET_TMPDIR` so the committed fixtures are never touched.

use std::fs;
use std::path::{Path, PathBuf};

use dohmark_simlint::bless_fixtures;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Copies the committed corpus into a scratch dir unique to `name`.
fn scratch_corpus(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    for entry in fs::read_dir(fixtures_dir()).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy fixture");
        }
    }
    dir
}

#[test]
fn committed_corpus_is_already_blessed_and_blessing_is_idempotent() {
    let dir = scratch_corpus("bless_idempotent");
    let first = bless_fixtures(&dir).expect("bless runs");
    assert!(first.len() >= 11, "corpus shrank: {} fixtures", first.len());
    let drifted: Vec<_> = first.iter().filter(|(_, changed)| *changed).collect();
    assert!(
        drifted.is_empty(),
        "committed .expected files drifted from the rule catalog — run \
         `cargo run -p dohmark-simlint -- --bless` and commit: {drifted:?}"
    );
    // Idempotency: a second bless over freshly blessed output rewrites
    // nothing and renders byte-identically.
    let before: Vec<(PathBuf, String)> = first
        .iter()
        .map(|(p, _)| (p.clone(), fs::read_to_string(p).expect("expected readable")))
        .collect();
    let second = bless_fixtures(&dir).expect("bless runs twice");
    assert!(second.iter().all(|(_, changed)| !changed), "second bless rewrote files");
    for (path, contents) in before {
        assert_eq!(
            fs::read_to_string(&path).expect("expected readable"),
            contents,
            "bless is not byte-idempotent for {}",
            path.display()
        );
    }
}

#[test]
fn bless_repairs_a_drifted_expected_file() {
    let dir = scratch_corpus("bless_repairs");
    let victim = dir.join("wake_outside_driver.expected");
    let good = fs::read_to_string(&victim).expect("victim readable");
    fs::write(&victim, "stale findings\n").expect("inject drift");
    let results = bless_fixtures(&dir).expect("bless runs");
    let repaired = results.iter().find(|(p, _)| *p == victim).expect("victim visited");
    assert!(repaired.1, "bless must report the drifted file as changed");
    assert_eq!(fs::read_to_string(&victim).expect("victim readable"), good);
    // Everything else was already blessed and must not be rewritten.
    assert_eq!(results.iter().filter(|(_, changed)| *changed).count(), 1);
}
