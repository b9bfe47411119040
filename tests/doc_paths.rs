//! Docs that cannot rot silently: every file the prose names in back
//! quotes exists. A deletion or rename that leaves a stale path behind
//! in `EXPERIMENTS.md`, `DESIGN.md`, `README.md`, `docs/*.md` or the
//! verify skill fails here instead of misleading the next reader.

use std::path::{Path, PathBuf};

/// The inline code spans of a markdown text (fenced blocks skipped:
/// they hold commands and scratch paths, not references).
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The file a span names, if it names one: a single path-shaped token
/// (no blanks, globs or braces) that contains a `/` or starts with
/// `BENCH` and ends in a source/document extension, with a trailing
/// `::item` dropped.
fn named_file(span: &str) -> Option<&str> {
    let path = span.find("::").map_or(span, |at| &span[..at]);
    let path_shaped = path
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c));
    let extension = [".rs", ".sh", ".json", ".md", ".yml", ".toml"];
    (path_shaped
        && (path.contains('/') || path.starts_with("BENCH"))
        && extension.iter().any(|e| path.ends_with(e)))
    .then_some(path)
}

fn scanned_documents(root: &Path) -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = [
        "EXPERIMENTS.md",
        "DESIGN.md",
        "README.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|name| root.join(name))
    .collect();
    docs.extend(
        std::fs::read_dir(root.join("docs"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "md")),
    );
    docs
}

#[test]
fn every_file_the_docs_name_exists() {
    // The scanner itself: what counts as a reference and what does not.
    assert_eq!(named_file("BENCH_scale.json"), Some("BENCH_scale.json"));
    assert_eq!(
        named_file("crates/simnet/src/forwarder.rs::SwitchCtx::residue"),
        Some("crates/simnet/src/forwarder.rs")
    );
    for not_a_reference in [
        "BENCH_*.json",
        "--manifest-path benchmark/Cargo.toml",
        "golden.sh",
        "/tmp/t.jsonl",
    ] {
        assert_eq!(named_file(not_a_reference), None);
    }
    let spans = code_spans("a `x/y.rs` b\n```sh\n`not/this.rs`\n```\n`` `z` `` and `w/v.md`\n");
    assert_eq!(spans, ["x/y.rs", "", "z", "", "w/v.md"]);

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut dangling = Vec::new();
    for doc in scanned_documents(&root) {
        let text = std::fs::read_to_string(&doc).unwrap();
        for span in code_spans(&text) {
            let Some(path) = named_file(&span) else {
                continue;
            };
            checked += 1;
            if !root.join(path).exists() && !root.join("crates").join(path).exists() {
                dangling.push(format!("{}: `{span}`", doc.display()));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "paths named in the docs that do not exist:\n{}",
        dangling.join("\n")
    );
    assert!(checked > 0, "the scan saw no path at all");
}
