//! `kar_obs::json` against the artifacts it has to read: every committed
//! `BENCH_*.json` (and the `kar-perf` baselines) parses, every number
//! token reads back as exactly the text it was written with, and
//! truncated or garbled documents are errors, never panics; plus the
//! writer's own contract (escaping, exact numbers, `null` vs `0`). (The
//! `--metrics` dump case lives beside the sink, in
//! `crates/bench/tests/summary_parity.rs`.)

use kar_obs::json::{f64_or_null, json_f64, Json, Obj};
use proptest::prelude::*;
use std::path::PathBuf;

fn committed_documents() -> Vec<(PathBuf, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH") && name.ends_with(".json")
        })
        .collect();
    paths.push(root.join("benchmark/baseline/seed1.json"));
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect()
}

/// The document with whitespace outside string literals removed — the
/// form the writer emits when it does not break lines.
fn compact(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut in_str, mut escaped) = (false, false);
    for c in text.chars() {
        if in_str {
            out.push(c);
            (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
        } else if !c.is_ascii_whitespace() {
            out.push(c);
            in_str = c == '"';
        }
    }
    out
}

#[test]
fn committed_documents_parse_and_numbers_read_back_verbatim() {
    let docs = committed_documents();
    assert!(docs.len() >= 6, "BENCHMARK + four BENCH docs + a baseline");
    for (path, text) in &docs {
        let json = Json::parse(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Strings re-escape canonically, members keep their order and
        // numbers are the raw tokens, so rendering reproduces the file.
        assert_eq!(json.to_string(), compact(text), "{}", path.display());
    }
    // The token an f64 reader would corrupt: a u64 seed above 2^53.
    let (_, hier) = docs
        .iter()
        .find(|(p, _)| p.ends_with("BENCH_hier.json"))
        .unwrap();
    let seed = "11981841711409792483";
    assert!(hier.contains(&format!("\"seed\":{seed}")));
    let hier = Json::parse(hier).unwrap();
    let cells = hier.get("cells").and_then(Json::as_arr).unwrap();
    let cell = cells
        .iter()
        .find(|c| c.get("seed") == Some(&Json::Num(seed.into())))
        .expect("the seed is still that token");
    assert_eq!(cell.get("seed").unwrap().as_num::<u64>(), seed.parse().ok());
    assert_ne!(
        seed.parse::<f64>().unwrap() as u64,
        seed.parse::<u64>().unwrap()
    );
}

#[test]
fn writer_and_reader_round_trip_exact_numbers() {
    let line = Obj::new()
        .str("label", "quote\" slash\\ tab\t bell\u{7}")
        .num("seed", u64::MAX)
        .f64("tenth", 0.1)
        .f64("nan", f64::NAN)
        .opt("absent", None::<u8>)
        .raw("nested", Obj::new().num("k", -3).finish())
        .finish();
    assert!(line.contains("bell\\u0007"), "control characters: {line}");
    assert!(
        line.contains("\"nan\":null") && !line.contains("absent"),
        "{line}"
    );
    let back = Json::parse(&line).unwrap();
    assert_eq!(
        back.get("label").and_then(Json::as_str),
        Some("quote\" slash\\ tab\t bell\u{7}")
    );
    assert_eq!(back.get("seed"), Some(&Json::Num(u64::MAX.to_string())));
    assert_eq!(back.get("seed").and_then(Json::as_num), Some(u64::MAX));
    assert_eq!(back.get("tenth").and_then(Json::as_f64), Some(0.1));
    assert!(back.get("nan").unwrap().as_f64_or_nan().unwrap().is_nan());
    let nested = back.path(&["nested", "k"]).and_then(Json::as_num);
    assert_eq!(nested, Some(-3i64));
    assert_eq!(back.to_string(), line, "rendering reproduces the writer");
    // Documents say `null` for "no such measurement"; dump lines (and
    // `kar-perf`, which imports `json_f64`) keep a number always.
    assert_eq!(f64_or_null(f64::INFINITY), "null");
    assert_eq!(json_f64(f64::INFINITY), "0");
    assert_eq!(Obj::new().finish(), "{}");
}

#[test]
fn malformed_input_is_an_error() {
    for bad in [
        "",
        "{",
        "{\"a\":1}x",
        "[1,]",
        "{\"a\" 1}",
        "\"\\q\"",
        "\"\\u12\"",
        "-",
        "nul",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?}");
    }
    assert!(Json::parse(&"[".repeat(10_000)).is_err(), "deep nesting");
    let ok = Json::parse(" {\"a\":[true,false,null,-1.5e2,\"\\u00e9\"]} ").unwrap();
    let items = ok.get("a").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), 5);
    assert_eq!(items[4].as_str(), Some("é"));
}

proptest! {
    /// A strict prefix of a document is never a document.
    #[test]
    fn truncated_documents_are_errors(doc in 0usize..8, cut in 0usize..1_000_000) {
        let docs = committed_documents();
        let text = &docs[doc % docs.len()].1;
        let mut cut = cut % text.trim_end().len();
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(Json::parse(&text[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    /// Overwriting bytes anywhere never panics the reader; whatever
    /// still parses renders back to something that parses to the same
    /// value.
    #[test]
    fn garbled_documents_never_panic(
        doc in 0usize..8,
        at in 0usize..1_000_000,
        junk in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let docs = committed_documents();
        let mut bytes = docs[doc % docs.len()].1.clone().into_bytes();
        let at = at % bytes.len();
        for (i, b) in junk.iter().enumerate() {
            if let Some(slot) = bytes.get_mut(at + i) {
                *slot = *b;
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(json) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&json.to_string()), Ok(json));
        }
    }
}
