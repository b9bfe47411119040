//! `kar-trend`: the cross-commit bench observatory and regression gate.
//!
//! Usage: `kar-trend [--repo <dir>] [--out <path>] [--tolerance <frac>]
//! [--check <file>] [--quiet]`
//!
//! Walks every committed revision of the `BENCH_*.json` documents
//! (`git log` / `git show`, plus the working tree) and builds
//! per-metric trajectories: per-cell reachability under attack,
//! breaking-point k (and the k≤2 violation count), bits-per-route and
//! delivery ratio at each scale point, header bits and stretch per
//! hierarchy cell, service errors and throughput. It then:
//!
//! - writes the full trajectory document to `BENCH_trend.json`
//!   (`--out` to relocate),
//! - prints a terminal sparkline report,
//! - exits nonzero (code 1) when any metric's newest point moved more
//!   than `--tolerance` (default 5%) in its "worse" direction relative
//!   to the previous revision — the CI regression gate.
//!
//! `--check <file>` feeds a candidate document (its BENCH identity
//! inferred from the file name) as the newest point instead of the
//! working-tree copy, so CI and tests can ask "would committing this
//! regress anything?" without touching the checkout.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kar_bench::trend::{
    build_series, doc_history, regressions, render_report, trend_json, DocRevision,
    DEFAULT_TOLERANCE, TREND_DOCS,
};

struct Args {
    repo: PathBuf,
    out: PathBuf,
    tolerance: f64,
    checks: Vec<PathBuf>,
    quiet: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Args, String> {
    let mut parsed = Args {
        repo: PathBuf::from("."),
        out: PathBuf::from("BENCH_trend.json"),
        tolerance: DEFAULT_TOLERANCE,
        checks: Vec::new(),
        quiet: false,
    };
    let mut out_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repo" => parsed.repo = args.next().ok_or("--repo needs a value")?.into(),
            "--out" => {
                parsed.out = args.next().ok_or("--out needs a value")?.into();
                out_set = true;
            }
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                parsed.tolerance = v
                    .parse()
                    .map_err(|_| format!("bad --tolerance value: {v}"))?;
            }
            "--check" => parsed
                .checks
                .push(args.next().ok_or("--check needs a value")?.into()),
            "--quiet" => parsed.quiet = true,
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if !out_set {
        parsed.out = parsed.repo.join("BENCH_trend.json");
    }
    Ok(parsed)
}

/// Which BENCH document a `--check` file stands in for, from its name:
/// `regressed_scale.json` → `BENCH_scale.json`.
fn doc_for_check(path: &Path) -> Option<&'static str> {
    let name = path.file_name()?.to_str()?;
    TREND_DOCS.iter().copied().find(|doc| {
        let stem = doc.trim_start_matches("BENCH_").trim_end_matches(".json");
        name.contains(stem)
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("kar-trend: {msg}");
            eprintln!(
                "usage: kar-trend [--repo <dir>] [--out <path>] [--tolerance <frac>] \
                 [--check <file>] [--quiet]"
            );
            return ExitCode::from(2);
        }
    };
    let mut histories: Vec<(String, Vec<DocRevision>)> = TREND_DOCS
        .iter()
        .map(|doc| (doc.to_string(), doc_history(&args.repo, doc)))
        .collect();
    for check in &args.checks {
        let Some(doc) = doc_for_check(check) else {
            eprintln!(
                "kar-trend: cannot tell which BENCH document {} stands in for \
                 (name must contain scale/breaking/adversary/service/hier)",
                check.display()
            );
            return ExitCode::from(2);
        };
        let content = match std::fs::read_to_string(check) {
            Ok(c) => c,
            Err(err) => {
                eprintln!("kar-trend: cannot read {}: {err}", check.display());
                return ExitCode::from(2);
            }
        };
        let revs = &mut histories.iter_mut().find(|(d, _)| d == doc).unwrap().1;
        // The candidate replaces the working-tree point: it is the
        // would-be newest revision.
        if revs.last().map(|r| r.commit == "worktree").unwrap_or(false) {
            revs.pop();
        }
        let ts = revs.last().map(|r| r.ts).unwrap_or(0);
        revs.push(DocRevision {
            commit: "candidate".to_string(),
            ts,
            content,
        });
    }
    if histories.iter().all(|(_, revs)| revs.is_empty()) {
        eprintln!(
            "kar-trend: no BENCH_*.json documents found under {}",
            args.repo.display()
        );
        return ExitCode::from(2);
    }
    let series = build_series(&histories);
    let regs = regressions(&series, args.tolerance);
    let doc = trend_json(&series, &regs, args.tolerance);
    if let Err(err) = std::fs::write(&args.out, &doc) {
        eprintln!("kar-trend: cannot write {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    if !args.quiet {
        print!("{}", render_report(&series, &regs, args.tolerance));
        println!();
    }
    eprintln!("trend: wrote {}", args.out.display());
    if regs.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "kar-trend: {} metric(s) regressed beyond {:.1}% — failing",
            regs.len(),
            args.tolerance * 100.0
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let args = parse(&[]).unwrap();
        assert_eq!(args.repo, PathBuf::from("."));
        assert_eq!(args.out, PathBuf::from("./BENCH_trend.json"));
        assert_eq!(args.tolerance, DEFAULT_TOLERANCE);
        let args = parse(&[
            "--repo",
            "/r",
            "--out",
            "/tmp/t.json",
            "--tolerance",
            "0.1",
            "--check",
            "bad_scale.json",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(args.repo, PathBuf::from("/r"));
        assert_eq!(args.out, PathBuf::from("/tmp/t.json"));
        assert_eq!(args.tolerance, 0.1);
        assert_eq!(args.checks, vec![PathBuf::from("bad_scale.json")]);
        assert!(args.quiet);
        assert!(parse(&["--tolerance", "x"]).is_err());
        assert!(parse(&["stray"]).is_err());
    }

    #[test]
    fn check_files_map_to_their_documents() {
        let doc = |n: &str| doc_for_check(Path::new(n));
        assert_eq!(doc("regressed_dataplane.json"), None, "no such document");
        assert_eq!(doc("/tmp/x/scale_candidate.json"), Some("BENCH_scale.json"));
        assert_eq!(doc("breaking.json"), Some("BENCH_breaking.json"));
        assert_eq!(doc("adversary2.json"), Some("BENCH_adversary.json"));
        assert_eq!(doc("BENCH_service_ci.json"), Some("BENCH_service.json"));
        assert_eq!(doc("BENCH_hier_ci.json"), Some("BENCH_hier.json"));
        assert_eq!(doc("mystery.json"), None);
    }
}
