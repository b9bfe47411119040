//! Documented commands cannot rot: every `kar-bench <name> --flag …` the
//! docs, scripts and CI spell names a registered experiment and flags it
//! declares, no other `--bin` is mentioned, and no retired `KAR_*` knob
//! survives in prose or in a crate's sources — a comment or a message
//! users see. (`tests/doc_paths.rs` checks the paths.)

use kar_bench::cli::Experiment;
use kar_bench::experiments::REGISTRY;
use std::path::{Path, PathBuf};

fn scanned_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = [
        "EXPERIMENTS.md",
        "README.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ]
    .iter()
    .map(|name| root.join(name))
    .collect();
    for (dir, extension) in [("docs", "md"), ("scripts", "sh")] {
        files.extend(
            std::fs::read_dir(root.join(dir))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == extension)),
        );
    }
    files
}

/// Every `.rs` file under `crates/*/src`.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

/// Flags every `KAR_*` name on `line` but the test-only `KAR_BLESS`.
fn retired_knobs(line: &str, at: &str, problems: &mut Vec<String>) {
    for (i, _) in line.match_indices("KAR_") {
        let knob: String = line[i..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
            .collect();
        if knob != "KAR_BLESS" {
            problems.push(format!("{at}: {knob} — kar-bench reads no environment"));
        }
    }
}

/// Where a command starts on `tokens`, if one does: the index of the
/// experiment name after `kar-bench [--]` (a closed code span such as
/// `` `kar-bench` `` is a mention, not a command) or, in the scripts,
/// after `golden.sh`'s `run` / `sweep` / `run_as <file>` wrappers.
fn command_starts(tokens: &[&str], script: bool) -> Vec<usize> {
    let mut starts = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let program = token
            .trim_start_matches(['`', '"', '('])
            .trim_end_matches('"');
        if program == "kar-bench" || program.ends_with("/kar-bench") {
            starts.push(i + 1 + usize::from(tokens.get(i + 1) == Some(&"--")));
        }
    }
    if script {
        match tokens.first() {
            Some(&"run" | &"sweep") => starts.push(1),
            Some(&"run_as") => starts.push(2),
            _ => {}
        }
    }
    starts
}

/// Checks the command whose experiment name is `tokens[0]`; placeholders
/// (`<experiment>`, `"$@"`) and non-names (`--bin`, `--test`) pass.
fn check_command(tokens: &[&str], at: &str, problems: &mut Vec<String>) {
    let clean = |t: &str| {
        t.trim_end_matches(['`', ')', ',', '.', ';', ':'])
            .to_string()
    };
    let Some(name) = tokens.first().map(|t| clean(t)) else {
        return;
    };
    let name_shaped = name.starts_with(|c: char| c.is_ascii_lowercase())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !name_shaped || name == "list" {
        return;
    }
    let Some(exp) = REGISTRY.iter().find(|e| e.name == name) else {
        problems.push(format!(
            "{at}: `kar-bench {name}` is not a registered experiment"
        ));
        return;
    };
    for token in &tokens[1..] {
        if ["|", ">", "2>", "&&", ";", "#"].contains(token) {
            break;
        }
        if let Some(flag) = token.strip_prefix("--").map(clean) {
            let flag = format!("--{}", flag.split('=').next().unwrap());
            if flag != "--help" && !declares(exp, &flag) {
                problems.push(format!("{at}: `kar-bench {name}` declares no {flag}"));
            }
        }
        if token.contains('`') {
            break; // the code span holding the command ends here
        }
    }
}

fn declares(exp: &Experiment, flag: &str) -> bool {
    exp.help().contains(&format!("  {flag} "))
}

#[test]
fn every_documented_command_names_a_registered_experiment_and_declared_flags() {
    // The scanner itself.
    let mut caught = Vec::new();
    for (line, script) in [
        (
            "cargo run --release -p kar-bench -- fig5 --runz 2 | tee x",
            false,
        ),
        ("`kar-bench nosuch --k 2`", false),
        ("\"$BIN_DIR/kar-bench\" jitter --checkpoint c", false),
        ("run_as out verify_resilience --kk 2", true),
        ("sweep fig_hier --domain 8", true),
    ] {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for start in command_starts(&tokens, script) {
            check_command(&tokens[start.min(tokens.len())..], line, &mut caught);
        }
    }
    assert_eq!(caught.len(), 5, "{caught:#?}");
    for fine in [
        "cargo test --release -q -p kar-bench --test forensics",
        "cargo run --release -p kar-bench --bin kar-inspect -- /tmp/m.jsonl --run repair/NIP",
        "`kar-bench` reads no environment; `kar-bench <name> --help`, `kar-bench list`",
        "\"$BIN_DIR/kar-bench\" \"$@\" --jobs \"$jobs\" > \"$dir/$name.txt\"",
        "kar-bench fig_breaking --topo topo15 --max-k 1 --out=b.json > /dev/null --nope",
        "`kar-bench multi_failure_correlated --groups 2` and `--correlated` is gone",
    ] {
        let tokens: Vec<&str> = fine.split_whitespace().collect();
        for start in command_starts(&tokens, false) {
            check_command(&tokens[start.min(tokens.len())..], fine, &mut caught);
        }
    }
    assert_eq!(caught.len(), 5, "{caught:#?}");

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut problems = Vec::new();
    let mut commands = 0;
    for file in scanned_files(&root) {
        let script = file.extension().is_some_and(|e| e == "sh");
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            let at = format!("{}:{}", file.display(), n + 1);
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for start in command_starts(&tokens, script) {
                commands += 1;
                check_command(&tokens[start.min(tokens.len())..], &at, &mut problems);
            }
            for pair in tokens.windows(2) {
                let bin = pair[1].trim_end_matches(['`', ',', '.', ')']);
                if pair[0].ends_with("--bin") && !["kar-bench", "kar-inspect"].contains(&bin) {
                    problems.push(format!("{at}: `--bin {bin}` no longer exists"));
                }
            }
            retired_knobs(line, &at, &mut problems);
        }
    }
    for file in rust_sources(&root) {
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            retired_knobs(
                line,
                &format!("{}:{}", file.display(), n + 1),
                &mut problems,
            );
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(commands > 40, "the scan saw only {commands} commands");
}
