//! The `kar-bench` front end, observed as a process: it refuses what it
//! was not told about (exit 2, the offending token on stderr, nothing
//! on stdout, no file created), `list` and `--help` render the
//! registry, and the environment is inert — the command line is the
//! whole configuration.

use kar_bench::experiments::REGISTRY;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `kar-bench args…` in an empty scratch directory with each
/// `(knob, value)` of `env` exported as the retired `KAR_<knob>`
/// variable; returns the output and what the run left in the directory.
fn kar_bench(tag: &str, args: &[&str], env: &[(&str, &str)]) -> (Output, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("kar_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_kar-bench"))
        .args(args)
        .envs(
            env.iter()
                .map(|(knob, value)| (format!("KAR_{knob}"), value)),
        )
        .current_dir(&dir)
        .output()
        .expect("kar-bench runs");
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (output, left)
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn what_the_front_end_does_not_know_it_refuses() {
    let refusals: [(&[&str], &str); 12] = [
        (&["nosuch"], "nosuch"),
        (&[], "missing experiment"),
        (
            &["fig_breaking", "--topo", "topo15", "--max-kk", "1"],
            "--max-kk",
        ),
        (&["fig5", "--runs"], "--runs"),
        (&["fig5", "--runs", "x"], "x"),
        (&["jitter", "--checkpoint", "c"], "--checkpoint"),
        (
            &["fig_adversary", "--out", "a.json", "--topo", "topo16"],
            "topo16",
        ),
        (&["probe", "--technique", "hpp"], "hpp"),
        (&["inspect", "--view", "json"], "--dump"),
        (&["inspect", "--dump", "d.jsonl", "forensics"], "forensics"),
        (&["inspect", "--dump", "d.jsonl", "--view", "html"], "html"),
        (&["inspect", "--dump", "d.jsonl", "--pkt", "x"], "x"),
    ];
    for (i, (args, token)) in refusals.iter().enumerate() {
        let (output, left) = kar_bench(&format!("refuse{i}"), args, &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: kar-bench"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}: {}", stdout(&output));
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
    // Values only the experiment can judge are refused the same way,
    // before anything is written.
    for args in [
        &["fig_adversary", "--out", "a.json", "--intensities", "1,x"][..],
        &["probe", "--from", "NOPE"],
        &["probe", "--fail", "SW7"],
        &[
            "inspect", "--dump", "d.jsonl", "--view", "json", "--run", "fig4",
        ],
        &[
            "inspect",
            "--dump",
            "d.jsonl",
            "--view",
            "forensics",
            "--pkt",
            "3",
        ],
    ] {
        let (output, left) = kar_bench("judged", args, &[]);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty() && left.is_empty(), "{args:?}");
    }
}

#[test]
fn list_and_help_are_rendered_from_the_registry() {
    let (output, _) = kar_bench("list", &["list"], &[]);
    assert!(output.status.success());
    let listed: Vec<String> = stdout(&output)
        .lines()
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect();
    let registered: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered, "list names every entry once, in order");
    let mut unique = registered.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), registered.len(), "names are unique");
    assert!(!registered.contains(&"list"));

    for exp in REGISTRY {
        let (output, left) = kar_bench("help", &[exp.name, "--help"], &[]);
        assert!(output.status.success(), "{} --help", exp.name);
        assert!(left.is_empty());
        let help = stdout(&output);
        assert!(help.contains(exp.about), "{help}");
        for flag in exp.flags {
            let default = if flag.default.is_empty() {
                "(unset)"
            } else {
                flag.default
            };
            let shown = format!("{} {default}", flag.name);
            assert!(
                help.contains(&shown),
                "{}: no `{shown}` in\n{help}",
                exp.name
            );
        }
        // Only entries that simulate take the common flags.
        for common in ["--jobs 0", "--metrics (unset)", "--events-cap 65536"] {
            assert_eq!(help.contains(common), exp.simulates, "{help}");
        }
        let seed = format!("--seed {}", exp.seed);
        assert_eq!(help.contains(&seed), exp.simulates, "{help}");
        assert_eq!(help.contains("--checkpoint"), exp.sweep, "{help}");
        assert_eq!(help.contains("--out"), exp.sweep, "{help}");
    }
}

#[test]
fn the_command_line_is_the_whole_configuration() {
    let jitter = |tag: &str, args: &[&str], env: &[(&str, &str)]| {
        let mut argv = vec!["jitter", "--probes", "300"];
        argv.extend(args);
        let (output, _) = kar_bench(tag, &argv, env);
        assert!(output.status.success());
        stdout(&output)
    };
    // A flag every entry declares reaches every entry…
    let default = jitter("seed_default", &[], &[]);
    let seeded = jitter("seed_flag", &["--seed", "7"], &[]);
    assert_ne!(seeded, default, "--seed must reach jitter");
    assert_eq!(
        jitter("seed_last", &["--seed", "3", "--seed=7"], &[]),
        seeded
    );
    // …and what used to be ambient knobs no longer reach anything.
    let hostile = [
        ("SEED", "9"),
        ("PROBES", "1"),
        ("JOBS", "1"),
        ("METRICS", "env_metrics.jsonl"),
        ("TRACE", "env_trace.json"),
    ];
    assert_eq!(jitter("env_seeded", &["--seed", "7"], &hostile), seeded);
    assert_eq!(jitter("env_default", &[], &hostile), default);
}

#[test]
fn no_document_is_written_without_out() {
    let scaled_down = [
        "fig_hier",
        "--max-switches",
        "32",
        "--pairs",
        "4",
        "--packets",
        "2",
    ];
    let (output, left) = kar_bench("no_out", &scaled_down, &[("METRICS", "m.jsonl")]);
    assert!(output.status.success());
    assert!(stdout(&output).contains("ring/32/hier"));
    assert!(left.is_empty(), "created {left:?}");

    let mut with_out = scaled_down.to_vec();
    with_out.extend(["--out", "doc.json", "--metrics", "m.jsonl"]);
    let (output, left) = kar_bench("with_out", &with_out, &[]);
    assert!(output.status.success());
    let mut names: Vec<_> = left.iter().map(|p| p.file_name().unwrap()).collect();
    names.sort();
    assert_eq!(names, ["doc.json", "m.jsonl"]);
}
