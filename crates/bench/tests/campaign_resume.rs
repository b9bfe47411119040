//! Checkpoint-resume behavior of the sweep engine, observed at the
//! surface that matters — `kar-bench`'s seven sweep entries with `--jobs`,
//! `--checkpoint` and `--out`: an interrupted sweep resumes at the last
//! completed cell, the resumed document (and table) is byte-identical to
//! an uninterrupted run, stale checkpoints (other configuration) are
//! ignored rather than spliced in, and none of it depends on `--jobs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One sweep at its smallest grid: `(experiment and flags, cells in the
/// grid)`.
struct Sweep {
    args: &'static [&'static str],
    cells: usize,
}

const SWEEPS: &[Sweep] = &[
    Sweep {
        args: &[
            "fig_scale",
            "--max-switches",
            "16",
            "--flows",
            "1",
            "--packets",
            "2",
        ],
        cells: 9,
    },
    Sweep {
        args: &[
            "fig_hier",
            "--max-switches",
            "32",
            "--pairs",
            "4",
            "--packets",
            "2",
        ],
        cells: 12,
    },
    Sweep {
        args: &[
            "fig_adversary",
            "--topo",
            "topo15",
            "--probes",
            "12",
            "--intensities",
            "1",
        ],
        cells: 48,
    },
    Sweep {
        args: &[
            "fig_breaking",
            "--topo",
            "topo15",
            "--max-k",
            "1",
            "--probes",
            "5",
        ],
        cells: 12,
    },
    Sweep {
        args: &["multi_failure", "--runs", "1", "--probes", "8"],
        cells: 32,
    },
    Sweep {
        args: &[
            "multi_failure_correlated",
            "--runs",
            "1",
            "--probes",
            "8",
            "--groups",
            "1",
        ],
        cells: 8,
    },
    Sweep {
        args: &["fig_dynamic", "--probes", "40"],
        cells: 12,
    },
];

/// What one invocation produced.
struct Run {
    stdout: String,
    stderr: String,
    document: String,
}

impl Sweep {
    fn name(&self) -> &str {
        self.args[0]
    }

    fn scratch(&self, tag: &str, ext: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "kar_resume_{}_{tag}_{}.{ext}",
            self.name(),
            std::process::id()
        ))
    }

    fn run(&self, tag: &str, jobs: usize, checkpoint: Option<&Path>, extra: &[&str]) -> Run {
        let out = self.scratch(tag, "json");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kar-bench"));
        cmd.args(self.args)
            .args(extra)
            .args(["--jobs", &jobs.to_string(), "--out"])
            .arg(&out);
        if let Some(path) = checkpoint {
            cmd.arg("--checkpoint").arg(path);
        }
        let output = cmd.output().expect("kar-bench runs");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{} failed: {stderr}", self.name());
        let document = fs::read_to_string(&out).expect("--out document written");
        let _ = fs::remove_file(&out);
        Run {
            stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
            stderr,
            document,
        }
    }

    fn counts(&self, computed: usize) -> String {
        format!(
            "sweep: {} cells ({computed} computed, {} from checkpoint)",
            self.cells,
            self.cells - computed
        )
    }
}

#[test]
fn interrupted_sweep_resumes_without_recomputing_finished_cells() {
    for sweep in SWEEPS {
        let ckpt = sweep.scratch("resume", "ckpt");
        let _ = fs::remove_file(&ckpt);
        let full = sweep.run("resume", 2, Some(&ckpt), &[]);
        assert!(
            full.stderr.contains(&sweep.counts(sweep.cells)),
            "{}",
            full.stderr
        );
        let text = fs::read_to_string(&ckpt).unwrap();
        assert_eq!(
            text.lines().count(),
            sweep.cells + 1,
            "{}: fingerprint header plus one line per cell",
            sweep.name()
        );

        // Simulate a kill mid-sweep: the last completed cell never made
        // it to disk, and the one before it is a torn write.
        let kept: Vec<&str> = text.lines().take(sweep.cells).collect();
        let torn: String = kept[sweep.cells - 1].chars().take(30).collect();
        fs::write(
            &ckpt,
            format!("{}\n{torn}", kept[..sweep.cells - 1].join("\n")),
        )
        .unwrap();
        let resumed = sweep.run("resume", 2, Some(&ckpt), &[]);
        assert!(
            resumed.stderr.contains(&sweep.counts(2)),
            "{}",
            resumed.stderr
        );
        assert_eq!(resumed.document, full.document, "{}", sweep.name());
        assert_eq!(resumed.stdout, full.stdout, "{}", sweep.name());

        // Exactly one line cut: exactly one cell recomputed.
        let text = fs::read_to_string(&ckpt).unwrap();
        let kept: Vec<&str> = text.lines().take(sweep.cells).collect();
        fs::write(&ckpt, format!("{}\n", kept.join("\n"))).unwrap();
        let resumed = sweep.run("resume", 2, Some(&ckpt), &[]);
        assert!(
            resumed.stderr.contains(&sweep.counts(1)),
            "{}",
            resumed.stderr
        );
        assert_eq!(resumed.document, full.document, "{}", sweep.name());

        // A further resume finds everything done.
        let warm = sweep.run("resume", 2, Some(&ckpt), &[]);
        assert!(warm.stderr.contains(&sweep.counts(0)), "{}", warm.stderr);
        assert_eq!(warm.document, full.document, "{}", sweep.name());
        assert_eq!(warm.stdout, full.stdout, "{}", sweep.name());
        let _ = fs::remove_file(&ckpt);
    }
}

#[test]
fn foreign_checkpoints_are_discarded_not_spliced() {
    for sweep in SWEEPS {
        let ckpt = sweep.scratch("foreign", "ckpt");
        let _ = fs::remove_file(&ckpt);
        let first = sweep.run("foreign", 2, Some(&ckpt), &[]);
        let header = |path: &Path| {
            let text = fs::read_to_string(path).unwrap();
            text.lines().next().unwrap().to_string()
        };
        let first_header = header(&ckpt);
        assert!(
            first_header.starts_with("{\"campaign_checkpoint\":\""),
            "{first_header}"
        );

        // Same checkpoint path, different seed: the fingerprint no
        // longer matches, so every cell recomputes and the file is
        // rewritten under the new fingerprint.
        let second = sweep.run("foreign", 2, Some(&ckpt), &["--seed", "78"]);
        assert!(
            second.stderr.contains(&sweep.counts(sweep.cells)),
            "{}: stale cells must not be reused: {}",
            sweep.name(),
            second.stderr
        );
        assert_ne!(header(&ckpt), first_header, "{}", sweep.name());
        let plain = sweep.run("foreign", 2, None, &["--seed", "78"]);
        assert_eq!(second.document, plain.document, "{}", sweep.name());
        assert_ne!(second.document, first.document, "{}", sweep.name());
        let _ = fs::remove_file(&ckpt);
    }
}

#[test]
fn checkpointed_and_plain_runs_agree() {
    for sweep in SWEEPS {
        let ckpt = sweep.scratch("plain", "ckpt");
        let _ = fs::remove_file(&ckpt);
        // Serial without a checkpoint vs four workers with one.
        let plain = sweep.run("plain", 1, None, &[]);
        let with = sweep.run("plain", 4, Some(&ckpt), &[]);
        assert!(!plain.stderr.contains("sweep:"), "{}", plain.stderr);
        assert_eq!(with.document, plain.document, "{}", sweep.name());
        assert_eq!(with.stdout, plain.stdout, "{}", sweep.name());
        assert!(!plain.document.is_empty() && !plain.stdout.is_empty());
        let _ = fs::remove_file(&ckpt);
    }
}
