//! The one command line: `kar-bench <experiment> [--flag value]…`.
//!
//! [`main`] looks the experiment up in
//! [`crate::experiments::REGISTRY`], [`Args::parse`] resolves the
//! common flags below plus the ones the entry declares, and everything
//! else — unknown experiment, unknown flag, missing or unparsable value
//! — is refused: usage on stderr, exit 2, nothing written. `kar-bench
//! list` and `kar-bench <name> --help` are rendered from the same
//! tables. The command line is the whole configuration: nothing under
//! `crates/bench/src` reads the environment.
//!
//! Of the common flags only `--seed` changes a result: jobs and
//! checkpoints schedule work, metrics and traces are pure observation.
//! `kar-bench inspect` ([`crate::inspect`]) is an entry like the others
//! but simulates nothing, so it takes none of them.

use crate::experiments::REGISTRY;
use crate::{obs, runner, sweep};
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// One declared `--name value` option. A numeric `default` makes the
/// flag numeric, an empty one means "unset", and a `help` whose first
/// word reads `a|b|c` lists the only values accepted.
#[derive(Debug)]
pub struct Flag {
    /// Spelling, with the leading `--`.
    pub name: &'static str,
    /// Value when the flag is absent.
    pub default: &'static str,
    /// One help line.
    pub help: &'static str,
}

/// A [`Flag`], for the tables.
pub const fn flag(name: &'static str, default: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        default,
        help,
    }
}

impl Flag {
    /// What the flag takes when `value` is not it.
    fn expects(&self, value: &str) -> Option<&'static str> {
        let choices = self.help.split(' ').next().unwrap_or_default();
        if self.default.parse::<u64>().is_ok() {
            value.parse::<u64>().is_err().then_some("a number")
        } else {
            let listed = !choices.contains('|') || choices.split('|').any(|c| c == value);
            (!listed).then_some(choices)
        }
    }
}

/// One registry entry: what `kar-bench <name>` runs.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the command line.
    pub name: &'static str,
    /// One line for `kar-bench list`.
    pub about: &'static str,
    /// Default `--seed`.
    pub seed: u64,
    /// Whether the entry runs on [`crate::sweep`] and so takes
    /// `--checkpoint` and `--out`.
    pub sweep: bool,
    /// Whether the entry simulates and so takes the common flags
    /// (`--jobs`, `--seed`, `--metrics`, `--trace`, `--events-cap`);
    /// `inspect`, which reads a finished run's dump, does not.
    pub simulates: bool,
    /// The entry's own flags.
    pub flags: &'static [Flag],
    /// The experiment; the flags are already validated.
    pub run: fn(&Args) -> ExitCode,
}

/// `--topo` of the entries that run on the paper's two networks (see
/// [`Args::wants_topo`]).
pub const TOPO: Flag = flag("--topo", "both", "topo15|rnp28|both");

/// Flags every simulating entry takes (`--seed`'s default is the
/// entry's).
const COMMON: [Flag; 5] = [
    flag("--jobs", "0", "worker threads (0 = every core)"),
    flag("--seed", "0", "base RNG seed"),
    flag("--metrics", "", "write the observability dump (JSON lines)"),
    flag("--trace", "", "write a Chrome trace-event file"),
    flag("--events-cap", "65536", "event-ring capacity per run"),
];

/// Flags of the sweep entries.
const SWEEP: [Flag; 2] = [
    flag("--checkpoint", "", "resume file: finished cells are reused"),
    flag("--out", "", "write the JSON document (nowhere when absent)"),
];

impl Experiment {
    /// A non-sweep entry whose default `--seed` is 1.
    pub const fn new(
        name: &'static str,
        about: &'static str,
        flags: &'static [Flag],
        run: fn(&Args) -> ExitCode,
    ) -> Experiment {
        Experiment {
            name,
            about,
            seed: 1,
            sweep: false,
            simulates: true,
            flags,
            run,
        }
    }

    /// The entry with another default `--seed`.
    pub const fn seed(mut self, seed: u64) -> Experiment {
        self.seed = seed;
        self
    }

    /// The entry as a sweep (`--checkpoint`, `--out`).
    pub const fn sweep(mut self) -> Experiment {
        self.sweep = true;
        self
    }

    /// The entry as a reader of finished runs: no common flags.
    pub const fn reader(mut self) -> Experiment {
        self.simulates = false;
        self
    }

    /// Every flag the entry accepts with its default, common ones first.
    fn declared(&self) -> Vec<(&'static Flag, String)> {
        let common: &[Flag] = if self.simulates { &COMMON } else { &[] };
        let sweep: &[Flag] = if self.sweep { &SWEEP } else { &[] };
        let default = |f: &Flag| match f.name {
            "--seed" => self.seed.to_string(),
            _ => f.default.to_string(),
        };
        let flags = common.iter().chain(sweep).chain(self.flags);
        flags.map(|f| (f, default(f))).collect()
    }

    /// The `--help` text.
    pub fn help(&self) -> String {
        let mut out = format!("kar-bench {} — {}\n", self.name, self.about);
        for (flag, default) in self.declared() {
            let default = if default.is_empty() {
                "(unset)"
            } else {
                &default
            };
            let usage = format!("{} {default}", flag.name);
            out += &format!("  {usage:<22} {}\n", flag.help);
        }
        out
    }
}

/// A validated command line: every flag the entry accepts, resolved.
#[derive(Debug)]
pub struct Args {
    exp: &'static Experiment,
    values: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Resolves `argv` (`--name value` or `--name=value`; the last
    /// occurrence wins) against what `exp` declares.
    ///
    /// # Errors
    ///
    /// The refusal message, naming the offending token.
    pub fn parse(exp: &'static Experiment, argv: &[String]) -> Result<Args, String> {
        let mut values = exp.declared();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some((flag, slot)) = values.iter_mut().find(|(f, _)| f.name == name) else {
                return Err(format!("unknown flag {name}"));
            };
            let Some(value) = inline.or_else(|| argv.next().cloned()) else {
                return Err(format!("{name} needs a value"));
            };
            if let Some(expected) = flag.expects(&value) {
                return Err(format!("{name} takes {expected}, not {value}"));
            }
            *slot = value;
        }
        Ok(Args { exp, values })
    }

    /// The text of a declared flag, `None` when unset.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let (_, value) = self.values.iter().find(|(f, _)| f.name == name)?;
        (!value.is_empty()).then_some(value.as_str())
    }

    /// The value of a declared flag that has a default.
    ///
    /// # Panics
    ///
    /// Panics on a flag the entry does not declare.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let value = self.opt(name).and_then(|v| v.parse().ok());
        value.unwrap_or_else(|| panic!("{} declares no usable {name}", self.exp.name))
    }

    /// Worker threads (`--jobs`).
    pub fn jobs(&self) -> usize {
        match self.get("--jobs") {
            0 => runner::default_jobs(),
            n => n,
        }
    }

    /// Base RNG seed (`--seed`, else the entry's).
    pub fn seed(&self) -> u64 {
        self.get("--seed")
    }

    /// Whether `--topo` (`topo15`, `rnp28` or `both`) selects `name`.
    pub fn wants_topo(&self, name: &str) -> bool {
        matches!(self.opt("--topo"), Some(which) if which == "both" || which == name)
    }

    /// How a sweep entry executes its sweep (`--jobs`, `--checkpoint`).
    pub fn sweep(&self) -> sweep::Opts {
        sweep::Opts {
            jobs: self.jobs(),
            checkpoint: self.opt("--checkpoint").map(Into::into),
        }
    }

    /// Writes a sweep's JSON document to `--out`; nowhere without it.
    pub fn write_document(&self, text: &str) {
        let Some(out) = self.opt("--out") else {
            return;
        };
        match std::fs::write(out, text) {
            Ok(()) => eprintln!("{}: wrote {out}", self.exp.name),
            Err(e) => eprintln!("{}: cannot write {out}: {e}", self.exp.name),
        }
    }

    /// Refuses a flag value only the experiment can judge.
    pub fn refuse(&self, why: &str) -> ExitCode {
        refuse(&format!("{}: {why}", self.exp.name))
    }
}

/// Prints an experiment's table and succeeds.
pub fn print(table: impl Display) -> ExitCode {
    print!("{table}");
    ExitCode::SUCCESS
}

fn refuse(why: &str) -> ExitCode {
    eprintln!("kar-bench: {why}\nusage: kar-bench <experiment> [--flag value]…  (kar-bench list, kar-bench <experiment> --help)");
    ExitCode::from(2)
}

/// `kar-bench`'s `main`: `argv` without the program name.
pub fn main(argv: &[String]) -> ExitCode {
    let Some((name, rest)) = argv.split_first() else {
        return refuse("missing experiment");
    };
    if name == "list" {
        for exp in REGISTRY {
            println!("{:<26} {}", exp.name, exp.about);
        }
        return ExitCode::SUCCESS;
    }
    let Some(exp) = REGISTRY.iter().find(|e| e.name == name) else {
        return refuse(&format!("unknown experiment {name}"));
    };
    if rest.iter().any(|a| a == "--help") {
        print!("{}", exp.help());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(exp, rest) {
        Ok(args) => args,
        Err(why) => return refuse(&format!("{name}: {why}")),
    };
    if !exp.simulates {
        return (exp.run)(&args);
    }
    obs::init(
        args.opt("--metrics").map(Path::new),
        args.opt("--trace").map(Path::new),
        args.get("--events-cap"),
    );
    let code = (exp.run)(&args);
    obs::finish();
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    static SWEEP_ENTRY: Experiment =
        Experiment::new("test", "", &[flag("--runs", "30", ""), TOPO], |_| {
            ExitCode::SUCCESS
        })
        .seed(7)
        .sweep();

    fn parse(args: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse(&SWEEP_ENTRY, &argv)
    }

    #[test]
    fn seed_flag_beats_default() {
        assert_eq!(parse(&["--seed", "42"]).unwrap().seed(), 42);
        assert_eq!(parse(&["--seed=9"]).unwrap().seed(), 9);
        assert_eq!(parse(&[]).unwrap().seed(), 7);
    }

    #[test]
    fn jobs_flag_is_recognized() {
        assert_eq!(parse(&["--jobs", "3"]).unwrap().jobs(), 3);
        let args = parse(&["--jobs=2", "--jobs=5"]).unwrap();
        assert_eq!(args.jobs(), 5, "last wins");
    }

    #[test]
    fn sweep_flags_are_parsed_in_one_place() {
        let args = parse(&["--checkpoint", "c.ckpt", "--out=doc.json", "--jobs", "2"]).unwrap();
        assert_eq!(args.opt("--out"), Some("doc.json"));
        let opts = args.sweep();
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.checkpoint, Some("c.ckpt".into()));
        let args = parse(&[]).unwrap();
        assert_eq!((args.opt("--checkpoint"), args.opt("--out")), (None, None));
        assert_eq!(args.get::<usize>("--runs"), 30);
        assert!(args.wants_topo("rnp28"));
        assert!(!parse(&["--topo", "topo15"]).unwrap().wants_topo("rnp28"));
    }

    #[test]
    fn undeclared_flags_are_refused() {
        for (argv, token) in [
            (&["--correlated"][..], "--correlated"),
            (&["--seed", "4", "extra"], "extra"),
            (&["--runs"], "--runs"),
            (&["--runs", "x"], "x"),
            (&["--topo", "topo16"], "topo16"),
        ] {
            let why = parse(argv).unwrap_err();
            assert!(why.contains(token), "{argv:?}: {why}");
        }
        let events_cap = COMMON.iter().find(|f| f.name == "--events-cap").unwrap();
        let ring_cap = kar_obs::EVENT_RING_CAP.to_string();
        assert_eq!(events_cap.default, ring_cap);
    }
}
