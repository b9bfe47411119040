//! `kar-perf` — the benchmark `BENCHMARK.json` names.
//!
//! ```text
//! kar-perf [run] --workload W --seed N [--seconds S] [--trace 0|1] [--smoke]
//! kar-perf trace --workload W --seed N          (= run --trace 1)
//! kar-perf all [--seed N] [--smoke] [--out FILE]
//! kar-perf compare A.json B.json
//! ```
//!
//! A run sets its workload up from the seed, then either repeats the
//! workload's fixed work for `--seconds` with tracing, obs and profiler
//! off and prints the end-to-end metrics (`--trace 0`), or makes the
//! separate traced run that prints the per-layer ledger (`--trace 1`).
//! The last line of output is the result object the benchmark driver
//! reads; the line before it carries the same run with every sample,
//! which `all` collects into one document and `compare` judges against
//! the bounds in `BENCHMARK.json`.
//!
//! Every workload runs in a process of its own, so `setup_s` and
//! `peak_rss_mb` belong to it alone.

mod dp;
mod dp_units;
mod json;
mod ledger;
mod span;
mod stats;
mod svc;
mod svc_units;
mod sys;
mod verify;
mod workload;

use json::Json;
use kar_obs::{escape, json_f64};
use span::Tracer;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Rep, Scale, Workload};

/// The contract this binary is built against; also what `all` checks
/// the printed names against.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Fewest repetitions of a timed run, however long one takes: the
/// reported rate is a median.
const MIN_REPS: usize = 3;
/// Set-up is repeated (and the median pass reported) while it is cheap:
/// at most this many passes, and no new pass once this much time has
/// gone into set-up.
const SETUP_PASSES: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(2_500);

pub struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    bound: f64,
}

pub struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(SPEC).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| -> String {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be a string"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            doc.get(key)
                .map_or(&[][..], Json::items)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Json::items)
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dp-fig7-tcp" => Box::new(dp::Dp::build(dp::Kind::Fig7Tcp, seed, scale)),
        "dp-ring256-fleet" => Box::new(dp::Dp::build(dp::Kind::Ring256Fleet, seed, scale)),
        "dp-ring512-hier" => Box::new(dp::Dp::build(dp::Kind::Ring512Hier, seed, scale)),
        "svc-warm" => Box::new(svc::Svc::build(svc::Kind::Warm, seed, scale)),
        "svc-cold" => Box::new(svc::Svc::build(svc::Kind::Cold, seed, scale)),
        "svc-churn" => Box::new(svc::Svc::build(svc::Kind::Churn, seed, scale)),
        "verify-k3" => Box::new(verify::Verify::build(scale)),
        _ => return None,
    })
}

/// One metric of a finished run.
struct Measured {
    name: String,
    unit: String,
    /// What the run reports for the metric.
    value: f64,
    samples: Vec<f64>,
}

impl Measured {
    /// A metric reported as the median of its samples; a per-layer
    /// metric of a layer the workload never enters has no samples and
    /// reports 0.
    fn median_of(metric: &Metric, samples: Vec<f64>) -> Measured {
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        Measured {
            name: metric.name.clone(),
            unit: metric.unit.clone(),
            value,
            samples,
        }
    }
}

/// A finished run of one workload.
pub struct Run {
    workload: String,
    traced: bool,
    reps: usize,
    attempted: u64,
    failed: u64,
    /// Measured names `BENCHMARK.json` does not list.
    unlisted: Vec<String>,
    metrics: Vec<Measured>,
}

impl Run {
    fn new(name: &str, traced: bool, reps: &[Rep], metrics: Vec<Measured>) -> Run {
        Run {
            workload: name.to_string(),
            traced,
            reps: reps.len(),
            attempted: reps.iter().map(|r| r.ops).sum(),
            failed: reps.iter().map(|r| r.failed).sum(),
            unlisted: Vec::new(),
            metrics,
        }
    }

    /// The timed run: repeats the fixed work for `seconds` (at least
    /// `min_reps` times) with tracing off and reports the end-to-end
    /// metrics.
    pub fn timed(
        spec: &Spec,
        name: &str,
        workload: &mut dyn Workload,
        setup: Vec<Duration>,
        seconds: f64,
        min_reps: usize,
    ) -> Run {
        let mut tracer = Tracer::off();
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
            reps.push(workload.repetition(&mut tracer));
        }
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| match m.name.as_str() {
                // The first quartile of the per-repetition rates — the
                // rate three repetitions in four reach. This sandbox runs
                // 25 % faster for 5–15 s stretches about a fifth of the
                // time; over a 240 s series of 0.16 s repetitions the
                // median of a 10 s window moved by 9 % (interquartile)
                // and its first quartile by 2 %.
                "ops_per_s" => {
                    let rates: Vec<f64> = reps.iter().map(Rep::ops_per_s).collect();
                    Measured {
                        value: quartiles(&rates).0,
                        ..Measured::median_of(m, rates)
                    }
                }
                "setup_s" => {
                    Measured::median_of(m, setup.iter().map(Duration::as_secs_f64).collect())
                }
                "peak_rss_mb" => Measured::median_of(m, vec![sys::peak_rss_mib()]),
                other => panic!(
                    "BENCHMARK.json lists end-to-end metric `{other}`, which this binary does not measure"
                ),
            })
            .collect();
        Run::new(name, false, &reps, metrics)
    }

    /// The traced run: per-layer metrics, one line per name in
    /// `BENCHMARK.json`.
    fn traced(spec: &Spec, name: &str, seed: u64, workload: &mut dyn Workload) -> Run {
        let mut tracer = Tracer::on();
        let (layers, reps) = workload.traced(&mut tracer);
        let totals = tracer.totals();
        if !totals.is_empty() {
            println!("spans (count, total, self):");
            for (span, t) in &totals {
                println!(
                    "  {span:<22} {:>8} {:>10.2} ms {:>10.2} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        let path = out_dir().join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_json(&mut w, name, seed)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }

        let mut measured: BTreeMap<String, f64> = layers.into_iter().collect();
        let metrics = spec
            .per_layer
            .iter()
            .map(|m| Measured::median_of(m, measured.remove(&m.name).into_iter().collect()))
            .collect();
        let mut run = Run::new(name, true, &reps, metrics);
        run.unlisted = measured.into_keys().collect();
        run
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unlisted.is_empty()
    }

    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    /// Prints every metric by name with its unit, then the detail line
    /// and, last, the result object the driver reads.
    fn print(&self, seed: u64, smoke: bool) {
        println!(
            "{} seed {seed}: {} run, {} repetitions{}",
            self.workload,
            if self.traced { "traced" } else { "timed" },
            self.reps,
            if smoke {
                " — SMOKE, numbers not comparable"
            } else {
                ""
            }
        );
        for m in &self.metrics {
            match m.samples.len() {
                0 => {}
                1 => println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit),
                n => {
                    let (q1, q3) = quartiles(&m.samples);
                    println!(
                        "  {:<44} {:>16.4} {}  n = {n}, quartiles {q1:.4} .. {:.4} .. {q3:.4}",
                        m.name,
                        m.value,
                        m.unit,
                        median(&m.samples)
                    );
                }
            }
        }
        let not_entered = self.metrics.iter().filter(|m| m.samples.is_empty()).count();
        if not_entered > 0 {
            println!(
                "  {not_entered} per-layer metrics of layers this workload never enters report 0"
            );
        }
        for name in &self.unlisted {
            eprintln!(
                "FAILED {}: measured `{name}`, which BENCHMARK.json does not list",
                self.workload
            );
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );

        let detail: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|&s| json_f64(s)).collect();
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"samples\":[{}]}}",
                    escape(&m.name),
                    escape(&m.unit),
                    json_f64(m.value),
                    samples.join(",")
                )
            })
            .collect();
        println!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"smoke\":{smoke},\"reps\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            escape(&self.workload),
            u8::from(self.traced),
            self.reps,
            self.correct(),
            self.attempted,
            self.failed,
            detail.join(",")
        );
        let result: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    json_f64(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            result.join(", ")
        );
    }
}

/// `benchmark/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    smoke: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
            smoke: false,
        };
        while let Some(a) = raw.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                args.flags.insert(flag.to_string(), value);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: `{v}` is not a number")),
            None => Ok(default),
        }
    }
}

fn run(args: &Args, trace_default: u8) -> Result<u8, String> {
    let spec = Spec::load();
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec.run_seconds)?;
    let traced = args.number("trace", trace_default)? != 0;
    let scale = Scale { smoke: args.smoke };

    // Set-up, repeated while cheap; the last pass's workload is used.
    let set_up_started = Instant::now();
    let mut setup = Vec::new();
    let mut workload;
    loop {
        let pass = Instant::now();
        workload = build(name, seed, scale).ok_or_else(|| {
            format!(
                "unknown workload `{name}` (have: {})",
                spec.workloads.join(", ")
            )
        })?;
        setup.push(pass.elapsed());
        if setup.len() == SETUP_PASSES || set_up_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        drop(workload);
    }

    let run = if traced {
        Run::traced(&spec, name, seed, workload.as_mut())
    } else if args.smoke {
        Run::timed(&spec, name, workload.as_mut(), setup, 0.0, 1)
    } else {
        Run::timed(&spec, name, workload.as_mut(), setup, seconds, MIN_REPS)
    };
    drop(workload);
    run.print(seed, args.smoke);
    Ok(run.exit_code())
}

/// Runs every workload timed and traced, each in a child process,
/// checks the printed names against `BENCHMARK.json` and writes one
/// result document.
fn all(args: &Args) -> Result<u8, String> {
    let spec = Spec::load();
    let seed: u64 = args.number("seed", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    let mut details = Vec::new();
    let mut layer_seen: BTreeMap<&str, bool> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), false))
        .collect();
    for workload in &spec.workloads {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args([
                "run",
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--trace",
                trace,
            ]);
            if args.smoke {
                child.arg("--smoke");
            }
            let out = child
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let Some((detail, human)) = lines.split_last().and_then(|(_, rest)| rest.split_last())
            else {
                problems.push(format!("{workload} --trace {trace} printed no result"));
                continue;
            };
            for line in human {
                println!("{line}");
            }
            // A child that measured a name `BENCHMARK.json` does not list,
            // or failed a correctness check, says so and exits non-zero.
            if !out.status.success() {
                problems.push(format!(
                    "{workload} --trace {trace} exited with {}",
                    out.status
                ));
            }
            let parsed =
                Json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?;
            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                problems.push(format!("{workload} --trace {trace}: no metrics"));
                continue;
            };
            let listed = if trace == "0" {
                &spec.end_to_end
            } else {
                &spec.per_layer
            };
            for m in listed {
                match metrics.get(&m.name) {
                    None => problems.push(format!(
                        "{workload} --trace {trace} did not print `{}`",
                        m.name
                    )),
                    Some(v)
                        if trace == "1"
                            && !v.get("samples").map_or(&[][..], Json::items).is_empty() =>
                    {
                        layer_seen.insert(&m.name, true);
                    }
                    Some(_) => {}
                }
            }
            details.push(detail.to_string());
        }
    }
    for (name, seen) in layer_seen {
        if !seen {
            problems.push(format!("no workload measured per-layer metric `{name}`"));
        }
    }

    let document = format!(
        "{{\"tool\":\"kar-perf\",\"comparable\":{},\"seed\":{seed},\"run_seconds\":{},\"min_reps\":{MIN_REPS},{},\n\"runs\":[\n{}\n]}}\n",
        !args.smoke,
        json_f64(spec.run_seconds),
        sys::env_json(),
        details.join(",\n")
    );
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &document).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{document}"),
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    Ok(u8::from(!problems.is_empty()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Even the candidate's worse quartile is within the bound.
    Within,
    /// Even the candidate's better quartile is beyond the bound.
    Worse,
    /// The bound falls between the candidate's quartiles: the spread is
    /// wider than the difference being judged.
    Unresolved,
}

/// Judges the candidate's samples `b` against the parent's reported
/// value: `b` may be worse by at most `bound` (a share of the parent's
/// value).
fn verdict(parent: f64, b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (q1, q3) = quartiles(b);
    let worse_by = |x: f64| {
        if lower_is_better {
            (x - parent) / parent
        } else {
            (parent - x) / parent
        }
    };
    let (better_quartile, worse_quartile) = if lower_is_better { (q1, q3) } else { (q3, q1) };
    if worse_by(worse_quartile) <= bound {
        Verdict::Within
    } else if worse_by(better_quartile) > bound {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// `(workload, metric)` → reported value and samples.
type Results = BTreeMap<(String, String), (f64, Vec<f64>)>;

/// The timed runs of an `all` document.
fn timed_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("comparable") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{path} is not comparable (a --smoke run, or not an `all` document)"
        ));
    }
    let mut out = BTreeMap::new();
    for run in doc.get("runs").map_or(&[][..], Json::items) {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let samples = m
                    .get("samples")
                    .map_or(&[][..], Json::items)
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                out.insert((workload.to_string(), name.clone()), (value, samples));
            }
        }
    }
    Ok(out)
}

/// Applies the bounds in `BENCHMARK.json` to two result documents:
/// `a` is the parent, `b` the candidate.
fn compare(args: &Args) -> Result<u8, String> {
    let [_, a_path, b_path] = &args.positional[..] else {
        return Err("usage: kar-perf compare <parent.json> <candidate.json>".into());
    };
    let spec = Spec::load();
    let (a, b) = (timed_results(a_path)?, timed_results(b_path)?);
    let mut worse = 0;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "candidate", "change", "bound"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some((parent, _)), Some((candidate, samples))) = (a.get(&key), b.get(&key)) else {
                return Err(format!(
                    "{workload} {} is missing from one document",
                    m.name
                ));
            };
            let v = verdict(*parent, samples, m.lower_is_better, m.bound);
            worse += u8::from(v == Verdict::Worse);
            println!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                parent,
                candidate,
                100.0 * (candidate - parent) / parent,
                100.0 * m.bound,
                match v {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(u8::from(worse > 0))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kar-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None | Some("run") => run(&args, 0),
        Some("trace") => run(&args, 1),
        Some("all") => all(&args),
        Some("compare") => compare(&args),
        Some(other) => Err(format!(
            "unknown command `{other}` (run, trace, all, compare)"
        )),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("kar-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_names_what_this_binary_runs() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 7);
        for w in &spec.workloads {
            assert!(
                ["dp-", "svc-", "verify-"].iter().any(|p| w.starts_with(p)),
                "{w}"
            );
        }
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["ops_per_s", "setup_s", "peak_rss_mb"]);
        assert!(!spec.end_to_end[0].lower_is_better);
        assert!(spec.end_to_end[1].lower_is_better);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(build("no-such-workload", 1, Scale { smoke: true }).is_none());
    }

    #[test]
    fn verdicts_follow_the_candidates_quartiles() {
        let parent = 100.0;
        // Higher is better, bound 10 %: 95 is within, 80 is worse, and a
        // candidate whose quartiles straddle 90 is unresolved.
        assert_eq!(
            verdict(parent, &[95.0, 96.0, 97.0], false, 0.10),
            Verdict::Within
        );
        assert_eq!(verdict(parent, &[120.0], false, 0.10), Verdict::Within);
        assert_eq!(
            verdict(parent, &[80.0, 81.0, 82.0], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(parent, &[85.0, 90.0, 95.0], false, 0.10),
            Verdict::Unresolved
        );
        // Lower is better: the mirror image.
        assert_eq!(
            verdict(parent, &[104.0, 105.0, 106.0], true, 0.10),
            Verdict::Within
        );
        assert_eq!(verdict(parent, &[50.0], true, 0.10), Verdict::Within);
        assert_eq!(verdict(parent, &[120.0], true, 0.10), Verdict::Worse);
        assert_eq!(
            verdict(parent, &[105.0, 110.0, 115.0], true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn flags_and_positionals_parse() {
        let raw = [
            "run",
            "--workload",
            "svc-warm",
            "--seed",
            "7",
            "--smoke",
            "--trace",
            "1",
        ];
        let args = Args::parse(raw.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(args.positional, ["run"]);
        assert!(args.smoke);
        assert_eq!(args.flags["workload"], "svc-warm");
        assert_eq!(args.number("seed", 1u64), Ok(7));
        assert_eq!(args.number("seconds", 5.0), Ok(5.0));
        assert!(args.number::<u64>("workload", 0).is_err());
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
    }
}
