//! Bench-trend observatory: per-metric trajectories across git history.
//!
//! The committed `BENCH_*.json` documents pin one snapshot each of the
//! scale sweep, the breaking-point search, the adversary campaign, the
//! service load run and the hierarchy sweep. This module turns *every
//! committed revision* of those documents (via `git log` / `git show`,
//! plus the working tree) into per-metric time series, so `kar-trend`
//! can answer "is it getting worse?" instead of only "what is it now?"
//! (documents are read with [`kar_obs::json`], the reader that matches
//! the writer they were emitted with):
//!
//! * [`extract_metrics`] — the per-document metric schema: which scalar
//!   trajectories each BENCH doc contributes and which direction is
//!   "better" for each;
//! * [`doc_history`] / [`build_series`] — the git walk;
//! * [`regressions`] — direction-aware threshold check of the newest
//!   point against its predecessor;
//! * [`render_report`] / [`trend_json`] — the terminal sparkline report
//!   and the `BENCH_trend.json` document.

use crate::sweep::lines;
use kar_obs::json::{Json, Obj};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The five trend-tracked documents at the repo root. (Absolute
/// per-layer dataplane costs live in the `kar-perf` ledger,
/// `BENCHMARK.json`, not here.)
pub const TREND_DOCS: &[&str] = &[
    "BENCH_scale.json",
    "BENCH_breaking.json",
    "BENCH_adversary.json",
    "BENCH_service.json",
    "BENCH_hier.json",
];

/// Default regression tolerance: a metric may move up to this fraction
/// in its "worse" direction before the gate trips.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

// ---------------------------------------------------------------------------
// Metric extraction
// ---------------------------------------------------------------------------

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (speedups, delivery ratios, reachability,
    /// breaking-point k).
    HigherIsBetter,
    /// Smaller is better (bits per route, violation counts).
    LowerIsBetter,
}

impl Direction {
    /// The JSON spelling (`"higher"` / `"lower"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
        }
    }
}

/// One scalar a BENCH document contributes to the trend.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name, `doc/…/leaf` shaped.
    pub name: String,
    /// The scalar at this revision.
    pub value: f64,
    /// Which way "better" points.
    pub direction: Direction,
}

fn push(out: &mut Vec<Metric>, name: String, value: Option<f64>, direction: Direction) {
    if let Some(value) = value.filter(|v| v.is_finite()) {
        out.push(Metric {
            name,
            value,
            direction,
        });
    }
}

/// `<prefix>/<field>` for each wanted numeric member `obj` has.
fn fields(out: &mut Vec<Metric>, prefix: &str, obj: &Json, wanted: &[(&str, Direction)]) {
    for &(field, direction) in wanted {
        let value = obj.get(field).and_then(Json::as_f64);
        push(out, format!("{prefix}/{field}"), value, direction);
    }
}

/// Extracts the tracked metrics from one parsed BENCH document.
/// `doc` is the file name (e.g. `BENCH_scale.json`); unknown documents
/// yield no metrics. Extraction is tolerant: fields a past revision
/// lacked simply produce no point for that commit.
pub fn extract_metrics(doc: &str, json: &Json) -> Vec<Metric> {
    use Direction::*;
    let mut out = Vec::new();
    let cells = json.get("cells").and_then(Json::as_arr).unwrap_or_default();
    let text = |cell: &'_ Json, key: &str| cell.get(key).and_then(Json::as_str).map(str::to_string);
    match doc {
        "BENCH_scale.json" | "BENCH_hier.json" => {
            // Traffic and verification fields exist only for the
            // simulated schemes; hier's table cells simply lack them.
            let (prefix, wanted): (&str, &[(&str, Direction)]) = if doc == "BENCH_scale.json" {
                (
                    "scale",
                    &[
                        ("route_bits_max", LowerIsBetter),
                        ("delivery_ratio", HigherIsBetter),
                    ],
                )
            } else {
                (
                    "hier",
                    &[
                        ("header_bits_max", LowerIsBetter),
                        ("delivery_ratio", HigherIsBetter),
                        ("stretch", LowerIsBetter),
                        ("verify_new_classes", LowerIsBetter),
                    ],
                )
            };
            for cell in cells {
                if let Some(name) = text(cell, "cell") {
                    fields(&mut out, &format!("{prefix}/{name}"), cell, wanted);
                }
            }
        }
        "BENCH_breaking.json" => {
            let mut violations_at_k2 = 0.0;
            let mut cells_seen = false;
            for cell in cells {
                let key = ["topo", "src", "dst", "technique", "protection"]
                    .iter()
                    .filter_map(|k| text(cell, k))
                    .collect::<Vec<_>>()
                    .join("/");
                if key.is_empty() {
                    continue;
                }
                cells_seen = true;
                let max_k = cell.get("max_k").and_then(Json::as_f64).unwrap_or(0.0);
                // A null `breaking` means the technique survived the
                // whole search: score it one past max_k so "never broke"
                // beats "broke at max_k" in the trajectory.
                let k = match cell.get("breaking") {
                    Some(b) if !b.is_null() => b.get("k").and_then(Json::as_f64),
                    Some(_) => Some(max_k + 1.0),
                    None => None,
                };
                if k.is_some_and(|k| k <= 2.0) {
                    violations_at_k2 += 1.0;
                }
                push(&mut out, format!("breaking/{key}/k"), k, HigherIsBetter);
            }
            if cells_seen {
                let name = "breaking/violations_at_k2".to_string();
                push(&mut out, name, Some(violations_at_k2), LowerIsBetter);
            }
        }
        "BENCH_service.json" => {
            // Deterministic columns gate every run; the wall-clock
            // columns (QPS, latency percentiles) exist only in "full"
            // documents (>= 1M requests), so a CI smoke run can never
            // trip the gate on scheduler noise.
            let always = [
                ("errors", LowerIsBetter),
                ("byte_mismatches", LowerIsBetter),
            ];
            fields(&mut out, "service", json, &always);
            if json.get("mode").and_then(Json::as_str) == Some("full") {
                let timed = [
                    ("qps", HigherIsBetter),
                    ("p50_us", LowerIsBetter),
                    ("p99_us", LowerIsBetter),
                ];
                fields(&mut out, "service", json, &timed);
            }
        }
        "BENCH_adversary.json" => {
            for cell in cells {
                let get = |key| text(cell, key).unwrap_or_else(|| "?".into());
                let intensity = cell.get("intensity").and_then(Json::as_f64).unwrap_or(0.0);
                let prefix = format!(
                    "adversary/{}/{}/i{intensity}/{}",
                    get("topo"),
                    get("attack"),
                    get("scheme")
                );
                fields(&mut out, &prefix, cell, &[("reachability", HigherIsBetter)]);
            }
        }
        _ => {}
    }
    out
}

// ---------------------------------------------------------------------------
// Git history walk
// ---------------------------------------------------------------------------

/// One revision of one BENCH document.
#[derive(Debug, Clone)]
pub struct DocRevision {
    /// Abbreviated commit id, or `"worktree"` for the checked-out copy.
    pub commit: String,
    /// Commit timestamp (unix seconds); the worktree point gets the
    /// newest commit's timestamp so ordering stays total.
    pub ts: u64,
    /// The document text at that revision.
    pub content: String,
}

fn git(repo: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Every committed revision of `doc` (oldest first), then the working
/// tree when it differs from the newest committed content. Works
/// without git too (plain directory): only the on-disk copy is
/// returned, and the trend degenerates to a single point per metric.
pub fn doc_history(repo: &Path, doc: &str) -> Vec<DocRevision> {
    let mut revs = Vec::new();
    if let Some(log) = git(repo, &["log", "--reverse", "--format=%h %ct", "--", doc]) {
        for line in log.lines() {
            let mut parts = line.split_whitespace();
            let (Some(commit), Some(ts)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(ts) = ts.parse() else { continue };
            let Some(content) = git(repo, &["show", &format!("{commit}:{doc}")]) else {
                continue;
            };
            revs.push(DocRevision {
                commit: commit.to_string(),
                ts,
                content,
            });
        }
    }
    if let Ok(content) = std::fs::read_to_string(repo.join(doc)) {
        if revs.last().map(|r| r.content != content).unwrap_or(true) {
            let ts = revs.last().map(|r| r.ts).unwrap_or(0);
            revs.push(DocRevision {
                commit: "worktree".to_string(),
                ts,
                content,
            });
        }
    }
    revs
}

// ---------------------------------------------------------------------------
// Series + regression check
// ---------------------------------------------------------------------------

/// One observation of one metric at one revision.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Abbreviated commit id (or `"worktree"`).
    pub commit: String,
    /// Commit timestamp (unix seconds).
    pub ts: u64,
    /// The metric value at that revision.
    pub value: f64,
}

/// A metric's full trajectory, oldest point first.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Stable metric name.
    pub name: String,
    /// Which way "better" points.
    pub direction: Direction,
    /// Observations, oldest first.
    pub points: Vec<TrendPoint>,
}

impl Series {
    /// The newest observation.
    pub fn latest(&self) -> Option<&TrendPoint> {
        self.points.last()
    }
}

/// Builds all metric series from a set of document revision histories.
/// `histories` pairs each document name with its revisions (as from
/// [`doc_history`]); malformed revisions are skipped.
pub fn build_series(histories: &[(String, Vec<DocRevision>)]) -> Vec<Series> {
    let mut by_name: BTreeMap<String, Series> = BTreeMap::new();
    for (doc, revs) in histories {
        for rev in revs {
            let Ok(json) = Json::parse(&rev.content) else {
                continue;
            };
            for m in extract_metrics(doc, &json) {
                by_name
                    .entry(m.name.clone())
                    .or_insert_with(|| Series {
                        name: m.name,
                        direction: m.direction,
                        points: Vec::new(),
                    })
                    .points
                    .push(TrendPoint {
                        commit: rev.commit.clone(),
                        ts: rev.ts,
                        value: m.value,
                    });
            }
        }
    }
    by_name.into_values().collect()
}

/// A tripped regression threshold: the newest point moved more than
/// `tolerance` in the metric's "worse" direction relative to its
/// predecessor.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed metric.
    pub name: String,
    /// The value one revision back.
    pub prev: f64,
    /// The newest value.
    pub latest: f64,
    /// Signed relative change, `(latest - prev) / |prev|`.
    pub delta: f64,
}

/// Direction-aware regression check of each series' newest point
/// against the one before it. Series with fewer than two points cannot
/// regress; a previous value of exactly zero compares absolutely
/// (any worsening move beyond `tolerance` trips).
pub fn regressions(series: &[Series], tolerance: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for s in series {
        let n = s.points.len();
        if n < 2 {
            continue;
        }
        let prev = s.points[n - 2].value;
        let latest = s.points[n - 1].value;
        let delta = if prev.abs() > f64::EPSILON {
            (latest - prev) / prev.abs()
        } else {
            latest - prev
        };
        let worsening = match s.direction {
            Direction::HigherIsBetter => -delta,
            Direction::LowerIsBetter => delta,
        };
        if worsening > tolerance {
            out.push(Regression {
                name: s.name.clone(),
                prev,
                latest,
                delta,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders values as a unicode sparkline, scaled min..max; a flat
/// series renders mid-height.
pub fn sparkline(values: &[f64]) -> String {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    values
        .iter()
        .map(|v| {
            if (max - min).abs() < f64::EPSILON {
                SPARK[3]
            } else {
                let t = (v - min) / (max - min);
                SPARK[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e9 {
        format!("{v}")
    } else {
        format!("{v:.3}")
    }
}

/// The terminal report: every multi-point trajectory as a sparkline
/// with its latest move, single-point metrics summarized by count, and
/// the regression list last (so it is what the eye lands on).
pub fn render_report(series: &[Series], regs: &[Regression], tolerance: f64) -> String {
    let mut out = String::new();
    let commits: std::collections::BTreeSet<&str> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.commit.as_str()))
        .collect();
    out.push_str(&format!(
        "kar-trend: {} metric(s) across {} revision(s), tolerance {:.1}%\n\n",
        series.len(),
        commits.len(),
        tolerance * 100.0
    ));
    let mut flat = 0usize;
    for s in series {
        if s.points.len() < 2 {
            flat += 1;
            continue;
        }
        let values: Vec<f64> = s.points.iter().map(|p| p.value).collect();
        let prev = values[values.len() - 2];
        let latest = values[values.len() - 1];
        let delta = if prev.abs() > f64::EPSILON {
            format!("{:+.1}%", 100.0 * (latest - prev) / prev.abs())
        } else {
            format!("{:+.3}", latest - prev)
        };
        out.push_str(&format!(
            "  {} {}  {} → {} ({delta})\n",
            sparkline(&values),
            s.name,
            fmt_value(prev),
            fmt_value(latest),
        ));
    }
    if flat > 0 {
        out.push_str(&format!(
            "  ({flat} metric(s) have a single revision — no trend yet)\n"
        ));
    }
    out.push('\n');
    if regs.is_empty() {
        out.push_str("no regressions beyond tolerance.\n");
    } else {
        out.push_str(&format!("REGRESSIONS ({}):\n", regs.len()));
        for r in regs {
            out.push_str(&format!(
                "  ⚠ {}  {} → {} ({:+.1}%, tolerance {:.1}%)\n",
                r.name,
                fmt_value(r.prev),
                fmt_value(r.latest),
                r.delta * 100.0,
                tolerance * 100.0
            ));
        }
    }
    out
}

/// Whole numbers print as integers (`3`, not `3.0`), as the committed
/// document always had them.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Serializes the full trend document (`BENCH_trend.json`).
pub fn trend_json(series: &[Series], regs: &[Regression], tolerance: f64) -> String {
    let metrics = series.iter().map(|s| {
        let points: Vec<String> = s
            .points
            .iter()
            .map(|p| {
                Obj::new()
                    .str("commit", &p.commit)
                    .num("ts", p.ts)
                    .num("value", json_num(p.value))
                    .finish()
            })
            .collect();
        Obj::new()
            .str("name", &s.name)
            .str("direction", s.direction.as_str())
            .raw("points", format_args!("[{}]", points.join(",")))
            .finish()
    });
    let regressions = regs.iter().map(|r| {
        Obj::new()
            .str("name", &r.name)
            .num("prev", json_num(r.prev))
            .num("latest", json_num(r.latest))
            .num("delta", json_num(r.delta))
            .finish()
    });
    // `lines` ends a non-empty list with a newline; the committed
    // document also breaks the line after an empty one.
    let block = |items: String| if items.is_empty() { "\n".into() } else { items };
    format!(
        "{{\n\"campaign\":\"trend\",\n\"tolerance\":{tolerance},\n\"metrics\":[\n{}],\n\"regressions\":[\n{}]\n}}\n",
        block(lines(metrics)),
        block(lines(regressions)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_json(text: &str) -> Result<Json, String> {
        Json::parse(text)
    }

    #[test]
    fn json_parser_round_trips_the_shapes_we_read() {
        let doc = r#"{"bench":"x","n":-1.5e2,"ok":true,"none":null,
                      "arr":[1,2,{"k":"v \"q\" A"}]}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert!(v.get("none").unwrap().is_null());
        let arr = v.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(
            arr[2].get("k").and_then(Json::as_str),
            Some("v \"q\" A"),
            "escapes decode"
        );
        assert!(parse_json("{\"a\":1}x").is_err(), "trailing junk rejected");
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn breaking_metrics_score_survival_and_count_k2_violations() {
        let doc = r#"{"cells":[
          {"topo":"t","src":"a","dst":"b","technique":"AVP","protection":"none",
           "max_k":3,"breaking":{"k":1}},
          {"topo":"t","src":"a","dst":"b","technique":"HP","protection":"none",
           "max_k":3,"breaking":null},
          {"topo":"t","src":"a","dst":"b","technique":"NIP","protection":"none",
           "max_k":3,"breaking":{"k":3}}]}"#;
        let metrics = extract_metrics("BENCH_breaking.json", &parse_json(doc).unwrap());
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name.contains(name))
                .map(|m| m.value)
        };
        assert_eq!(get("/AVP/"), Some(1.0));
        assert_eq!(get("/HP/"), Some(4.0), "null breaking scores max_k+1");
        assert_eq!(get("/NIP/"), Some(3.0));
        let v = metrics
            .iter()
            .find(|m| m.name == "breaking/violations_at_k2")
            .unwrap();
        assert_eq!(v.value, 1.0, "only AVP broke at k<=2");
        assert_eq!(v.direction, Direction::LowerIsBetter);
    }

    #[test]
    fn service_metrics_gate_wall_clock_on_full_mode() {
        let full = r#"{"campaign":"service","mode":"full","requests":1000000,
                       "errors":0,"byte_mismatches":0,
                       "qps":52000.5,"p50_us":71.2,"p99_us":190.0}"#;
        let metrics = extract_metrics("BENCH_service.json", &parse_json(full).unwrap());
        let get = |name: &str| metrics.iter().find(|m| m.name == name);
        assert_eq!(get("service/errors").map(|m| m.value), Some(0.0));
        assert_eq!(get("service/byte_mismatches").map(|m| m.value), Some(0.0));
        assert_eq!(get("service/qps").map(|m| m.value), Some(52000.5));
        assert_eq!(
            get("service/qps").map(|m| m.direction),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(get("service/p50_us").map(|m| m.value), Some(71.2));
        assert_eq!(
            get("service/p99_us").map(|m| m.direction),
            Some(Direction::LowerIsBetter)
        );
        // A smoke run contributes only the deterministic columns, even
        // if stray timing fields are present.
        let smoke = r#"{"campaign":"service","mode":"smoke","requests":10000,
                        "errors":0,"byte_mismatches":0,"qps":1.0}"#;
        let metrics = extract_metrics("BENCH_service.json", &parse_json(smoke).unwrap());
        assert_eq!(metrics.len(), 2);
        assert!(metrics.iter().all(|m| !m.name.contains("qps")));
    }

    fn series(direction: Direction, values: &[f64]) -> Series {
        Series {
            name: "m".into(),
            direction,
            points: values
                .iter()
                .enumerate()
                .map(|(i, v)| TrendPoint {
                    commit: format!("c{i}"),
                    ts: i as u64,
                    value: *v,
                })
                .collect(),
        }
    }

    #[test]
    fn regression_check_is_direction_aware() {
        use Direction::*;
        // Higher-is-better dropping 10% trips a 5% tolerance...
        let s = [series(HigherIsBetter, &[2.0, 1.8])];
        assert_eq!(regressions(&s, 0.05).len(), 1);
        // ...but not a 15% tolerance, and improvements never trip.
        assert!(regressions(&s, 0.15).is_empty());
        let s = [series(HigherIsBetter, &[1.8, 2.0])];
        assert!(regressions(&s, 0.05).is_empty());
        // Lower-is-better: growth trips, shrinkage doesn't.
        let s = [series(LowerIsBetter, &[45.0, 52.0])];
        let regs = regressions(&s, 0.05);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].delta - 7.0 / 45.0).abs() < 1e-9);
        let s = [series(LowerIsBetter, &[52.0, 45.0])];
        assert!(regressions(&s, 0.05).is_empty());
        // Single points and zero-previous values don't panic.
        let s = [series(HigherIsBetter, &[2.0])];
        assert!(regressions(&s, 0.05).is_empty());
        let s = [series(LowerIsBetter, &[0.0, 0.2])];
        assert_eq!(
            regressions(&s, 0.05).len(),
            1,
            "zero base compares absolutely"
        );
    }

    #[test]
    fn a_synthetically_regressed_document_trips_the_gate() {
        // Two revisions of a service doc: the second loses half its
        // throughput. The gate must flag exactly that metric.
        let good = r#"{"mode":"full","errors":0,"byte_mismatches":0,"qps":100000.5}"#;
        let bad = r#"{"mode":"full","errors":0,"byte_mismatches":0,"qps":48000.25}"#;
        let histories = vec![(
            "BENCH_service.json".to_string(),
            vec![
                DocRevision {
                    commit: "aaaa111".into(),
                    ts: 1,
                    content: good.into(),
                },
                DocRevision {
                    commit: "worktree".into(),
                    ts: 2,
                    content: bad.into(),
                },
            ],
        )];
        let series = build_series(&histories);
        let regs = regressions(&series, DEFAULT_TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "service/qps");
        let report = render_report(&series, &regs, DEFAULT_TOLERANCE);
        assert!(report.contains("REGRESSIONS (1)"), "{report}");
        assert!(report.contains("⚠ service/qps"), "{report}");
        let doc = trend_json(&series, &regs, DEFAULT_TOLERANCE);
        assert!(doc.contains("\"campaign\":\"trend\""), "{doc}");
        assert!(doc.contains("\"commit\":\"aaaa111\""), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0]), "▁▅█");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
    }
}
