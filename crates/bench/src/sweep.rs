//! The one sweep engine: cell key → seed → [`run_map`] → record →
//! streamed checkpoint → grid-order document.
//!
//! Every sweep in this crate — scale, hier, adversary, breaking,
//! multi-failure, dynamic — is a list of cells, a function from a cell
//! to its record (one JSON object on one line, the record type's one
//! `to_json`) and a document header. [`run`] owns the rest:
//!
//! * **seeding** — [`keyed_seed`] hashes a sweep's own key string into
//!   its base seed, so a cell's seed never depends on its position in
//!   the grid (adding sizes or schemes later cannot reseed old cells);
//! * **fan-out** — cells are pure functions of `(cell, seed)`, so
//!   `--jobs N` is byte-identical to the serial sweep;
//! * **checkpoint / resume** — with [`Opts::checkpoint`] set, a header
//!   line carrying the configuration fingerprint is followed by one line
//!   per completed cell holding the record verbatim, appended as cells
//!   finish. A re-run splices matching cells back without recomputing
//!   them; a fingerprint mismatch starts the file over;
//! * **grid order** — records come back parsed, in cell order whatever
//!   the completion order was ([`typed`] turns them into the sweep's
//!   [`Record`] type), and [`lines`] lays them out one per line.

use crate::record::Record;
use crate::runner::run_map;
use kar_obs::json::{Json, Obj};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// FNV-1a of a key string.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One splitmix64 step.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed a sweep derives for `key` from its base seed.
pub fn keyed_seed(base: u64, key: &str) -> u64 {
    splitmix64(base ^ fnv1a(key))
}

/// How to execute a sweep: the `--jobs` and `--checkpoint` flags.
/// Neither affects any record.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Worker threads (0 and 1 both run serially).
    pub jobs: usize,
    /// Checkpoint file (JSON lines); `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
}

impl Opts {
    /// `jobs` workers, no checkpoint.
    pub fn jobs(jobs: usize) -> Self {
        Opts {
            jobs,
            checkpoint: None,
        }
    }
}

/// Reads sweep records back as their typed form — fresh and restored
/// cells alike, so a resumed sweep cannot render differently from an
/// uninterrupted one.
pub fn typed<R: Record>(records: &[Json]) -> Vec<R> {
    records
        .iter()
        .map(|json| R::from_json(json).unwrap_or_else(|| panic!("unreadable record {json}")))
        .collect()
}

/// Lays JSON values out one per line, comma-separated, newline after
/// the last: the line-oriented array body every document here uses (so
/// diffs of committed documents stay readable).
pub fn lines<S: Display>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::new();
    for item in items {
        let sep = if out.is_empty() { "" } else { ",\n" };
        let _ = write!(out, "{sep}{item}");
    }
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// The document shape of the probe sweeps: `{"experiment":"<name>",
/// "cells":[<records, one per line>]<tail>}`, where `tail` is empty or
/// further `,"member":…` text.
pub fn document<S: Display>(
    experiment: &str,
    records: impl IntoIterator<Item = S>,
    tail: &str,
) -> String {
    format!(
        "{{\n\"experiment\":\"{experiment}\",\n\"cells\":[\n{}]{tail}}}\n",
        lines(records)
    )
}

/// The document shape of the generated-topology campaigns:
/// `{"campaign":"<name>","fingerprint":…,"cells":[<records, one per
/// line>]<tail>}`.
pub fn campaign_document(
    campaign: &str,
    fingerprint: &str,
    records: &[Json],
    tail: &str,
) -> String {
    format!(
        "{{\"campaign\":\"{campaign}\",\n\"fingerprint\":\"{fingerprint}\",\n\"cells\":[\n{}]{tail}}}\n",
        lines(records)
    )
}

/// A record member as table text: the number or string as written, `-`
/// when the record has no such member.
pub(crate) fn cell_text(record: &Json, path: &[&str]) -> String {
    match record.path(path) {
        Some(Json::Num(raw)) => raw.clone(),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.to_string(),
        None => "-".to_string(),
    }
}

fn checkpoint_line(key: &str, record: impl Display) -> String {
    Obj::new().str("cell", key).raw("record", record).finish()
}

/// Loads a checkpoint's completed cells, keyed by cell key. Empty when
/// the file is missing or its fingerprint differs.
fn load_checkpoint(path: &Path, fingerprint: &str) -> BTreeMap<String, Json> {
    let text = fs::read_to_string(path).unwrap_or_default();
    let mut rows = text.lines();
    let header = rows.next().and_then(|h| Json::parse(h).ok());
    if header
        .as_ref()
        .and_then(|h| h.get("campaign_checkpoint"))
        .and_then(Json::as_str)
        != Some(fingerprint)
    {
        return BTreeMap::new();
    }
    rows.filter_map(|row| {
        // A torn tail write from an interrupted run does not parse.
        let parsed = Json::parse(row).ok()?;
        let key = parsed.get("cell")?.as_str()?.to_string();
        Some((key, parsed.get("record")?.clone()))
    })
    .collect()
}

/// Runs a sweep: restores what a fingerprint-compatible checkpoint
/// already holds, computes the remaining cells on `opts.jobs` workers
/// (streaming each finished record to the checkpoint), and returns every
/// record, parsed, in cell order. `key` names a cell; `cell_fn` computes
/// its record, one JSON object on one line. With a checkpoint, stderr
/// says how many cells were computed and how many restored.
pub fn run<C: Sync>(
    opts: &Opts,
    fingerprint: &str,
    cells: &[C],
    key: impl Fn(&C) -> String,
    cell_fn: impl Fn(&C) -> String + Sync,
) -> Vec<Json> {
    let keys: Vec<String> = cells.iter().map(key).collect();
    let done = match &opts.checkpoint {
        Some(path) => load_checkpoint(path, fingerprint),
        None => BTreeMap::new(),
    };
    // (Re)write the checkpoint: header plus the still-valid cells, then
    // append as cells finish.
    let sink = opts.checkpoint.as_ref().map(|path| {
        let mut text = Obj::new().str("campaign_checkpoint", fingerprint).finish() + "\n";
        for (key, record) in &done {
            text.push_str(&checkpoint_line(key, record));
            text.push('\n');
        }
        fs::write(path, &text)
            .and_then(|()| fs::OpenOptions::new().append(true).open(path))
            .map(Mutex::new)
            .unwrap_or_else(|e| panic!("cannot write checkpoint {}: {e}", path.display()))
    });
    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| !done.contains_key(&keys[i]))
        .collect();
    let fresh = run_map(&pending, opts.jobs, |&i| {
        let json = cell_fn(&cells[i]);
        if let Some(file) = &sink {
            // Completion order: an interrupt after this line never
            // recomputes the cell, and the result is assembled in cell
            // order from the returned values, so file order is free.
            let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(file, "{}", checkpoint_line(&keys[i], &json));
            let _ = file.flush();
        }
        json
    });
    if opts.checkpoint.is_some() {
        eprintln!(
            "sweep: {} cells ({} computed, {} from checkpoint)",
            cells.len(),
            pending.len(),
            cells.len() - pending.len()
        );
    }
    // Fresh records take the reader's path too, so a resumed sweep
    // cannot come out differently from an uninterrupted one.
    let mut fresh = fresh.iter();
    keys.iter()
        .map(|key| match done.get(key) {
            Some(record) => record.clone(),
            None => {
                let line = fresh.next().expect("one fresh record per pending cell");
                Json::parse(line).unwrap_or_else(|e| panic!("record {key}: {e}"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_keep_cell_order_and_checkpoint_lines_read_back() {
        let path = std::env::temp_dir().join(format!("kar_sweep_unit_{}.ckpt", std::process::id()));
        let _ = fs::remove_file(&path);
        let opts = Opts {
            jobs: 3,
            checkpoint: Some(path.clone()),
        };
        let cells: Vec<u64> = (0..7).collect();
        let key = |c: &u64| format!("cell \"{c}\"");
        let computed = std::sync::atomic::AtomicUsize::new(0);
        let cell_fn = |c: &u64| {
            computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            format!("{{\"sq\":{},\"nested\":{{\"k\":\"}}\"}}}}", c * c)
        };
        let first = run(&opts, "fp", &cells, key, cell_fn);
        assert_eq!(first[3].to_string(), cell_fn(&3));
        computed.store(0, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(run(&opts, "fp", &cells, key, cell_fn), first);
        assert_eq!(computed.load(std::sync::atomic::Ordering::Relaxed), 0);
        run(&opts, "other fp", &cells[..2], key, cell_fn);
        assert_eq!(
            computed.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "foreign fingerprint restores nothing"
        );
        let _ = fs::remove_file(&path);
    }
}
