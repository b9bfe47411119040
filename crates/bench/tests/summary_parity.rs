//! The run summary moved from `KAR_TELEMETRY` lines into the metrics
//! dump. For one pinned fig5 run, one `fig_dynamic` point and one
//! `fig_adversary` cell, the dump's `summary` record must carry every
//! field name and value the old line carried — the literals below were
//! recorded from the last commit that still had `telemetry.rs`
//! (today's `fig5 --runs 1 --seconds 1 --jobs 1`; `fig_dynamic` and
//! `fig_adversary` at their defaults).
//!
//! The sink is process-global, so this is ONE test in its own binary.
//! It doubles as the "real `--metrics` dump" case of the JSON module's
//! tests: every line of the dump parses, and every number token reads
//! back as exactly the text it was written with.

use kar::DeflectionTechnique;
use kar_bench::experiments::{adversary, dynamic, fig5};
use kar_bench::{obs, runner};
use kar_obs::json::Json;
use kar_obs::{read_dumps, DumpRecord};
use kar_topology::topo15;

const FIG5: &str = r#"{"experiment":"fig5","label":"SW10-SW7/Unprotected/NIP/r0","index":1,"seed":1,"technique":"NIP","duration_s":1,"delivered":4716,"dropped":21,"deflections":14501,"mean_hops":8.607294317217981,"hop_inflation":2.1518235793044953,"reordered":1574,"mean_mbps":27.04864,"wall_ms":24.952562}"#;
const DYNAMIC: &str = r#"{"experiment":"fig_dynamic","scenario":"repair","technique":"NIP","injected":100,"delivered":99,"dropped":1,"saved_by_deflection":3,"link_failures":1,"link_repairs":1,"recovered_flows":1,"mean_recovery_latency_s":0.0013}"#;
const ADVERSARY: &str = r#"{"experiment":"fig_adversary","topo":"topo15","attack":"rolling-churn","intensity":2,"scheme":"NIP/none","injected":480,"delivered":468,"reachability":0.975,"stretch":1.311466058185967,"corrupted_residue_drops":0,"adversary_drops":0,"recovered_flows":9,"mean_recovery_latency_s":0.0011969384444444444}"#;
const TABLE: &str = r#"{"experiment":"fig_adversary","topo":"topo15","attack":"byz-drop","intensity":1,"scheme":"FastFailover","injected":480,"delivered":120,"reachability":0.25,"stretch":1,"corrupted_residue_drops":0,"adversary_drops":360,"recovered_flows":0,"mean_recovery_latency_s":null}"#;

/// Every number token in `json`, in document order.
fn numbers(json: &Json, out: &mut Vec<String>) {
    match json {
        Json::Num(raw) => out.push(raw.clone()),
        Json::Arr(items) => items.iter().for_each(|v| numbers(v, out)),
        Json::Obj(members) => members.iter().for_each(|(_, v)| numbers(v, out)),
        _ => {}
    }
}

#[test]
fn dump_summaries_carry_every_field_of_the_old_telemetry_lines() {
    let dir = std::env::temp_dir().join(format!("kar_summary_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.jsonl");
    assert!(obs::init(Some(&path), None, 1 << 16));

    let topo = topo15::build();
    let (specs, _) = fig5::spec_set(&topo, 1, 1, 1);
    runner::run_all(&specs[..2], 1);
    dynamic::run_point(
        &topo,
        dynamic::scenarios()[0],
        DeflectionTechnique::Nip,
        dynamic::DynamicConfig::default(),
    );
    let flows = adversary::flow_set(&topo, "topo15");
    let cfg = adversary::AdversaryConfig::default();
    let nip_none = adversary::SchemeSpec::Kar {
        technique: DeflectionTechnique::Nip,
        protection: "none",
    };
    let fast_failover = adversary::schemes()[6];
    assert_eq!(fast_failover.label(), "FastFailover");
    let churn = adversary::AttackKind::RollingChurn;
    let byz_drop = adversary::AttackKind::ByzDrop;
    adversary::run_point(&topo, "topo15", &flows, churn, 2, nip_none, &cfg);
    adversary::run_point(&topo, "topo15", &flows, byz_drop, 1, fast_failover, &cfg);
    obs::finish();

    let text = std::fs::read_to_string(&path).unwrap();
    // Every line is one JSON object the one reader accepts, and the
    // reader hands every number back as the text it was written with.
    for line in text.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let mut tokens = Vec::new();
        numbers(&json, &mut tokens);
        assert!(tokens.iter().all(|t| line.contains(t.as_str())), "{line}");
        assert_eq!(json.to_string(), line, "reader + writer reproduce the line");
    }

    let dumps = read_dumps(text.as_bytes()).unwrap();
    let summary_of = |label: &str| {
        let run = dumps
            .iter()
            .find(|d| d.label == label)
            .unwrap_or_else(|| panic!("no run {label}"));
        run.records
            .iter()
            .find_map(|r| match r {
                DumpRecord::Summary { fields } => Some(Json::Obj(fields.clone())),
                _ => None,
            })
            .unwrap_or_else(|| panic!("run {label} has no summary record"))
    };
    for (label, old_line) in [
        ("fig5/SW10-SW7/Unprotected/NIP/r0", FIG5),
        ("fig_dynamic/repair/NIP", DYNAMIC),
        ("fig_adversary/topo15/rolling-churn/n2/NIP/none", ADVERSARY),
        ("fig_adversary/topo15/byz-drop/n1/FastFailover", TABLE),
    ] {
        let summary = summary_of(label);
        let old = Json::parse(old_line).unwrap();
        for (name, value) in old.as_obj().unwrap() {
            let now = summary
                .get(name)
                .unwrap_or_else(|| panic!("{label}: summary lost field {name}: {summary}"));
            if name == "wall_ms" {
                // Host wall clock: present and a number, never equal.
                assert!(now.as_f64().is_some(), "{label}: {now}");
            } else {
                assert_eq!(now, value, "{label}: field {name}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
