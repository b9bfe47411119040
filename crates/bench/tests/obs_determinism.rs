//! The observability invariant (DESIGN invariant 12): metrics, spans
//! and tracing are pure observation. A run with the sink collecting —
//! metrics dump AND Chrome trace — must be byte-identical (same
//! digests) to the same run without it, the dump it writes must parse
//! back, and the dump must carry a complete causal chain
//! (fault → detect → re-encode → stamped packet).
//!
//! The sink is process-global, so everything lives in ONE test function
//! in its own integration-test binary — the library's unit tests run in
//! a different process and never see the sink enabled.

use kar::DeflectionTechnique;
use kar_bench::experiments::dynamic;
use kar_bench::harness::{run_tcp, FailureWindow, TcpRun};
use kar_bench::obs;
use kar_bench::record::Record;
use kar_obs::{read_dumps, sink, DumpRecord};
use kar_simnet::SimTime;
use kar_topology::topo15;
use std::io::BufReader;

fn dynamic_digests() -> Vec<String> {
    let topo = topo15::build();
    let cfg = dynamic::DynamicConfig {
        probes: 40,
        ..dynamic::DynamicConfig::default()
    };
    dynamic::scenarios()
        .into_iter()
        .map(|scenario| {
            dynamic::run_point(&topo, scenario, DeflectionTechnique::HotPotato, cfg).to_json()
        })
        .collect()
}

fn tcp_digest() -> String {
    let topo = topo15::build();
    let spec = TcpRun {
        technique: DeflectionTechnique::HotPotato,
        duration: SimTime::from_secs(2),
        failure: Some(FailureWindow {
            link: topo.expect_link("SW7", "SW13"),
            down: SimTime::from_millis(500),
            up: SimTime::from_millis(1500),
        }),
        label: "determinism/tcp".to_string(),
        ..TcpRun::new(&topo, topo15::primary_route(&topo))
    };
    run_tcp(&spec).digest()
}

#[test]
fn metrics_collection_never_changes_results() {
    assert!(
        !sink::enabled(),
        "another test enabled the process-global sink; keep this test alone in its binary"
    );

    // Baseline: sink off.
    let plain_dynamic = dynamic_digests();
    let plain_tcp = tcp_digest();

    // Instrumented: same runs with the sink collecting, both outputs on.
    let dir = std::env::temp_dir().join(format!("kar_obs_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dump.jsonl");
    let trace = dir.join("trace.json");
    assert!(obs::init(Some(&path), Some(&trace), 1 << 16));
    let instrumented_dynamic = dynamic_digests();
    let instrumented_tcp = tcp_digest();
    obs::finish();
    assert!(!sink::enabled(), "finish() must disable the sink");

    assert_eq!(
        plain_dynamic, instrumented_dynamic,
        "dynamic experiment digests changed when metrics+tracing were on"
    );
    assert_eq!(
        plain_tcp, instrumented_tcp,
        "tcp harness digest changed when metrics+tracing were on"
    );

    // The Chrome trace export is a well-formed trace-event document.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        trace_text.starts_with("{\"traceEvents\":["),
        "trace must open a traceEvents array: {}",
        &trace_text[..trace_text.len().min(60)]
    );
    assert_eq!(
        trace_text.matches('{').count(),
        trace_text.matches('}').count(),
        "trace braces unbalanced"
    );
    assert!(
        trace_text.contains("\"ph\":\"s\"") && trace_text.contains("\"ph\":\"f\""),
        "trace has no causal flow arrows"
    );

    // The dump itself must parse back with the expected structure.
    let file = std::fs::File::open(&path).expect("dump written");
    let dumps = read_dumps(BufReader::new(file)).expect("dump parses");
    let labels: Vec<&str> = dumps.iter().map(|d| d.label.as_str()).collect();
    assert!(
        labels.contains(&"determinism/tcp"),
        "tcp run label missing from {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("fig_dynamic/")),
        "dynamic run labels missing from {labels:?}"
    );
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    assert_eq!(labels, sorted, "flush must sort dumps by label");
    for d in &dumps {
        assert!(!d.records.is_empty(), "run {} dumped nothing", d.label);
        assert!(
            d.records
                .iter()
                .any(|r| matches!(r, DumpRecord::Counter { entity, metric, .. }
                        if entity.starts_with("node:") && metric == "delivered")),
            "run {} has no per-switch delivered counter",
            d.label
        );
        assert!(
            d.records
                .iter()
                .any(|r| matches!(r, DumpRecord::Profile { .. })),
            "run {} has no profiler rows",
            d.label
        );
    }

    // Invariant 12's causal payload: at least one run carries the full
    // span chain fault → detect → re-encode → stamped packet.
    let full_chain = dumps.iter().any(|d| {
        let events: Vec<(&str, Option<u64>, Option<u64>)> = d
            .events()
            .map(|e| (e.kind.as_str(), e.span, e.parent))
            .collect();
        let fault_spans: Vec<u64> = events
            .iter()
            .filter(|(k, s, _)| *k == "fault" && s.is_some())
            .map(|(_, s, _)| s.unwrap())
            .collect();
        events.iter().any(|(k, s, p)| {
            *k == "detect"
                && p.map(|p| fault_spans.contains(&p)).unwrap_or(false)
                && events.iter().any(|(k2, s2, p2)| {
                    *k2 == "reencode"
                        && *p2 == *s
                        && events
                            .iter()
                            .any(|(k3, _, p3)| *k3 == "stamp" && *p3 == *s2)
                })
        })
    });
    assert!(
        full_chain,
        "no run carries a complete fault → detect → reencode → stamp span chain"
    );

    // A second finish with the sink off is a clean no-op.
    obs::finish();
    std::fs::remove_dir_all(&dir).ok();
}
