//! End-to-end tests of the oolint v2 graph pass (`lint --graph`) over the
//! seeded fixture workspace in `tests/fixtures/graphws/`: every
//! deliberately-planted leak must surface as a full call chain, every
//! suppression hop must be honored, and the unreachable source must stay
//! silent.

use std::path::PathBuf;

fn graphws_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graphws")
}

fn graph_findings() -> Vec<xtask::Finding> {
    xtask::run_graph_lint(&graphws_root()).expect("fixture workspace lints")
}

#[test]
fn cross_crate_wall_clock_leak_reports_the_full_chain() {
    let findings = graph_findings();
    let leak: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "graph-nondet" && f.msg.contains("wall-clock"))
        .collect();
    assert_eq!(leak.len(), 1, "exactly the seeded wall-clock chain: {findings:?}");
    let f = leak[0];
    assert!(f.file.ends_with("workload/src/gen.rs"), "source file is the sink's: {}", f.file);
    assert!(f.msg.contains("OpenOpticsNet::run_for"), "entry named: {}", f.msg);
    for hop in ["core/net.rs:run_for", "core/net.rs:dispatch", "workload/gen.rs:jitter"] {
        assert!(f.msg.contains(hop), "chain hop `{hop}` missing: {}", f.msg);
    }
    assert!(f.msg.contains("std::time::Instant::now"), "sink named: {}", f.msg);
}

#[test]
fn imported_hashmap_is_a_nondet_map_source() {
    let findings = graph_findings();
    assert!(
        findings.iter().any(|f| f.rule == "graph-nondet"
            && f.msg.contains("nondet-map")
            && f.msg.contains("reconfigure")
            && f.msg.contains("std::collections::HashMap")),
        "HashMap reached through a `use` import must be reported: {findings:?}"
    );
}

#[test]
fn unreachable_source_is_silent() {
    let findings = graph_findings();
    assert!(
        !findings.iter().any(|f| f.msg.contains("unreachable_source")),
        "a source with no path from any entry point must not be reported: {findings:?}"
    );
}

#[test]
fn suppression_is_honored_at_call_hop_and_at_source() {
    let findings = graph_findings();
    // The deploy -> excused_helper chain is suppressed at the call hop.
    assert!(
        !findings.iter().any(|f| f.msg.contains("SystemTime")),
        "chain suppressed at a call hop must not be reported: {findings:?}"
    );
    // The inject_faults -> seeded_entropy -> thread_rng chain is
    // suppressed at the source line.
    assert!(
        !findings.iter().any(|f| f.msg.contains("thread_rng")),
        "source-line suppression must be honored: {findings:?}"
    );
}

#[test]
fn entry_point_table_resolves_against_the_fixture() {
    let findings = graph_findings();
    assert!(
        !findings.iter().any(|f| f.msg.contains("entry point")),
        "every hardcoded entry point must resolve in the fixture: {findings:?}"
    );
}

#[test]
fn real_tree_has_zero_unsuppressed_graph_findings() {
    // The acceptance gate, as a test: the shipped tree is clean.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let findings = xtask::run_graph_lint(&root).expect("real tree lints");
    assert!(findings.is_empty(), "real tree must be clean: {findings:?}");
}
