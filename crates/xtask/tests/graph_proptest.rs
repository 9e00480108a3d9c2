//! Property test for the oolint v2 taint engine: generate random fixture
//! workspaces — a random call DAG spread over two crates, a randomly
//! placed wall-clock source, random suppression hops — and assert the
//! graph pass reports a leak **iff** the model says an unsuppressed path
//! from the entry point to the source exists.
//!
//! This is the soundness/precision contract in one property: reachability
//! through any chain of first-party calls is reported; pruning any hop
//! (call line or source line) with a justified `oolint: allow` silences
//! exactly the chains through it; and an unreachable source never fires.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One generated function in the call DAG.
#[derive(Debug, Clone)]
struct GenFn {
    /// Outgoing edges `(callee index, edge suppressed)`. Callee indices
    /// are always greater than the caller's, so the graph is a DAG.
    calls: Vec<(usize, bool)>,
}

/// The generated workspace model.
#[derive(Debug, Clone)]
struct Model {
    fns: Vec<GenFn>,
    /// Which function body carries the `std::time::Instant::now()` source.
    source_in: usize,
    /// Whether the source line itself carries a justified allow.
    source_suppressed: bool,
}

/// Model-side ground truth: is the source reachable from fn 0 through
/// unsuppressed edges, with the source line itself unsuppressed?
fn model_leaks(m: &Model) -> bool {
    if m.source_suppressed {
        return false;
    }
    let mut seen = vec![false; m.fns.len()];
    let mut q = VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(i) = q.pop_front() {
        if i == m.source_in {
            return true;
        }
        for &(j, suppressed) in &m.fns[i].calls {
            if !suppressed && !seen[j] {
                seen[j] = true;
                q.push_back(j);
            }
        }
    }
    false
}

/// Render one function body: suppressible calls plus (maybe) the source.
fn render_fn(m: &Model, i: usize) -> String {
    let mut s = format!("pub fn f_{i}() {{\n");
    if m.source_in == i {
        if m.source_suppressed {
            s.push_str("    // oolint: allow(graph-nondet, generated: source suppressed)\n");
        }
        s.push_str("    let _t = std::time::Instant::now();\n");
    }
    for &(j, suppressed) in &m.fns[i].calls {
        if suppressed {
            s.push_str("    // oolint: allow(graph-nondet, generated: edge suppressed)\n");
        }
        s.push_str(&format!("    f_{j}();\n"));
    }
    s.push_str("}\n");
    s
}

/// Write the model to a throwaway workspace and run the graph pass on it.
fn run_model(m: &Model) -> Vec<xtask::Finding> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "oolint-graphprop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let w = |rel: &str, content: &str| {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().expect("parented path")).expect("mkdir");
        std::fs::write(p, content).expect("write fixture file");
    };

    w("Cargo.toml", "[package]\nname = \"openoptics\"\n");
    w("src/lib.rs", "");
    w("crates/sim/Cargo.toml", "[package]\nname = \"openoptics-sim\"\n");
    // Entry stubs so the hardcoded entry table fully resolves; run_for
    // enters the generated DAG at f_0.
    w("crates/sim/src/engine.rs", "pub fn run() {}\npub fn run_while() {}\n");
    w("crates/ctl/Cargo.toml", "[package]\nname = \"openoptics-ctl\"\n");
    w(
        "crates/ctl/src/session.rs",
        "pub struct Session;\nimpl Session {\n    pub fn run_until(&mut self) {}\n    \
         pub fn apply(&mut self) {}\n    pub fn restore() {}\n}\n\
         pub struct ControlPlane;\nimpl ControlPlane {\n    \
         pub fn handle_request(&mut self) {}\n    pub fn drain_frames(&mut self) {}\n}\n",
    );
    w("crates/core/Cargo.toml", "[package]\nname = \"openoptics-core\"\n");
    let mut core = String::from("pub struct OpenOpticsNet;\nimpl OpenOpticsNet {\n");
    for entry in [
        "run_with_snapshots",
        "deploy",
        "deploy_preset",
        "deploy_topo",
        "deploy_routing",
        "reconfigure",
        "inject_faults",
    ] {
        core.push_str(&format!("    pub fn {entry}(&mut self) {{}}\n"));
    }
    core.push_str("    pub fn run_for(&mut self) { f_0(); }\n}\n");
    // Even-indexed functions live beside the entry; odd-indexed ones in a
    // second crate, so chains genuinely cross a crate boundary.
    w("crates/workload/Cargo.toml", "[package]\nname = \"openoptics-workload\"\n");
    let mut workload = String::new();
    for i in 0..m.fns.len() {
        let body = render_fn(m, i);
        if i % 2 == 0 {
            core.push_str(&body);
        } else {
            workload.push_str(&body);
        }
    }
    w("crates/core/src/net.rs", &core);
    w("crates/workload/src/gen.rs", &workload);

    let findings = xtask::run_graph_lint(&dir).expect("generated workspace lints");
    std::fs::remove_dir_all(&dir).ok();
    findings
}

fn model_strategy() -> impl Strategy<Value = Model> {
    // 2..=8 functions; each fn calls a random subset of later fns with
    // per-edge suppression bits (forward edges only, so the graph is a
    // DAG); the source lands in a random fn.
    (2usize..=8).prop_flat_map(|n| {
        let raw_edges = proptest::collection::vec(
            proptest::collection::vec((any::<usize>(), any::<bool>()), 0..3),
            n,
        );
        (raw_edges, 0..n, any::<bool>()).prop_map(move |(raw, source_in, source_suppressed)| {
            let fns = raw
                .into_iter()
                .enumerate()
                .map(|(i, calls)| GenFn {
                    // Map each raw index into the forward range i+1..=n and
                    // drop the out-of-graph sentinel n.
                    calls: calls
                        .into_iter()
                        .map(|(r, s)| (i + 1 + r % (n - i), s))
                        .filter(|&(j, _)| j < n)
                        .collect(),
                })
                .collect();
            Model { fns, source_in, source_suppressed }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn leak_reported_iff_unsuppressed_path_exists(m in model_strategy()) {
        let findings = run_model(&m);
        let leaks: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "graph-nondet" && f.msg.contains("Instant::now"))
            .collect();
        let expected = model_leaks(&m);
        prop_assert_eq!(
            !leaks.is_empty(),
            expected,
            "model {:?}; findings {:?}",
            m,
            findings
        );
        // When reported, the chain is anchored at the entry point and
        // ends at the source.
        if expected {
            prop_assert!(
                leaks.iter().any(|f| f.msg.contains("OpenOpticsNet::run_for")
                    && f.msg.contains(&format!("f_{}", m.source_in))),
                "chain names entry and sink: {:?}",
                leaks
            );
        }
        // Stale-entry findings never appear: the stubs cover the table.
        prop_assert!(
            !findings.iter().any(|f| f.msg.contains("entry point")),
            "{:?}",
            findings
        );
    }
}
