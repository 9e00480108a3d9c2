//! Taint reachability over the cross-crate call graph: the `graph-nondet`
//! rule of `oolint --graph`.
//!
//! # graph-nondet
//!
//! The per-line rules ban nondeterminism *patterns* where they appear; this
//! pass answers the whole-program question: **can a simulation-path entry
//! point reach a nondeterminism source through any chain of first-party
//! calls?** Entry points are the functions the experiment harness drives
//! ([`ENTRY_POINTS`]); sources are wall-clock reads, OS randomness,
//! `std::collections` hash iteration, `Ordering::Relaxed`, and thread-id /
//! env / filesystem reads. Every violation is reported as a full call chain
//! (`core/net.rs:run_for → workload/gen.rs:jitter →
//! std::time::Instant::now`), and an `// oolint: allow(graph-nondet,
//! reason)` annotation on *any hop* — the call line of an edge or the
//! source line itself — suppresses the chains through it.
//!
//! # Honest limitations
//!
//! Resolution is lexer-grade and name-tiered (same file → same crate →
//! workspace; explicit crate-qualified paths pin the crate; `self.`/
//! `Self::` pin the impl type). It over-approximates — dynamic dispatch
//! through trait objects resolves to every method of that name — which is
//! the safe direction for a reachability *ban*, and the false-positive
//! escape hatch is the justified allow. See DESIGN.md "Flow-aware
//! analysis" for the full model and its gaps.

use crate::graph::{Call, FnDef};
use crate::lex::Lexed;
use crate::{allow_in, Finding, SIM_PATH_CRATES};
use std::collections::BTreeMap;

/// Per-line comment and code maps of one file, kept after token extraction
/// so `oolint: allow` annotations can be honored at any call-graph hop.
pub struct FileComments {
    comments: Vec<String>,
    has_code: Vec<bool>,
}

impl FileComments {
    /// Slim down a [`Lexed`] file to what suppression lookup needs.
    pub fn from_lexed(lexed: &Lexed) -> Self {
        FileComments { comments: lexed.comments.clone(), has_code: lexed.has_code.clone() }
    }

    fn comment_on(&self, line: u32) -> &str {
        self.comments.get(line as usize - 1).map(String::as_str).unwrap_or("")
    }

    fn code_on(&self, line: u32) -> bool {
        self.has_code.get(line as usize - 1).copied().unwrap_or(false)
    }
}

/// The extracted workspace: every first-party function plus per-file
/// comment maps for suppression lookup.
#[derive(Default)]
pub struct TaintWorkspace {
    /// All extracted function definitions.
    pub fns: Vec<FnDef>,
    /// Comment maps keyed by workspace-relative path.
    pub comments: BTreeMap<String, FileComments>,
}

impl TaintWorkspace {
    /// `oolint: allow(rule, ...)` state at `file:line`: the annotation may
    /// ride the line itself or comment-only lines directly above it
    /// (multi-line `/* */` blocks included). `None` = no annotation,
    /// `Some(true)` = justified, `Some(false)` = missing justification.
    fn allow_at(&self, file: &str, line: u32, rule: &str) -> Option<bool> {
        let fc = self.comments.get(file)?;
        if let Some(v) = allow_in(fc.comment_on(line), rule) {
            return Some(v);
        }
        let mut j = line.saturating_sub(1);
        while j >= 1 && !fc.code_on(j) {
            if let Some(v) = allow_in(fc.comment_on(j), rule) {
                return Some(v);
            }
            if fc.comment_on(j).is_empty() {
                break;
            }
            j -= 1;
        }
        None
    }
}

/// Name index over the workspace's functions.
pub struct Index {
    by_name: BTreeMap<String, Vec<usize>>,
    by_type_method: BTreeMap<(String, String), Vec<usize>>,
}

impl Index {
    /// Build the index.
    pub fn build(fns: &[FnDef]) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(ty) = &f.impl_type {
                by_type_method.entry((ty.clone(), f.name.clone())).or_default().push(i);
            }
        }
        Index { by_name, by_type_method }
    }

    fn type_method(&self, ty: &str, name: &str) -> &[usize] {
        self.by_type_method
            .get(&(ty.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn has_type(&self, ty: &str) -> bool {
        self.by_type_method
            .range((ty.to_string(), String::new())..)
            .next()
            .is_some_and(|((t, _), _)| t == ty)
    }
}

/// Crate ident (`openoptics_sim`) for a package name (`openoptics-sim`).
fn crate_ident(package: &str) -> String {
    package.replace('-', "_")
}

/// Resolve one call site to candidate function indices. Empty means the
/// callee is external (std / vendored) — exactly the calls the source
/// table then inspects.
pub fn resolve(ws: &TaintWorkspace, idx: &Index, caller: &FnDef, call: &Call) -> Vec<usize> {
    let name = call.name.as_str();

    // `self.method()` / `Self::assoc()` pin the impl type.
    let self_recv =
        call.receiver.as_deref() == Some("self") || call.path.first().is_some_and(|s| s == "Self");
    if self_recv {
        if let Some(ty) = &caller.impl_type {
            let c = idx.type_method(ty, name);
            if !c.is_empty() {
                return c.to_vec();
            }
        }
    }

    if !call.is_method {
        // `crate::mod::f()` pins the caller's crate.
        if call.path.first().is_some_and(|s| s == "crate") {
            return tiered(ws, idx, caller, name, Tier::CrateOnly);
        }
        // A path segment naming a first-party crate pins that crate.
        for seg in &call.path {
            if let Some(pkg) = SIM_PATH_CRATES
                .iter()
                .chain(&[
                    "openoptics-telemetry",
                    "openoptics-proto",
                    "openoptics-bench",
                    "openoptics",
                ])
                .find(|p| crate_ident(p) == *seg)
            {
                return idx
                    .by_name
                    .get(name)
                    .map(|v| v.iter().copied().filter(|&i| ws.fns[i].crate_name == *pkg).collect())
                    .unwrap_or_default();
            }
        }
        // Explicit std/core/alloc paths are external.
        if call.path.len() >= 2 && matches!(call.path[0].as_str(), "std" | "core" | "alloc") {
            return Vec::new();
        }
        // `Type::assoc()` resolves through the impl index when the
        // qualifier is a known first-party type.
        if let Some(q) = call.qualifier() {
            if idx.has_type(q) {
                let c = idx.type_method(q, name);
                if !c.is_empty() {
                    return c.to_vec();
                }
            }
        }
    }

    tiered(ws, idx, caller, name, Tier::All)
}

enum Tier {
    CrateOnly,
    All,
}

/// Name-tiered fallback: same file → same crate → workspace. The
/// workspace tier excludes `openoptics-bench` — the bench harness *calls*
/// the simulator, never the reverse, and its legitimately wall-clocked
/// helpers would otherwise alias into sim chains by bare name.
fn tiered(ws: &TaintWorkspace, idx: &Index, caller: &FnDef, name: &str, tier: Tier) -> Vec<usize> {
    let Some(all) = idx.by_name.get(name) else {
        return Vec::new();
    };
    let same_file: Vec<usize> =
        all.iter().copied().filter(|&i| ws.fns[i].file == caller.file).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> =
        all.iter().copied().filter(|&i| ws.fns[i].crate_name == caller.crate_name).collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    match tier {
        Tier::CrateOnly => Vec::new(),
        Tier::All => {
            all.iter().copied().filter(|&i| ws.fns[i].crate_name != "openoptics-bench").collect()
        }
    }
}

/// What a taint source *is* — the classes of nondeterminism the sim path
/// must never reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant::now` / `SystemTime::now`.
    WallClock,
    /// `thread_rng` / `OsRng` / `from_entropy` / `rand::random`.
    OsRng,
    /// `std::collections::HashMap`/`HashSet` (SipHash iteration order).
    NondetMap,
    /// `Ordering::Relaxed` on shared atomics.
    RelaxedAtomic,
    /// `std::thread::current` (thread ids vary per run).
    ThreadId,
    /// `std::env` reads.
    EnvRead,
    /// `std::fs` reads (host state).
    FsRead,
}

impl SourceKind {
    /// Human name used in findings.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock",
            SourceKind::OsRng => "os-rng",
            SourceKind::NondetMap => "nondet-map",
            SourceKind::RelaxedAtomic => "relaxed-atomic",
            SourceKind::ThreadId => "thread-id",
            SourceKind::EnvRead => "env-read",
            SourceKind::FsRead => "fs-read",
        }
    }
}

/// Source classification of an *unresolved* (external) call.
fn call_source(call: &Call) -> Option<(SourceKind, String)> {
    let p = call.joined();
    let name = call.name.as_str();
    if p.ends_with("Instant::now") || p.ends_with("SystemTime::now") {
        return Some((SourceKind::WallClock, p));
    }
    if name == "thread_rng"
        || name == "from_entropy"
        || p.contains("OsRng")
        || p.ends_with("rand::random")
    {
        return Some((SourceKind::OsRng, p));
    }
    if p.contains("std::collections::HashMap") || p.contains("std::collections::HashSet") {
        return Some((SourceKind::NondetMap, p));
    }
    if p == "std::thread::current" || p.ends_with("thread::current") {
        return Some((SourceKind::ThreadId, p));
    }
    if p.starts_with("std::env::")
        || (call.qualifier() == Some("env")
            && matches!(name, "var" | "vars" | "var_os" | "args" | "args_os"))
    {
        return Some((SourceKind::EnvRead, p));
    }
    if p.contains("std::fs::") {
        return Some((SourceKind::FsRead, p));
    }
    None
}

/// Source classification of a non-call path use.
fn path_source(joined: &str) -> Option<(SourceKind, String)> {
    if joined.ends_with("Ordering::Relaxed") {
        return Some((SourceKind::RelaxedAtomic, joined.to_string()));
    }
    if joined.contains("std::collections::HashMap") || joined.contains("std::collections::HashSet")
    {
        return Some((SourceKind::NondetMap, joined.to_string()));
    }
    if joined.contains("OsRng") {
        return Some((SourceKind::OsRng, joined.to_string()));
    }
    None
}

/// One simulation-path entry point: taint reachability starts here.
pub struct EntryPoint {
    /// Package that defines it.
    pub crate_name: &'static str,
    /// Impl type for methods, `None` for free functions.
    pub type_name: Option<&'static str>,
    /// Function name.
    pub fn_name: &'static str,
}

/// The sim-path entry points: the engine hot loops,
/// deployment/reconfiguration, and fault campaign scheduling. A stale
/// entry (renamed or removed function) is itself a finding so this table
/// can never silently rot.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "run_for",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "run_with_snapshots",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "deploy",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "deploy_preset",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "deploy_topo",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "deploy_routing",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "reconfigure",
    },
    EntryPoint {
        crate_name: "openoptics-core",
        type_name: Some("OpenOpticsNet"),
        fn_name: "inject_faults",
    },
    EntryPoint { crate_name: "openoptics-sim", type_name: None, fn_name: "run" },
    EntryPoint { crate_name: "openoptics-sim", type_name: None, fn_name: "run_while" },
    // The control plane drives runs on users' behalf; everything a session
    // can do to an engine must stay on the deterministic path.
    EntryPoint { crate_name: "openoptics-ctl", type_name: Some("Session"), fn_name: "run_until" },
    EntryPoint { crate_name: "openoptics-ctl", type_name: Some("Session"), fn_name: "apply" },
    EntryPoint { crate_name: "openoptics-ctl", type_name: Some("Session"), fn_name: "restore" },
    // Subscription streaming renders engine frames into client responses;
    // a nondeterministic hop here would desynchronize subscribers from
    // the byte-identity contract the exports are gated on.
    EntryPoint {
        crate_name: "openoptics-ctl",
        type_name: Some("ControlPlane"),
        fn_name: "handle_request",
    },
    EntryPoint {
        crate_name: "openoptics-ctl",
        type_name: Some("ControlPlane"),
        fn_name: "drain_frames",
    },
];

/// Short display path for chain hops: `crates/core/src/net.rs` ⇒
/// `core/net.rs`.
fn short(file: &str) -> String {
    file.strip_prefix("crates/").unwrap_or(file).replace("/src/", "/")
}

/// Render one function as a chain hop.
fn hop(f: &FnDef) -> String {
    format!("{}:{}", short(&f.file), f.name)
}

/// Qualified display name of a function (`OpenOpticsNet::run_for`).
fn qualified(f: &FnDef) -> String {
    match &f.impl_type {
        Some(ty) => format!("{ty}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Run taint reachability from [`ENTRY_POINTS`] to every nondeterminism
/// source; returns `graph-nondet` findings (full call chains), stale
/// entry-point findings, and malformed-allow findings.
pub fn taint_findings(ws: &TaintWorkspace, idx: &Index) -> Vec<Finding> {
    const RULE: &str = "graph-nondet";
    let mut findings = Vec::new();

    // Resolve entry points; a stale spec is a finding.
    let mut roots: Vec<usize> = Vec::new();
    for e in ENTRY_POINTS {
        let hits: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.crate_name == e.crate_name
                    && f.name == e.fn_name
                    && f.impl_type.as_deref() == e.type_name
            })
            .map(|(i, _)| i)
            .collect();
        if hits.is_empty() {
            findings.push(Finding {
                file: format!("crates/{}", e.crate_name.trim_start_matches("openoptics-")),
                line: 1,
                rule: RULE,
                msg: format!(
                    "entry point {}{} not found in crate {}; update taint::ENTRY_POINTS to \
                     match the refactor so the taint gate keeps covering the sim path",
                    e.type_name.map(|t| format!("{t}::")).unwrap_or_default(),
                    e.fn_name,
                    e.crate_name
                ),
            });
        }
        roots.extend(hits);
    }

    // BFS with parent edges for chain reconstruction.
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in &roots {
        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
            e.insert(None);
            queue.push_back(r);
        }
    }
    // (file, line, label) of sources already reported — report each site
    // once, with the first (shortest) chain found.
    let mut seen: std::collections::BTreeSet<(String, u32, String)> =
        std::collections::BTreeSet::new();

    while let Some(fi) = queue.pop_front() {
        let f = &ws.fns[fi];
        // Source hits first (no graph mutation), edge expansion second.
        let mut hits: Vec<(u32, SourceKind, String)> = Vec::new();
        let mut edges: Vec<usize> = Vec::new();

        for call in &f.calls {
            let targets = resolve(ws, idx, f, call);
            if targets.is_empty() {
                if let Some((kind, label)) = call_source(call) {
                    hits.push((call.line, kind, label));
                }
                continue;
            }
            // Edge suppression: an allow on the call line prunes every
            // chain through this hop.
            match ws.allow_at(&f.file, call.line, RULE) {
                Some(true) => continue,
                Some(false) => {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: call.line as usize,
                        rule: RULE,
                        msg: format!("allow({RULE}) annotation needs a justification"),
                    });
                    continue;
                }
                None => {}
            }
            edges.extend(targets);
        }
        for pu in &f.paths {
            if let Some((kind, label)) = path_source(&pu.joined()) {
                hits.push((pu.line, kind, label));
            }
        }

        for (line, kind, label) in hits {
            match ws.allow_at(&f.file, line, RULE) {
                Some(true) => continue,
                Some(false) => {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: line as usize,
                        rule: RULE,
                        msg: format!("allow({RULE}) annotation needs a justification"),
                    });
                    continue;
                }
                None => {}
            }
            if !seen.insert((f.file.clone(), line, label.clone())) {
                continue;
            }
            let entry = qualified(&ws.fns[chain_root(&parent, fi)]);
            findings.push(Finding {
                file: f.file.clone(),
                line: line as usize,
                rule: RULE,
                msg: format!(
                    "sim-path entry {entry} reaches {} source `{label}`: {} \u{2192} {label}",
                    kind.name(),
                    render_chain(ws, &parent, fi),
                ),
            });
        }

        for t in edges {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                e.insert(Some(fi));
                queue.push_back(t);
            }
        }
    }
    findings
}

/// Entry-point function index at the root of `target`'s BFS chain.
fn chain_root(parent: &BTreeMap<usize, Option<usize>>, target: usize) -> usize {
    let mut cur = target;
    while let Some(Some(p)) = parent.get(&cur) {
        cur = *p;
    }
    cur
}

/// Render the BFS chain from its entry point down to `target`.
fn render_chain(
    ws: &TaintWorkspace,
    parent: &BTreeMap<usize, Option<usize>>,
    target: usize,
) -> String {
    let mut hops = Vec::new();
    let mut cur = Some(target);
    while let Some(c) = cur {
        hops.push(hop(&ws.fns[c]));
        cur = parent.get(&c).copied().flatten();
    }
    hops.reverse();
    hops.join(" \u{2192} ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::extract;
    use crate::lex::lex;

    fn ws_of(files: &[(&str, &str, &str)]) -> (TaintWorkspace, Index) {
        let mut ws = TaintWorkspace::default();
        for (krate, file, src) in files {
            let lexed = lex(src);
            ws.fns.extend(extract(krate, file, &lexed));
            ws.comments.insert(file.to_string(), FileComments::from_lexed(&lexed));
        }
        let idx = Index::build(&ws.fns);
        (ws, idx)
    }

    /// A minimal workspace with real entry-point shapes so the stale-entry
    /// findings stay out of the way of the behavior under test.
    fn entry_stub() -> Vec<(&'static str, &'static str, String)> {
        let mut core = String::from("impl OpenOpticsNet {\n");
        for f in [
            "run_for",
            "run_with_snapshots",
            "deploy",
            "deploy_preset",
            "deploy_topo",
            "deploy_routing",
            "reconfigure",
            "inject_faults",
        ] {
            core.push_str(&format!("    pub fn {f}(&mut self) {{ self.run_for_inner(); }}\n"));
        }
        core.push_str("    fn run_for_inner(&mut self) {}\n}\n");
        let sim = "pub fn run() {}\npub fn run_while() {}\n".to_string();
        let ctl = "impl Session {\n    pub fn run_until(&mut self) {}\n    \
                   pub fn apply(&mut self) {}\n    pub fn restore() {}\n}\n\
                   impl ControlPlane {\n    pub fn handle_request(&mut self) {}\n    \
                   pub fn drain_frames(&mut self) {}\n}\n"
            .to_string();
        vec![
            ("openoptics-core", "crates/core/src/net.rs", core),
            ("openoptics-sim", "crates/sim/src/engine.rs", sim),
            ("openoptics-ctl", "crates/ctl/src/session.rs", ctl),
        ]
    }

    fn run_taint(extra: &[(&str, &str, &str)]) -> Vec<Finding> {
        let stubs = entry_stub();
        let mut files: Vec<(&str, &str, &str)> =
            stubs.iter().map(|(k, f, s)| (*k, *f, s.as_str())).collect();
        files.extend_from_slice(extra);
        let (ws, idx) = ws_of(&files);
        taint_findings(&ws, &idx)
    }

    #[test]
    fn clean_stub_has_no_findings() {
        let f = run_taint(&[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_crate_leak_reports_full_chain() {
        let f = run_taint(&[
            (
                "openoptics-core",
                "crates/core/src/engine.rs",
                "impl OpenOpticsNet {\n    pub fn dispatch(&mut self) { openoptics_workload::jitter(); }\n}\n",
            ),
            (
                "openoptics-core",
                "crates/core/src/hook.rs",
                "impl OpenOpticsNet {\n    pub fn run_for(&mut self) { self.dispatch(); }\n}\n",
            ),
            (
                "openoptics-workload",
                "crates/workload/src/gen.rs",
                "pub fn jitter() -> u64 { let t = std::time::Instant::now(); 0 }\n",
            ),
        ]);
        let leak: Vec<_> = f.iter().filter(|f| f.msg.contains("wall-clock")).collect();
        assert_eq!(leak.len(), 1, "{f:?}");
        assert!(leak[0].msg.contains("workload/gen.rs:jitter"), "{}", leak[0].msg);
        assert!(leak[0].msg.contains("std::time::Instant::now"), "{}", leak[0].msg);
        assert!(leak[0].file.ends_with("workload/src/gen.rs"), "{}", leak[0].file);
    }

    #[test]
    fn unreachable_source_is_not_reported() {
        let f = run_taint(&[(
            "openoptics-workload",
            "crates/workload/src/gen.rs",
            "pub fn never_called() { let t = std::time::Instant::now(); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_at_source_suppresses_and_bare_allow_is_flagged() {
        let suppressed = run_taint(&[(
            "openoptics-sim",
            "crates/sim/src/rng.rs",
            "pub fn run_while() {\n    // oolint: allow(graph-nondet, seeding documented)\n    let r = thread_rng();\n}\n",
        )]);
        assert!(suppressed.is_empty(), "{suppressed:?}");
        let bare = run_taint(&[(
            "openoptics-sim",
            "crates/sim/src/rng.rs",
            "pub fn run_while() {\n    let r = thread_rng(); // oolint: allow(graph-nondet)\n}\n",
        )]);
        assert_eq!(bare.len(), 1, "{bare:?}");
        assert!(bare[0].msg.contains("justification"), "{}", bare[0].msg);
    }

    #[test]
    fn allow_at_call_hop_prunes_chains_through_it() {
        let f = run_taint(&[
            (
                "openoptics-sim",
                "crates/sim/src/rate.rs",
                "pub fn run_while() {\n    // oolint: allow(graph-nondet, diagnostics only, never exported)\n    helper();\n}\nfn helper() { let t = std::time::Instant::now(); }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stale_entry_point_is_a_finding() {
        let (ws, idx) =
            ws_of(&[("openoptics-core", "crates/core/src/net.rs", "pub fn other() {}\n")]);
        let f = taint_findings(&ws, &idx);
        assert!(
            f.iter().any(|f| f.msg.contains("entry point") && f.msg.contains("run_for")),
            "{f:?}"
        );
    }
}
