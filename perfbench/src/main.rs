//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vlb_bulk|tcp_services|ctl_session> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, generated from
//! `--seed`, for about `--seconds` of measurement, checks the program's
//! outputs, and prints a machine fingerprint, notes, and as its last line a
//! JSON result: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans the benchmark records around its calls into each
//! crate) with `--trace 1`. `--record` prints the recorded-seed
//! expectations `expected.json` holds.

mod ctl;
mod gen;
mod measure;
mod report;
mod sim;
mod trace;

use std::process::ExitCode;

use openoptics_core::json::{self, Json};

use crate::measure::fnv1a;
use crate::report::Report;
use crate::sim::SimKind;
use crate::trace::Tracer;

#[global_allocator]
static ALLOC: measure::Counting = measure::Counting;

/// The seed whose outputs `expected.json` records.
const RECORDED_SEED: u64 = 1;

/// Simulated window of the recorded-seed and self-check passes, ns.
const CHECK_WINDOW_NS: u64 = 2_000_000;

/// Script blocks in the recorded-seed control-plane replay.
const CHECK_SCRIPT_BLOCKS: usize = 2;

const EXPECTED: &str = include_str!("../expected.json");

const WORKLOADS: &[&str] = &["vlb_bulk", "tcp_services", "ctl_session"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, record: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The recorded-seed outputs of one workload: simulated events and the
/// digest of its exports (for the control plane, of every reply line).
fn recorded(workload: &str, rep: &mut Report) -> (u64, u64) {
    let mut tr = Tracer::new("check");
    match workload {
        "ctl_session" => {
            let load = gen::load_line(1, &gen::ctl_scenario(RECORDED_SEED));
            let script = gen::ctl_script(RECORDED_SEED, CHECK_SCRIPT_BLOCKS, ctl::FIRST_SCRIPT_ID);
            let r = ctl::replay(&load, &script, rep, &mut tr);
            (r.events, fnv1a(r.lines.join("\n").as_bytes()))
        }
        _ => {
            let kind = if workload == "vlb_bulk" { SimKind::VlbBulk } else { SimKind::TcpServices };
            let plan = kind.plan(RECORDED_SEED, CHECK_WINDOW_NS);
            match sim::pass(&plan, &mut tr) {
                Ok(p) => {
                    sim::check_invariants(rep, "recorded seed", &plan, &p.session);
                    (p.events, fnv1a(sim::export_digest_text(&p.session).as_bytes()))
                }
                Err(e) => {
                    rep.check(false, || format!("recorded seed: scenario rejected: {e}"));
                    (0, 0)
                }
            }
        }
    }
}

/// Compare the recorded seed's outputs with `expected.json`: a speed-only
/// change must keep every simulated statistic identical.
fn check_recorded(workload: &str, rep: &mut Report) {
    let (events, digest) = recorded(workload, rep);
    let want = json::parse(EXPECTED).ok().and_then(|d| d.get(workload).cloned());
    let field = |k: &str| want.as_ref().and_then(|w| w.get(k)).cloned();
    let want_events = field("sim_events").and_then(|v| v.as_u64().ok());
    let want_digest = field("digest").and_then(|v| v.as_str().ok().map(str::to_string));
    let got_digest = format!("{digest:016x}");
    rep.check(want_events == Some(events) && want_digest.as_deref() == Some(&got_digest), || {
        format!(
            "recorded seed {RECORDED_SEED}: events {events} digest {got_digest}, expected.json has \
             {want_events:?} {want_digest:?}"
        )
    });
    rep.note(format!("recorded seed {RECORDED_SEED}: sim.events {events} digest {got_digest}"));
}

/// The same seed must give byte-identical inputs, another seed different
/// ones.
fn check_generator(workload: &str, seed: u64, rep: &mut Report) {
    let doc = |s: u64| match workload {
        "vlb_bulk" => gen::vlb_bulk(s, CHECK_WINDOW_NS).doc,
        "tcp_services" => gen::tcp_services(s, CHECK_WINDOW_NS).doc,
        _ => {
            gen::ctl_scenario(s)
                + &gen::script_text(&gen::ctl_script(s, ctl::SCRIPT_BLOCKS, ctl::FIRST_SCRIPT_ID))
        }
    };
    let (a, b, c) = (doc(seed), doc(seed), doc(seed.wrapping_add(1)));
    rep.check(a == b, || format!("{workload}: seed {seed} generated two different inputs"));
    rep.check(a != c, || {
        format!("{workload}: seeds {seed} and {} generated the same input", seed + 1)
    });
}

/// `nproc`, CPU model, compiler and source identity: wall-clock metrics
/// compare only between matching fingerprints.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, m)| m.trim());
    let fields = vec![
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("cpu_model".to_string(), Json::Str(cpu.to_string())),
        ("rustc".to_string(), Json::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("git_commit".to_string(), Json::Str(git_commit().unwrap_or_else(|| "unknown".into()))),
        ("source_digest".to_string(), Json::Str(format!("{:016x}", source_digest()))),
    ];
    Json::Obj(fields).to_string()
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(refname).map(|id| id.trim().to_string()))
}

/// Digest of every source file under `crates/` plus `Cargo.lock`: identifies
/// the program when the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    fnv1a(&all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        let mut rep = Report::new();
        let mut entries = Vec::new();
        for w in WORKLOADS {
            let (events, digest) = recorded(w, &mut rep);
            entries.push(format!(
                "  \"{w}\": {{\"seed\": {RECORDED_SEED}, \"sim_events\": {events}, \"digest\": \"{digest:016x}\"}}"
            ));
        }
        println!("{{\n{}\n}}", entries.join(",\n"));
        return if rep.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!("fingerprint {}", fingerprint());
    let mut rep = Report::new();
    check_generator(&args.workload, args.seed, &mut rep);
    check_recorded(&args.workload, &mut rep);
    match args.workload.as_str() {
        "vlb_bulk" => sim::run(SimKind::VlbBulk, args.seed, args.seconds, args.trace, &mut rep),
        "tcp_services" => {
            sim::run(SimKind::TcpServices, args.seed, args.seconds, args.trace, &mut rep)
        }
        _ => ctl::run(args.seed, args.seconds, args.trace, &mut rep),
    }
    rep.print(args.trace);
    ExitCode::SUCCESS
}
