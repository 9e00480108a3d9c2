//! `experiments` — regenerate every table and figure of the OpenOptics
//! evaluation.
//!
//! ```text
//! experiments <id> [--quick] [--jobs N] [--profile]
//!   ids: fig8a fig8b fig9 fig10 fig11 fig12 fig13 fig14
//!        table2 table3 table4 ablations minslice faults slo sweep all
//! ```
//!
//! `sweep` runs the architecture × routing composition matrix (every
//! preset architecture against every routing scheme, × load, × fault
//! plan in full mode) through `OpenOpticsNet::deploy`, recording skipped
//! incompatible pairings with their typed rejection reason. It is *not*
//! part of `all` (its grid dwarfs the paper experiments); per-cell
//! events/s and FCT stats land in `BENCH_engine.json` under
//! `sweep:<arch>x<algo>@<load>/<fault>` ids.
//!
//! `--quick` shrinks measurement windows for smoke runs (used by CI and the
//! `figures` bench); the default windows are the EXPERIMENTS.md settings.
//!
//! `--jobs N` sets the worker count for the parallel experiment runner
//! (default: available parallelism). Independent simulation points fan out
//! across a `std::thread::scope` pool; results are collected in original
//! order, so the rendered output is byte-identical at any worker count —
//! `--jobs 1` reproduces the serial behavior exactly. Each simulation
//! point itself runs on one thread.
//!
//! Any other flag, a missing or second id, or a bad `--jobs` value prints
//! the usage line and exits with status 2.
//!
//! The fig8a run also records causal lifecycle spans on its RotorNet-VLB
//! point (every 4th flow) and writes `fig8a_spans.json` (Chrome
//! trace-event JSON, loadable in `chrome://tracing` or Perfetto) plus
//! `fig8a_span_report.txt` (stage totals and per-flow trees) — both
//! byte-identical at any `--jobs` count. `--profile` additionally
//! self-profiles that point in wall-clock mode and prints the per-phase
//! inclusive/exclusive table to stderr.
//!
//! Each experiment reports wall-clock time and engine throughput (events
//! scheduled per second, from `EventQueue::scheduled_total`) to stderr, and
//! the run writes a machine-readable `BENCH_engine.json` summary.
//! Experiments that compute their figure analytically (no simulation run)
//! carry `"analytic": true` there, so throughput gates skip them instead
//! of reading their zero event counts as regressions.

use openoptics_bench as x;
use std::time::Instant;

/// Experiments that derive their figure analytically — closed-form delay /
/// error models, resource arithmetic — and schedule no engine events.
/// Marked in `BENCH_engine.json` so `xtask bench-diff` skips them.
const ANALYTIC: &[&str] = &["fig11", "fig12", "fig14", "table2", "minslice"];

/// One experiment's instrumentation record.
struct ExpStat {
    id: String,
    wall_s: f64,
    events: u64,
    /// Process peak RSS (VmHWM) observed when the experiment finished, MB.
    /// The high-water mark is monotonic across the run, so this reads as
    /// "the suite never needed more than this much memory up to and
    /// including this experiment".
    peak_rss_mb: f64,
    /// Extra JSON key/value pairs appended to this record verbatim
    /// (leading comma included) — per-cell sweep stats ride here.
    extra: String,
}

/// Process peak resident set size in MB (`VmHWM` from `/proc/self/status`),
/// or 0.0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

const USAGE: &str = "usage: experiments <fig8a|fig8b|fig9|fig10|fig11|fig12|fig13|fig14|table2|table3|table4|ablations|minslice|faults|slo|sweep|all> [--quick] [--jobs N] [--profile]";

/// Print `msg` and the usage line, then exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut profile = false;
    let mut which: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--jobs expects a positive integer"));
                x::par::set_jobs(n);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            id if which.is_none() => which = Some(id.to_string()),
            extra => usage_error(&format!("unexpected argument `{extra}`")),
        }
    }
    let which = which.unwrap_or_else(|| usage_error("missing experiment id"));
    let all = which == "all";
    let run = |id: &str| all || which == id;
    let mut ran = false;
    let mut stats: Vec<ExpStat> = vec![];

    let section = |title: &str| println!("\n=== {title} ===");

    // Run one experiment body with wall-clock + events/sec instrumentation.
    // Telemetry totals merged across the experiment's networks (identical
    // at any --jobs count) land on stderr next to the timing line.
    let instrument = |stats: &mut Vec<ExpStat>, id: &'static str, body: &mut dyn FnMut()| {
        x::par::take_events(); // drop any counts from a previous section
        x::par::take_metrics();
        let t = Instant::now();
        body();
        let wall_s = t.elapsed().as_secs_f64();
        let events = x::par::take_events();
        if events > 0 {
            eprintln!(
                "[{id} took {wall_s:.2}s; {events} events, {:.2} Mevents/s]",
                events as f64 / wall_s / 1e6
            );
        } else {
            eprintln!("[{id} took {wall_s:.2}s]");
        }
        let metrics = x::par::take_metrics();
        if !metrics.is_empty() {
            let g = |k: &str| metrics.get(k).copied().unwrap_or(0);
            let retx = g("engine.watchdog_retransmits")
                + g("engine.rto_retransmits")
                + g("engine.fast_retransmits")
                + g("engine.nack_retransmits");
            eprintln!(
                "[{id} telemetry: {} delivered, {} fabric drops, {} switch drops, \
                 {} pushbacks, {} retx]",
                g("engine.delivered_packets"),
                g("engine.fabric_drops"),
                g("engine.switch_drops"),
                g("tor.pushback_emitted"),
                retx,
            );
        }
        stats.push(ExpStat {
            id: id.to_string(),
            wall_s,
            events,
            peak_rss_mb: peak_rss_mb(),
            extra: String::new(),
        });
    };

    if run("fig8a") {
        ran = true;
        section("Fig. 8a — memcached mice FCTs per architecture");
        instrument(&mut stats, "fig8a", &mut || {
            let (rows, capture) =
                x::fig8::run_mice_with_spans(if quick { 8 } else { 40 }, 4, profile);
            print!("{}", x::fig8::render_mice(&rows));
            if let Some(c) = capture {
                write_artifact("fig8a_spans.json", &c.chrome_trace);
                write_artifact("fig8a_span_report.txt", &c.report);
                if let Some(wall) = c.wall_report {
                    eprintln!(
                        "[fig8a wall-clock profile of the {} point]\n{wall}",
                        x::fig8::SPAN_ARCH
                    );
                }
            }
        });
    }
    if run("fig8b") {
        ran = true;
        section("Fig. 8b — Gloo ring-allreduce completion per architecture");
        instrument(&mut stats, "fig8b", &mut || {
            for size in if quick { vec![800_000u64] } else { vec![800_000, 4_000_000, 20_000_000] }
            {
                println!(
                    "\n-- data size {} --",
                    if size >= 1_000_000 {
                        format!("{}MB", size / 1_000_000)
                    } else {
                        format!("{}KB", size / 1_000)
                    }
                );
                let rows = x::fig8::run_allreduce(size);
                print!("{}", x::fig8::render_allreduce(&rows));
            }
        });
    }
    if run("fig9") {
        ran = true;
        section("Fig. 9 — TCP throughput & reordering (iperf)");
        instrument(&mut stats, "fig9", &mut || {
            let rows = x::fig9::run(if quick { 10 } else { 50 });
            print!("{}", x::fig9::render(&rows));
        });
    }
    if run("fig10") {
        ran = true;
        section("Fig. 10 — mice FCT vs OCS slice duration (VLB / UCMP)");
        instrument(&mut stats, "fig10", &mut || {
            let rows = x::fig10::run(if quick { 8 } else { 30 });
            print!("{}", x::fig10::render(&rows));
        });
    }
    if run("fig11") {
        ran = true;
        section("Fig. 11 — switch-to-switch delay vs packet size");
        instrument(&mut stats, "fig11", &mut || {
            let rows = x::fig11::run(if quick { 500 } else { 5_000 });
            print!("{}", x::fig11::render(&rows));
        });
    }
    if run("fig12") {
        ran = true;
        section("Fig. 12 — EQO error vs update interval");
        instrument(&mut stats, "fig12", &mut || {
            let rows = x::fig12::run(if quick { 2_000 } else { 20_000 });
            print!("{}", x::fig12::render(&rows));
        });
    }
    if run("fig13") {
        ran = true;
        section("Fig. 13 — UDP RTT distribution (emulated vs real OCS)");
        instrument(&mut stats, "fig13", &mut || {
            let rows = x::fig13::run(if quick { 400 } else { 3_000 });
            print!("{}", x::fig13::render(&rows));
        });
    }
    if run("fig14") {
        ran = true;
        section("Fig. 14 — offload RTT stability (libvma vs kernel)");
        instrument(&mut stats, "fig14", &mut || {
            let rows = x::fig14::run(if quick { 2_000 } else { 20_000 });
            print!("{}", x::fig14::render(&rows));
        });
    }
    if run("table2") {
        ran = true;
        section("Table 2 — Tofino2 resource usage (108-ToR)");
        instrument(&mut stats, "table2", &mut || {
            print!("{}", x::table2::render(&x::table2::run()));
        });
    }
    if run("table3") {
        ran = true;
        section("Table 3 — p99.9 buffer usage (300us slices, 40% load)");
        instrument(&mut stats, "table3", &mut || {
            let (rows, capture) = x::table3::run_with_profile(if quick { 6 } else { 30 }, profile);
            print!("{}", x::table3::render(&rows));
            if let Some(c) = capture {
                let (algo, trace) = x::table3::PROFILE_CELL;
                eprintln!("[table3 sim-time profile of the {algo}/{trace} cell]\n{}", c.sim_report);
                if let Some(wall) = c.wall_report {
                    eprintln!("[table3 wall-clock profile of the {algo}/{trace} cell]\n{wall}");
                }
                let qs = c.queue_stats;
                eprintln!(
                    "[table3 queue mix of the {algo}/{trace} cell: {} scheduled, {} popped, \
                     {} far-heap, {} overlay-heap, peak {} pending]",
                    qs.scheduled_total,
                    qs.popped_total,
                    qs.far_scheduled,
                    qs.overlay_scheduled,
                    qs.peak_len,
                );
            }
        });
    }
    if run("table4") {
        ran = true;
        section("Table 4 — congestion detection & push-back ablation (HOHO, 70% load)");
        instrument(&mut stats, "table4", &mut || {
            let rows = x::table4::run(if quick { 6 } else { 30 });
            print!("{}", x::table4::render(&rows));
        });
    }
    if run("ablations") {
        ran = true;
        section("Ablations — guardband / defer window / EQO / offload lead");
        instrument(&mut stats, "ablations", &mut || {
            print!("{}", x::ablations::render(if quick { 6 } else { 20 }));
        });
    }
    if run("minslice") {
        ran = true;
        section("§7 — minimum time-slice derivation");
        instrument(&mut stats, "minslice", &mut || {
            print!("{}", x::minslice::render(&x::minslice::run()));
        });
    }
    if run("faults") {
        ran = true;
        section("Faults — injected-failure degradation & recovery");
        instrument(&mut stats, "faults", &mut || {
            let rows = x::faults::run(if quick { 40 } else { 80 });
            print!("{}", x::faults::render(&rows));
        });
    }

    if run("slo") {
        ran = true;
        section("SLO — per-service latency objectives under a fault window");
        let mut cache = None;
        instrument(&mut stats, "slo", &mut || {
            let (rows, samples) = x::slo::run(if quick { 40 } else { 80 });
            print!("{}", x::slo::render(&rows, samples));
            cache = rows.into_iter().find(|r| r.service == "cache");
        });
        // Surface the cache service's burn rate and tail on the JSON record
        // so `xtask bench-diff` can gate SLO regressions between runs.
        if let Some(c) = cache {
            let s = stats.last_mut().expect("instrument pushed a record");
            s.extra = format!(
                ", \"slo_burn_milli\": {}, \"p999_us\": {}",
                c.burn_milli,
                c.p999_ns / 1_000
            );
        }
    }

    // Deliberately not part of `all`: the composition matrix is a harness
    // gate (CI byte-identity + compatibility coverage), not a paper figure,
    // and `experiments_full.txt` stays byte-stable without it.
    if which == "sweep" {
        ran = true;
        section("Sweep — architecture x routing composition matrix");
        let mut cells: Vec<x::sweep::Cell> = Vec::new();
        instrument(&mut stats, "sweep", &mut || {
            cells = x::sweep::run(quick);
            print!("{}", x::sweep::render(&cells));
        });
        let rss = peak_rss_mb();
        for c in &cells {
            let (events, extra) = match &c.outcome {
                x::sweep::Outcome::Ran { completed, total, p50_us, p99_us } => (
                    c.events,
                    format!(
                        ", \"load\": {:.1}, \"fault\": \"{}\", \"completed\": {completed}, \
                         \"flows\": {total}, \"fct_p50_us\": {:.1}, \"fct_p99_us\": {:.1}",
                        c.load, c.fault, p50_us, p99_us
                    ),
                ),
                x::sweep::Outcome::Skipped { reason } => (
                    0,
                    format!(
                        ", \"load\": {:.1}, \"fault\": \"{}\", \"skipped\": \"{}\"",
                        c.load,
                        c.fault,
                        json_escape(reason)
                    ),
                ),
            };
            stats.push(ExpStat {
                id: format!("sweep:{}x{}@{:.1}/{}", c.arch, c.algo, c.load, c.fault),
                wall_s: c.wall_s,
                events,
                peak_rss_mb: rss,
                extra,
            });
        }
    }

    if !ran {
        eprintln!("unknown experiment id: {which}");
        std::process::exit(2);
    }

    // Zero-cost-when-disabled check: the churn micro-bench with detached
    // instruments vs. bare, reported alongside the throughput numbers.
    let overhead_pct = x::overhead::run();
    eprintln!("[telemetry disabled-mode overhead: {overhead_pct:.2}% on churn micro-bench]");
    // Batched-drain primitive check: the fused pop_before vs peek+pop.
    let (drain_single, drain_batched) = x::drainbench::run();
    eprintln!(
        "[drain micro-bench: {drain_single:.1} Mevents/s single-pop, \
         {drain_batched:.1} Mevents/s batched pop_before]"
    );
    // Control-plane state operations: checkpoint serialize, journal-replay
    // restore, in-memory fork (stderr + JSON only; stdout stays frozen).
    let (ckpt_save_ms, ckpt_restore_ms, ckpt_fork_ms) = x::ckptbench::run();
    eprintln!(
        "[checkpoint micro-bench: {ckpt_save_ms:.2} ms save, \
         {ckpt_restore_ms:.2} ms replay-restore, {ckpt_fork_ms:.2} ms fork]"
    );
    write_bench_json(
        &stats,
        overhead_pct,
        drain_single,
        drain_batched,
        (ckpt_save_ms, ckpt_restore_ms, ckpt_fork_ms),
    );
}

/// Write the machine-readable run summary next to the working directory.
fn write_bench_json(
    stats: &[ExpStat],
    overhead_pct: f64,
    drain_single: f64,
    drain_batched: f64,
    (ckpt_save_ms, ckpt_restore_ms, ckpt_fork_ms): (f64, f64, f64),
) {
    let total_wall: f64 = stats.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = stats.iter().map(|s| s.events).sum();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": {},\n", x::par::jobs()));
    out.push_str(&format!("  \"total_wall_s\": {total_wall:.3},\n"));
    out.push_str(&format!("  \"total_events\": {total_events},\n"));
    out.push_str(&format!(
        "  \"events_per_sec\": {:.0},\n",
        if total_wall > 0.0 { total_events as f64 / total_wall } else { 0.0 }
    ));
    out.push_str(&format!("  \"telemetry_disabled_overhead_pct\": {overhead_pct:.2},\n"));
    out.push_str(&format!("  \"drain_single_mevents_per_s\": {drain_single:.1},\n"));
    out.push_str(&format!("  \"drain_batched_mevents_per_s\": {drain_batched:.1},\n"));
    out.push_str(&format!("  \"checkpoint_save_ms\": {ckpt_save_ms:.2},\n"));
    out.push_str(&format!("  \"checkpoint_restore_ms\": {ckpt_restore_ms:.2},\n"));
    out.push_str(&format!("  \"checkpoint_fork_ms\": {ckpt_fork_ms:.2},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"peak_rss_mb\": {:.1}{}{}}}{}\n",
            s.id,
            s.wall_s,
            s.events,
            if s.wall_s > 0.0 { s.events as f64 / s.wall_s } else { 0.0 },
            s.peak_rss_mb,
            s.extra,
            if ANALYTIC.contains(&s.id.as_str()) { ", \"analytic\": true" } else { "" },
            if i + 1 < stats.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    write_artifact("BENCH_engine.json", &out);
}

/// Minimal JSON string escaping for recorded skip reasons.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Write one run artifact to the working directory, reporting the outcome
/// on stderr (artifacts are best-effort: a read-only checkout must not
/// abort the run).
fn write_artifact(name: &str, content: &str) {
    match std::fs::write(name, content) {
        Ok(()) => eprintln!("[wrote {name}]"),
        Err(e) => eprintln!("[could not write {name}: {e}]"),
    }
}
