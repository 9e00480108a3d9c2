//! The `ctl_session` workload: one client on one loopback TCP connection,
//! closed loop against `openoptics_ctl::serve_on` on a second thread.
//!
//! The client sets `TCP_NODELAY` and writes each request in one write, so
//! any stall it measures is the server's.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use openoptics_core::json::{self, Json};
use openoptics_ctl::{ControlPlane, Subscriptions};

use crate::gen::{self, Expect, Request, CKPT_SLOT, MAIN};
use crate::measure::{self, cpu_s, median, secs, Allocs};
use crate::report::Report;
use crate::sim;
use crate::trace::Tracer;

/// Blocks of 25 requests in one script (plus four malformed lines).
pub const SCRIPT_BLOCKS: usize = 4;

/// Connect → `load` round trips measured before the scripts, on top of the
/// one each script starts with.
const SETUP_SAMPLES: usize = 100;

/// Tracks what a script's replies must look like and checks each one.
pub struct Checker {
    /// The last `checkpoint` reply's document, for the next `restore`.
    ckpt: String,
    /// The last reply's export text, for [`Expect::SameAsPrevious`].
    prev_text: Option<String>,
    pub checkpoint_bytes: usize,
}

impl Checker {
    pub fn new() -> Checker {
        Checker { ckpt: "null".to_string(), prev_text: None, checkpoint_bytes: 0 }
    }

    /// The line to send for `req`, with the checkpoint slot filled in.
    pub fn line(&self, req: &Request) -> String {
        if req.line.contains(CKPT_SLOT) {
            req.line.replace(CKPT_SLOT, &self.ckpt)
        } else {
            req.line.clone()
        }
    }

    /// Check one reply line against what `req` expects.
    pub fn reply(&mut self, rep: &mut Report, id: u64, req: &Request, reply: &str) {
        let parsed = json::parse(reply);
        let doc = match &parsed {
            Ok(d) => d,
            Err(e) => {
                rep.check(false, || format!("request {id}: unparseable reply: {e}"));
                return;
            }
        };
        let text = doc.get("result").and_then(|r| r.get("text")).and_then(|t| t.as_str().ok());
        let ok = match req.expect {
            Expect::Error => {
                let typed = doc.get("error").is_some_and(|e| {
                    e.get("field").is_some_and(|f| f.as_str().is_ok())
                        && e.get("reason").is_some_and(|r| r.as_str().is_ok())
                });
                // A line that is not JSON has no id to echo.
                let echoed = matches!(doc.get("id"), Some(Json::Null))
                    || doc.get("id").and_then(|v| v.as_u64().ok()) == Some(id);
                typed && echoed
            }
            Expect::Result | Expect::SameAsPrevious => {
                let same_id = doc.get("id").and_then(|v| v.as_u64().ok()) == Some(id);
                let has_result = doc.get("result").is_some();
                let same = req.expect != Expect::SameAsPrevious
                    || (text.is_some() && text == self.prev_text.as_deref());
                same_id && has_result && same
            }
        };
        rep.check(ok, || {
            let head: String = reply.chars().take(160).collect();
            format!("request {id} ({}, expect {:?}): got {head}", req.method, req.expect)
        });
        if req.method == "checkpoint" {
            if let Some(c) = doc.get("result").and_then(|r| r.get("checkpoint")) {
                self.ckpt = c.to_string();
                self.checkpoint_bytes = self.ckpt.len();
            }
        }
        self.prev_text = text.map(str::to_string);
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader, frames: 0 })
    }

    /// Send one request line and read up to its reply, counting the
    /// subscription frames streamed ahead of it.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())?;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            if reply.starts_with("{\"sub\":") {
                self.frames += 1;
                continue;
            }
            return Ok(reply.trim_end().to_string());
        }
    }
}

/// Ids: 1 for `load`, 2 for `subscribe`, the script from 3.
pub const FIRST_SCRIPT_ID: u64 = 3;

fn subscribe_line() -> String {
    format!("{{\"id\":2,\"method\":\"subscribe\",\"params\":{{\"name\":\"{MAIN}\"}}}}")
}

/// One script pass over TCP.
struct ScriptPass {
    setup_s: f64,
    setup_allocs: Allocs,
    run_s: f64,
    cpu_s: f64,
    allocs: Allocs,
    rtts: Vec<(&'static str, f64)>,
    frames: u64,
    checkpoint_bytes: usize,
    /// The main session's export bundle after the script.
    bundle: String,
}

fn script_pass(
    addr: std::net::SocketAddr,
    load: &str,
    script: &[Request],
    rep: &mut Report,
    tr: &mut Tracer,
) -> std::io::Result<ScriptPass> {
    let a0 = Allocs::now();
    let t0 = Instant::now();
    let setup = tr.begin("setup.connect_load");
    let mut c = Client::connect(addr)?;
    let reply = c.call(load)?;
    tr.end(setup);
    let setup_s = secs(t0);
    let setup_allocs = Allocs::now().since(a0);
    rep.check(reply.contains("\"result\""), || format!("load: got {reply}"));
    let reply = c.call(&subscribe_line())?;
    rep.check(reply.contains("\"subscribed\":true"), || format!("subscribe: got {reply}"));

    let mut checker = Checker::new();
    let mut rtts = Vec::with_capacity(script.len());
    let root = tr.begin("bench.script");
    let a0 = Allocs::now();
    let c0 = cpu_s();
    let t1 = Instant::now();
    for (i, req) in script.iter().enumerate() {
        let id = FIRST_SCRIPT_ID + i as u64;
        let line = checker.line(req);
        let ts = Instant::now();
        let span = tr.begin(&format!("rpc.{}", req.method));
        let reply = c.call(&line)?;
        tr.end(span);
        rtts.push((req.method, secs(ts) * 1e6));
        checker.reply(rep, id, req, &reply);
    }
    let run_s = secs(t1);
    let cpu = cpu_s() - c0;
    let allocs = Allocs::now().since(a0);
    tr.end(root);
    let bundle = c.call(&format!(
        "{{\"id\":0,\"method\":\"export\",\"params\":{{\"name\":\"{MAIN}\",\"what\":\"bundle\"}}}}"
    ))?;
    let bundle = json::parse(&bundle).ok().and_then(|d| {
        d.get("result")
            .and_then(|r| r.get("text"))
            .and_then(|t| t.as_str().ok().map(str::to_string))
    });
    Ok(ScriptPass {
        setup_s,
        setup_allocs,
        run_s,
        cpu_s: cpu,
        allocs,
        rtts,
        frames: c.frames,
        checkpoint_bytes: checker.checkpoint_bytes,
        bundle: bundle.unwrap_or_default(),
    })
}

/// What an in-process replay of a script returns.
pub struct Replay {
    /// Handle time of each script request, us, aligned with the script.
    pub times: Vec<(&'static str, f64)>,
    /// Every response and frame line, in order.
    pub lines: Vec<String>,
    /// Events the main session scheduled by the end of the script.
    pub events: u64,
}

/// Replay `load`, `subscribe` and the script through an in-process
/// control plane (`ControlPlane::handle_request`), checking every reply.
pub fn replay(load: &str, script: &[Request], rep: &mut Report, tr: &mut Tracer) -> Replay {
    let mut cp = ControlPlane::new(None);
    let mut subs = Subscriptions::new();
    let mut out = cp.handle_request(load, &mut subs);
    out.extend(cp.handle_request(&subscribe_line(), &mut subs));
    let mut checker = Checker::new();
    let mut times = Vec::with_capacity(script.len());
    let root = tr.begin("bench.replay");
    for (i, req) in script.iter().enumerate() {
        let line = checker.line(req);
        let t = Instant::now();
        let span = tr.begin(&format!("ctl.handle_{}", req.method));
        let lines = cp.handle_request(&line, &mut subs);
        tr.end(span);
        times.push((req.method, secs(t) * 1e6));
        let reply = lines.last().cloned().unwrap_or_default();
        checker.reply(rep, FIRST_SCRIPT_ID + i as u64, req, &reply);
        out.extend(lines);
    }
    tr.end(root);
    let status = format!("{{\"id\":0,\"method\":\"status\",\"params\":{{\"name\":\"{MAIN}\"}}}}");
    let events = cp
        .handle_request(&status, &mut Subscriptions::new())
        .pop()
        .and_then(|l| json::parse(&l).ok())
        .and_then(|d| d.get("result")?.get("events_scheduled")?.as_u64().ok())
        .unwrap_or(0);
    Replay { times, lines: out, events }
}

fn method_p50(samples: &[(&'static str, f64)], method: &str) -> f64 {
    let v: Vec<f64> = samples.iter().filter(|(m, _)| *m == method).map(|&(_, t)| t).collect();
    median(&v)
}

/// Fold a telemetry snapshot export's counters to base-name totals.
fn snapshot_totals(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(doc) = json::parse(text) else { return out };
    let groups = [doc.get("counters"), doc.get("gauges")];
    for (name, v) in groups.into_iter().flatten().filter_map(|g| g.as_obj().ok()).flatten() {
        let base = name.split('{').next().unwrap_or(name).to_string();
        *out.entry(base).or_insert(0) += v.as_u64().unwrap_or(0);
    }
    out
}

/// Run `ctl_session` for `seconds`, filling `rep`.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) {
    let mut tr = Tracer::new("ctl_session");
    let scenario = gen::ctl_scenario(seed);
    let load = gen::load_line(1, &scenario);
    let script = gen::ctl_script(seed, SCRIPT_BLOCKS, FIRST_SCRIPT_ID);
    rep.note(format!(
        "scenario ctl_session seed {seed}: {} bytes, {} scripted requests ({} malformed)",
        scenario.len(),
        script.len(),
        script.iter().filter(|r| r.expect == Expect::Error).count()
    ));

    let listener = match TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l))) {
        Ok(l) => l,
        Err(e) => {
            rep.check(false, || format!("bind loopback listener: {e}"));
            return;
        }
    };
    let (addr, listener) = listener;
    let server = std::thread::spawn(move || openoptics_ctl::serve_on(listener, None));

    let wall0 = Instant::now();
    let mut setup = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let outcome = Client::connect(addr).and_then(|mut c| c.call(&load));
        setup.push(secs(t0));
        rep.check(outcome.as_ref().is_ok_and(|r| r.contains("\"result\"")), || {
            format!("load: {outcome:?}")
        });
    }
    let mut runs = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut cpus = Vec::new();
    let mut rtts = Vec::new();
    let mut tails = Vec::new();
    let mut last = None;
    let mut passes = 0;
    loop {
        let traced_pass = traced && passes % 2 == 1;
        tr.set_on(traced_pass);
        let t0 = Instant::now();
        match script_pass(addr, &load, &script, rep, &mut tr) {
            Ok(p) => {
                setup.push(p.setup_s);
                runs[usize::from(traced_pass)].push(p.run_s);
                if !traced_pass {
                    cpus.push(p.cpu_s);
                    let v: Vec<f64> = p.rtts.iter().map(|&(_, t)| t).collect();
                    tails.push(measure::tail(&v));
                }
                rtts.extend_from_slice(&p.rtts);
                last = Some(p);
            }
            Err(e) => {
                rep.check(false, || format!("script pass: {e}"));
                break;
            }
        }
        passes += 1;
        if passes >= 2 && secs(wall0) + secs(t0) > seconds {
            break;
        }
    }
    let bye = Client::connect(addr).and_then(|mut c| c.call("{\"id\":0,\"method\":\"shutdown\"}"));
    rep.check(bye.is_ok(), || format!("shutdown: {bye:?}"));
    let served = server.join();
    rep.check(matches!(served, Ok(Ok(()))), || "server thread ended with an error".to_string());
    let Some(p) = last else { return };

    let all: Vec<f64> = rtts.iter().map(|&(_, t)| t).collect();
    let rpc_p50 = median(&all);
    let tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, pct, per_pass) = tails.first().copied().unwrap_or_default();
    let n = all.len();
    rep.e2e("setup_s", median(&setup));
    rep.e2e("run_s", median(&runs[0]));
    rep.e2e("cpu_s", median(&cpus));
    rep.e2e("peak_rss_mb", measure::peak_rss_mb());
    rep.e2e("call_p50_us", rpc_p50);
    rep.e2e("call_tail_us", tail);
    rep.note(format!("script passes {passes}, setup samples {}", setup.len()));
    rep.note(format!("rpc_p50_us {rpc_p50} over {n} round trips"));
    rep.note(format!(
        "rpc_tail_us {tail} is p{pct:.2} of the {per_pass} round trips of one script (10 beyond \
         it), median over {} untraced scripts",
        tails.len()
    ));

    // The bundle holds the telemetry snapshot on the line after its header
    // and the FCT summary as `completed=<n> outstanding=<n>`.
    let telemetry = p.bundle.lines().skip_while(|l| *l != "-- telemetry --").nth(1).unwrap_or("");
    let counters = snapshot_totals(telemetry);
    let started: u64 = p
        .bundle
        .lines()
        .find_map(|l| l.strip_prefix("completed="))
        .map(|l| l.split(" outstanding=").filter_map(|n| n.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    let get = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let events = get("sim.events_scheduled");
    rep.layer("sim.events", events);
    rep.layer("sim.events_popped", get("sim.events_popped"));
    rep.layer("sim.far_scheduled", get("sim.events_far_scheduled"));
    rep.layer("sim.queue_peak_len", get("sim.queue_peak_len"));
    rep.layer("alloc.per_event", p.allocs.count as f64 / events.max(1.0));
    rep.layer("alloc.bytes_per_event", p.allocs.bytes as f64 / events.max(1.0));
    rep.layer("alloc.setup_count", p.setup_allocs.count as f64);
    sim::layer_counters(rep, &counters);
    rep.layer("telemetry.frames", p.frames as f64);
    rep.layer("telemetry.export_bytes", telemetry.len() as f64);
    rep.layer("workload.flows_offered", started as f64);
    rep.layer("ctl.frames_streamed", p.frames as f64);
    rep.layer("ctl.checkpoint_bytes", p.checkpoint_bytes as f64);
    for m in ["run_until", "add_flow", "status", "export", "checkpoint", "restore", "fork"] {
        rep.layer(&format!("ctl.{m}_us_p50"), method_p50(&rtts, m));
    }

    if traced {
        tr.set_on(true);
        let handle = replay(&load, &script, rep, &mut tr).times;
        let handle_all: Vec<f64> = handle.iter().map(|&(_, t)| t).collect();
        let handle_p50 = median(&handle_all);
        rep.layer("ctl.handle_us_p50", handle_p50);
        rep.layer("ctl.transport_us_p50", rpc_p50 - handle_p50);
        rep.layer("ctl.reconfigure_us_p50", method_p50(&handle, "reconfigure"));
        // In-process export cost by kind, ms; `handle` is aligned with `script`.
        let export_ms = |what: &str| {
            let tag = format!("\"what\":\"{what}\"");
            let v: Vec<f64> = script
                .iter()
                .zip(&handle)
                .filter(|(r, _)| r.method == "export" && r.line.contains(&tag))
                .map(|(_, &(_, t))| t / 1e3)
                .collect();
            median(&v)
        };
        rep.layer("telemetry.export_ms", export_ms("telemetry"));
        rep.layer("telemetry.timeseries_export_ms", export_ms("timeseries"));
        rep.layer("telemetry.slo_export_ms", export_ms("slo"));
        rep.note(format!(
            "ctl.transport_us_p50 is {:.2} % of rpc_p50_us",
            100.0 * (rpc_p50 - handle_p50) / rpc_p50
        ));
        let mut pieces = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..5 {
            if let Ok((_, t)) = sim::setup(&scenario, &mut tr) {
                pieces[0].push(t.parse_s);
                pieces[1].push(t.from_json_s);
                pieces[2].push(t.session_new_s);
            }
        }
        rep.layer("json.parse_ms", median(&pieces[0]) * 1e3);
        rep.layer("json.parse_mb_per_s", scenario.len() as f64 / median(&pieces[0]) / 1e6);
        rep.layer("scenario.from_json_ms", median(&pieces[1]) * 1e3);
        rep.layer("session.new_ms", median(&pieces[2]) * 1e3);
        let (sched, deploy) = sim::deploy_timings(&scenario, &mut tr);
        rep.layer("topo.schedule_ms", sched);
        rep.layer("routing.deploy_ms", deploy);
        rep.layer("trace.overhead_s", median(&runs[1]) - median(&runs[0]));
        sim::finish_trace(rep, &tr, "ctl_session", seed, passes / 2);
    }
}
