//! The line-delimited JSON-RPC control-plane server.
//!
//! One request per line, one response per line: a request is
//! `{"id": .., "method": "..", "params": {..}}` and the response echoes the
//! id with either a `result` or a typed `error` (`{"field", "reason"}` —
//! the same shape scenario validation produces). The protocol layer
//! ([`ControlPlane`]) is plain request-in/response-out with no I/O of its
//! own, so it is driven identically by the TCP loop ([`serve`]), tests and
//! examples; scenarios and checkpoints travel *inline* in requests and
//! responses, which keeps the server free of filesystem access entirely.
//!
//! Sessions are named: `load` creates one, `fork` branches one in memory,
//! and every other method addresses one by name, so a single server can
//! hold a warm baseline and several what-if branches at once.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use openoptics_core::json::{self, Json};

use crate::checkpoint::{Checkpoint, Op};
use crate::scenario::{Scenario, ScenarioError};
use crate::session::Session;

/// Most frames pushed to one subscriber per request turn. A subscriber
/// that falls further behind gets the first `MAX_FRAMES_PER_TURN` frames
/// plus one `overflow` frame counting what was skipped — bounded
/// back-pressure instead of an unbounded write burst.
pub const MAX_FRAMES_PER_TURN: usize = 1024;

/// Per-connection subscription state: which sessions this connection
/// streams frames from, and how far into each session's frame log it has
/// read. Owned by the connection loop — dropping it (client disconnect)
/// tears down only that connection's subscriptions, never the sessions.
#[derive(Clone, Debug, Default)]
pub struct Subscriptions {
    cursors: BTreeMap<String, usize>,
}

impl Subscriptions {
    /// No subscriptions.
    pub fn new() -> Subscriptions {
        Subscriptions::default()
    }

    /// Session names currently subscribed, in name order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.cursors.keys().map(String::as_str)
    }
}

/// The protocol state machine: named sessions plus request dispatch.
///
/// Holds no sockets and touches no files — callers feed it one request
/// document at a time and write back the response however they like.
pub struct ControlPlane {
    sessions: BTreeMap<String, Session>,
    shutdown: bool,
}

impl ControlPlane {
    /// An empty control plane.
    ///
    /// The argument can only be `None`: the slot stays so that callers
    /// written against the older `new(workers)` signature (the `perfbench`
    /// harness among them) keep compiling, and it carries no value.
    pub fn new(_: Option<Infallible>) -> ControlPlane {
        ControlPlane { sessions: BTreeMap::new(), shutdown: false }
    }

    /// True once a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Handle one request line, returning the response line (no trailing
    /// newline). Subscription-free convenience over
    /// [`ControlPlane::handle_request`]: `subscribe` still validates but
    /// the throwaway state means no frames will ever be delivered.
    pub fn handle_line(&mut self, line: &str) -> String {
        let mut subs = Subscriptions::new();
        self.handle_request(line, &mut subs).pop().unwrap_or_default()
    }

    /// Handle one request line against a connection's subscription state.
    ///
    /// Returns the lines to write back in order: zero or more frame lines
    /// (`{"sub": "<session>", "frame": {..}}`) — the delta each subscribed
    /// session's frame log accumulated since the connection last drained
    /// it, capped at [`MAX_FRAMES_PER_TURN`] per subscription with an
    /// `overflow` frame counting anything skipped — then exactly one
    /// id-matched response line. Interleaving `run_until`/`run_for`
    /// requests with drains on the same connection is what streams a live
    /// run.
    pub fn handle_request(&mut self, line: &str, subs: &mut Subscriptions) -> Vec<String> {
        let (id, outcome) = match json::parse(line) {
            Ok(req) => {
                let id = req.get("id").cloned().unwrap_or(Json::Null);
                (id, self.dispatch(&req, subs))
            }
            Err(e) => (Json::Null, Err(ScenarioError::new("request", e.to_string()))),
        };
        let body = match outcome {
            Ok(result) => ("result".to_string(), result),
            Err(e) => (
                "error".to_string(),
                Json::Obj(vec![
                    ("field".to_string(), Json::Str(e.field)),
                    ("reason".to_string(), Json::Str(e.reason)),
                ]),
            ),
        };
        let mut out = self.drain_frames(subs);
        out.push(Json::Obj(vec![("id".to_string(), id), body]).to_string());
        out
    }

    /// Frame lines owed to `subs` since the last drain, advancing every
    /// cursor. Subscriptions to sessions that no longer exist stay
    /// registered but yield nothing.
    fn drain_frames(&self, subs: &mut Subscriptions) -> Vec<String> {
        let mut out = Vec::new();
        for (name, cursor) in subs.cursors.iter_mut() {
            let Some(s) = self.sessions.get(name) else { continue };
            let frames = s.net().frames();
            let fresh = frames.since(*cursor);
            let take = fresh.len().min(MAX_FRAMES_PER_TURN);
            let sub = Json::Str(name.clone()).to_string();
            for frame in &fresh[..take] {
                let mut line = format!("{{\"sub\":{sub},\"frame\":");
                frame.write_json(&mut line);
                line.push('}');
                out.push(line);
            }
            if fresh.len() > take {
                out.push(format!(
                    "{{\"sub\":{sub},\"frame\":{{\"frame\":\"overflow\",\"skipped\":{}}}}}",
                    fresh.len() - take
                ));
            }
            *cursor = frames.len();
        }
        out
    }

    fn dispatch(&mut self, req: &Json, subs: &mut Subscriptions) -> Result<Json, ScenarioError> {
        let method = match req.get("method") {
            Some(Json::Str(m)) => m.as_str(),
            _ => return Err(ScenarioError::new("method", "missing required field")),
        };
        let empty = Json::Obj(vec![]);
        let params = req.get("params").unwrap_or(&empty);
        match method {
            "load" => self.load(params),
            "status" => {
                let s = self.session(params)?;
                Ok(Json::Obj(vec![
                    ("now_ns".to_string(), Json::Num(s.now_ns() as f64)),
                    ("stop_ns".to_string(), Json::Num(s.stop_ns() as f64)),
                    ("journal_len".to_string(), Json::Num(s.journal().len() as f64)),
                    ("events_scheduled".to_string(), Json::Num(s.net().events_scheduled() as f64)),
                ]))
            }
            "run_until" => {
                let ns = param_u64(params, "ns")?;
                let s = self.session_mut(params)?;
                s.run_until(ns);
                Ok(now_obj(s))
            }
            "run_for" => {
                let dur = param_u64(params, "dur_ns")?;
                let s = self.session_mut(params)?;
                s.run_for(dur);
                Ok(now_obj(s))
            }
            "add_flow" | "inject_faults" | "reconfigure" => {
                let op = Op::from_json(&with_op(params, method), 0)?;
                let s = self.session_mut(params)?;
                s.apply(op)?;
                Ok(now_obj(s))
            }
            "export" => {
                let what = param_str(params, "what")?;
                let s = self.session(params)?;
                let text = match what.as_str() {
                    "bundle" => s.export_bundle(),
                    "telemetry" => s.net().telemetry_snapshot().to_json(),
                    "telemetry_csv" => s.net().telemetry_snapshot().to_csv(),
                    "trace" => err_ctx(s.net().export_trace())?,
                    "timeseries" => err_ctx(s.net().export_timeseries())?,
                    "slo" => err_ctx(s.net().export_slo_report())?,
                    "spans" => err_ctx(s.net().export_spans_chrome_trace())?,
                    "span_report" => err_ctx(s.net().export_span_report())?,
                    other => {
                        return Err(ScenarioError::new(
                            "params.what",
                            format!("unknown export `{other}` (want bundle, telemetry, telemetry_csv, trace, timeseries, slo, spans or span_report)"),
                        ))
                    }
                };
                Ok(Json::Obj(vec![("text".to_string(), Json::Str(text))]))
            }
            "subscribe" => {
                let name = param_str(params, "name")?;
                let s = self.sessions.get(&name).ok_or_else(|| {
                    ScenarioError::new("params.name", format!("no session named `{name}`"))
                })?;
                // The cursor starts at the current end of the frame log:
                // a subscriber streams what happens from now on, not
                // history (use `export timeseries` for history). Neither
                // subscribe nor unsubscribe is journaled — subscriptions
                // are connection state, not simulation state.
                let cursor = s.net().frames().len();
                subs.cursors.insert(name, cursor);
                Ok(Json::Obj(vec![
                    ("subscribed".to_string(), Json::Bool(true)),
                    ("cursor".to_string(), Json::Num(cursor as f64)),
                ]))
            }
            "unsubscribe" => {
                let name = param_str(params, "name")?;
                let was = subs.cursors.remove(&name).is_some();
                Ok(Json::Obj(vec![
                    ("subscribed".to_string(), Json::Bool(false)),
                    ("was_subscribed".to_string(), Json::Bool(was)),
                ]))
            }
            "checkpoint" => {
                let s = self.session(params)?;
                Ok(Json::Obj(vec![("checkpoint".to_string(), s.checkpoint().to_json_value())]))
            }
            "restore" => {
                let name = param_str(params, "name")?;
                let doc = params.get("checkpoint").ok_or_else(|| {
                    ScenarioError::new("params.checkpoint", "missing required field")
                })?;
                let ckpt = Checkpoint::from_json(doc)?;
                let s = Session::restore(ckpt)?;
                let result = now_obj(&s);
                self.sessions.insert(name, s);
                Ok(result)
            }
            "fork" => {
                let from = param_str(params, "from")?;
                let name = param_str(params, "name")?;
                let branch = self
                    .sessions
                    .get(&from)
                    .ok_or_else(|| {
                        ScenarioError::new("params.from", format!("no session named `{from}`"))
                    })?
                    .fork();
                let result = now_obj(&branch);
                self.sessions.insert(name, branch);
                Ok(result)
            }
            "sessions" => Ok(Json::Obj(vec![(
                "names".to_string(),
                Json::Arr(self.sessions.keys().map(|k| Json::Str(k.clone())).collect()),
            )])),
            "shutdown" => {
                self.shutdown = true;
                Ok(Json::Obj(vec![("ok".to_string(), Json::Bool(true))]))
            }
            other => Err(ScenarioError::new("method", format!("unknown method `{other}`"))),
        }
    }

    fn load(&mut self, params: &Json) -> Result<Json, ScenarioError> {
        let name = param_str(params, "name")?;
        let doc = params
            .get("scenario")
            .ok_or_else(|| ScenarioError::new("params.scenario", "missing required field"))?;
        let scenario = Scenario::from_json(doc)?;
        let session = Session::new(scenario)?;
        let result = Json::Obj(vec![
            ("now_ns".to_string(), Json::Num(session.now_ns() as f64)),
            ("stop_ns".to_string(), Json::Num(session.stop_ns() as f64)),
            ("hosts".to_string(), Json::Num(session.scenario().config.total_hosts() as f64)),
        ]);
        self.sessions.insert(name, session);
        Ok(result)
    }

    fn session(&self, params: &Json) -> Result<&Session, ScenarioError> {
        let name = param_str(params, "name")?;
        self.sessions
            .get(&name)
            .ok_or_else(|| ScenarioError::new("params.name", format!("no session named `{name}`")))
    }

    fn session_mut(&mut self, params: &Json) -> Result<&mut Session, ScenarioError> {
        let name = param_str(params, "name")?;
        self.sessions
            .get_mut(&name)
            .ok_or_else(|| ScenarioError::new("params.name", format!("no session named `{name}`")))
    }
}

fn now_obj(s: &Session) -> Json {
    Json::Obj(vec![("now_ns".to_string(), Json::Num(s.now_ns() as f64))])
}

fn param_u64(params: &Json, key: &str) -> Result<u64, ScenarioError> {
    match params.get(key) {
        Some(v) => {
            v.as_u64().map_err(|e| ScenarioError::new(format!("params.{key}"), e.to_string()))
        }
        None => Err(ScenarioError::new(format!("params.{key}"), "missing required field")),
    }
}

fn param_str(params: &Json, key: &str) -> Result<String, ScenarioError> {
    match params.get(key) {
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .map_err(|e| ScenarioError::new(format!("params.{key}"), e.to_string())),
        None => Err(ScenarioError::new(format!("params.{key}"), "missing required field")),
    }
}

fn err_ctx(r: Result<String, openoptics_core::Error>) -> Result<String, ScenarioError> {
    r.map_err(|e| ScenarioError::new("params.what", e.to_string()))
}

/// Reshape method params into the journal-op JSON form by prepending the
/// `op` discriminator — the RPC methods deliberately use the same field
/// names as [`Op`] serialization.
fn with_op(params: &Json, op: &str) -> Json {
    let mut fields = vec![("op".to_string(), Json::Str(op.to_string()))];
    if let Json::Obj(existing) = params {
        fields.extend(existing.iter().cloned());
    }
    Json::Obj(fields)
}

/// Bind `addr` and serve the control plane over TCP until a `shutdown`
/// request arrives.
pub fn serve(addr: &str) -> std::io::Result<()> {
    serve_on(TcpListener::bind(addr)?, None)
}

/// Serve an already-bound listener until a `shutdown` request arrives.
///
/// Binding separately lets callers use port 0 and read the OS-assigned
/// port from `listener.local_addr()` before handing the listener over —
/// how the end-to-end example and tests avoid port collisions.
/// Connections are handled one at a time (the simulator is single-run
/// deterministic state — concurrent mutation would be a bug, not a
/// feature) and each connection may carry any number of request lines.
///
/// The second argument can only be `None`; like [`ControlPlane::new`]'s,
/// it is kept so callers of the older signature keep compiling.
pub fn serve_on(listener: TcpListener, _: Option<Infallible>) -> std::io::Result<()> {
    let mut cp = ControlPlane::new(None);
    for stream in listener.incoming() {
        let stream = stream?;
        // A client dropping mid-request or mid-stream is that client's
        // problem: its subscription state dies with the connection loop
        // below, the sessions and the accept loop keep serving.
        if let Err(e) = serve_connection(&mut cp, stream) {
            eprintln!("openoptics-ctl: connection ended with error: {e}");
        }
        if cp.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

fn serve_connection(cp: &mut ControlPlane, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    let mut subs = Subscriptions::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        for out in cp.handle_request(&line, &mut subs) {
            writer.write_all(out.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        if cp.shutdown_requested() {
            break;
        }
    }
    Ok(())
}
