//! Control-plane acceptance tests: scenario round-trips, typed rejection,
//! checkpoint/restore determinism at multiple worker counts, and the RPC
//! dispatch layer.

use openoptics_ctl::{
    Checkpoint, ControlPlane, FaultEntry, Op, Scenario, Session, Subscriptions, TmSpec,
};

/// A small faulted run that exercises every subsystem the bundle exports:
/// flows, a fault window, telemetry.
const SCENARIO: &str = r#"{
    "version": 1,
    "description": "determinism probe",
    "config": {
        "node_num": 8, "uplink": 2, "hosts_per_node": 1,
        "slice_ns": 10000, "guard_ns": 1000,
        "uplink_gbps": 25, "host_link_gbps": 100,
        "sync_err_ns": 0, "queue_capacity": 8388608,
        "seed": 7, "telemetry": true
    },
    "architecture": { "name": "rotornet" },
    "routing": { "algo": "vlb", "lookup": "per_hop", "multipath": "per_packet" },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 0, "dst": 5, "bytes": 400000 },
        { "kind": "flow", "at_ns": 100, "src": 2, "dst": 6, "bytes": 400000 }
    ],
    "faults": [
        { "kind": "link_down", "node": 0, "port": 0, "start_ns": 50000, "end_ns": 900000 }
    ],
    "stop_ns": 2000000
}"#;

/// The probe scenario plus live sampling, service tags and an SLO target —
/// what the streaming-subscription and SLO-accounting tests drive.
const SLO_SCENARIO: &str = r#"{
    "version": 1,
    "description": "slo probe",
    "config": {
        "node_num": 8, "uplink": 2, "hosts_per_node": 1,
        "slice_ns": 10000, "guard_ns": 1000,
        "uplink_gbps": 25, "host_link_gbps": 100,
        "sync_err_ns": 0, "queue_capacity": 8388608,
        "seed": 7, "telemetry": true, "sample_every_ns": 100000
    },
    "architecture": { "name": "rotornet" },
    "routing": { "algo": "vlb", "lookup": "per_hop", "multipath": "per_packet" },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 0, "dst": 5, "bytes": 400000, "service": "bulk" },
        { "kind": "memcached", "server": 7, "clients": [1, 2], "stop_ns": 1500000,
          "service": "cache" }
    ],
    "slos": [
        { "service": "cache", "latency_ns": 400000, "objective_milli": 990,
          "window_ns": 500000 }
    ],
    "faults": [
        { "kind": "link_down", "node": 0, "port": 0, "start_ns": 50000, "end_ns": 900000 }
    ],
    "stop_ns": 2000000
}"#;

fn scenario() -> Scenario {
    Scenario::parse(SCENARIO).expect("probe scenario parses")
}

// --- scenario format ---

#[test]
fn normalized_form_is_a_fixed_point() {
    for text in [
        SCENARIO,
        include_str!("../../../examples/scenarios/fig8a_testbed.json"),
        include_str!("../../../examples/scenarios/rotornet_faulted.json"),
        include_str!("../../../examples/scenarios/sweep_cell.json"),
        include_str!("../../../examples/scenarios/slo_live.json"),
    ] {
        let once = Scenario::parse(text).expect("example parses").to_json();
        let twice = Scenario::parse(&once).expect("normalized form parses").to_json();
        assert_eq!(once, twice, "parse -> render must be a fixed point");
    }
}

#[test]
fn comment_keys_are_preserved_in_config_and_ignored_by_validation() {
    let s = scenario();
    // The probe scenario has no comments; add one through the raw document.
    let commented =
        SCENARIO.replacen(r#""node_num": 8,"#, r##""#": "eight ToRs", "node_num": 8,"##, 1);
    let parsed = Scenario::parse(&commented).expect("commented scenario parses");
    assert!(parsed.to_json().contains("eight ToRs"), "config comments survive normalization");
    assert_eq!(parsed.config.node_num, s.config.node_num);
}

#[test]
fn version_mismatch_is_rejected_with_the_field_named() {
    let err = Scenario::parse(&SCENARIO.replacen(r#""version": 1"#, r#""version": 2"#, 1))
        .expect_err("future version must be rejected");
    assert_eq!(err.field, "version");
    assert!(err.reason.contains("unsupported scenario version 2"), "{err}");
}

#[test]
fn typed_rejections_name_the_offending_field() {
    let cases = [
        ("not json at all", "scenario"),
        (r#"{"version": 1, "stop_ns": 10}"#, "architecture"),
        (
            r#"{"version": 1, "architecture": {"name": "torus3d"}, "stop_ns": 10}"#,
            "architecture.name",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "routing": {"algo": "bgp"}, "stop_ns": 10}"#,
            "routing.algo",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "config": {"node_num": "eight"}, "stop_ns": 10}"#,
            "config",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "workloads": [{"kind": "flow", "src": 0, "dst": 1}], "stop_ns": 10}"#,
            "workloads[0].bytes",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "workloads": [{"kind": "flow", "src": 0, "dst": 9999, "bytes": 1}], "stop_ns": 10}"#,
            "workloads[0].dst",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "faults": [{"kind": "gamma_ray", "node": 0, "start_ns": 1, "end_ns": 2}],
                "stop_ns": 10}"#,
            "faults[0].kind",
        ),
        (
            r#"{"version": 1, "architecture": {"name": "clos"},
                "faults": [{"kind": "link_down", "node": 0, "start_ns": 5, "end_ns": 5}],
                "stop_ns": 10}"#,
            "faults",
        ),
        (r#"{"version": 1, "architecture": {"name": "clos"}}"#, "stop_ns"),
    ];
    for (text, field) in cases {
        let err = Scenario::parse(text).expect_err(text);
        assert_eq!(err.field, field, "wrong field for `{text}`: {err}");
    }
}

// --- determinism ---

#[test]
fn restore_then_run_matches_an_uninterrupted_run() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);
    let reference = straight.export_bundle();

    // Checkpoint mid-fault-window, serialize, reparse, restore; the
    // continuation must land on the reference bytes.
    let mut half = Session::new(scenario()).unwrap();
    half.run_until(600_000);
    let doc = half.checkpoint().to_json();
    let reparsed = Checkpoint::parse(&doc).expect("checkpoint parses");
    assert_eq!(reparsed.to_json(), doc, "checkpoint render is a fixed point");

    let mut resumed = Session::restore(Checkpoint::parse(&doc).unwrap()).unwrap();
    assert_eq!(resumed.now_ns(), 600_000);
    resumed.run_until(2_000_000);
    assert_eq!(resumed.export_bundle(), reference);
}

#[test]
fn fork_matches_an_uninterrupted_run() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);

    let mut base = Session::new(scenario()).unwrap();
    base.run_until(600_000);
    let mut branch = base.fork();
    branch.run_until(2_000_000);
    assert_eq!(branch.export_bundle(), straight.export_bundle());

    // The fork is independent: running the branch did not move the base.
    assert_eq!(base.now_ns(), 600_000);
}

#[test]
fn forked_branches_diverge_only_through_their_own_mutations() {
    let mut base = Session::new(scenario()).unwrap();
    base.run_until(600_000);
    let mut faulted = base.fork();
    faulted
        .apply(Op::InjectFaults {
            faults: vec![FaultEntry {
                kind: "link_down".into(),
                node: 2,
                port: 1,
                corrupt_pct: 0,
                start_ns: 700_000,
                end_ns: 1_500_000,
            }],
        })
        .unwrap();
    base.run_until(2_000_000);
    faulted.run_until(2_000_000);
    assert_ne!(base.export_bundle(), faulted.export_bundle());
    assert!(
        faulted.net().fault_report().per_fault.len() > base.net().fault_report().per_fault.len()
    );
}

#[test]
fn pausing_is_invisible_and_journals_merge() {
    let mut straight = Session::new(scenario()).unwrap();
    straight.run_until(2_000_000);

    let mut chunked = Session::new(scenario()).unwrap();
    for t in [123_456, 800_000, 1_111_111, 2_000_000] {
        chunked.run_until(t);
    }
    assert_eq!(chunked.export_bundle(), straight.export_bundle());
    // Four pauses, one journal entry: consecutive advances merge.
    assert_eq!(chunked.journal().len(), 1);
    assert_eq!(chunked.journal()[0], Op::RunUntil { ns: 2_000_000 });
}

#[test]
fn mid_run_mutations_replay_exactly() {
    let drive = |s: &mut Session| {
        s.run_until(300_000);
        s.apply(Op::AddFlow {
            at_ns: 350_000,
            src: 1,
            dst: 7,
            bytes: 120_000,
            transport: Default::default(),
        })
        .unwrap();
        s.run_until(700_000);
        s.apply(Op::Reconfigure { tm: TmSpec::Uniform(5.0) }).unwrap();
        s.run_until(2_000_000);
    };
    let mut live = Session::new(scenario()).unwrap();
    drive(&mut live);

    let doc = live.checkpoint().to_json();
    let restored = Session::restore(Checkpoint::parse(&doc).unwrap()).unwrap();
    assert_eq!(restored.export_bundle(), live.export_bundle());
    // And the restored journal re-serializes to the same document.
    assert_eq!(restored.checkpoint().to_json(), doc);
}

#[test]
fn invalid_operations_are_rejected_and_not_journaled() {
    let mut s = Session::new(scenario()).unwrap();
    s.run_until(500_000);
    let journal_len = s.journal().len();

    let past = s.apply(Op::AddFlow {
        at_ns: 100, // before current sim time
        src: 0,
        dst: 1,
        bytes: 1,
        transport: Default::default(),
    });
    assert_eq!(past.unwrap_err().field, "add_flow.at_ns");

    let bad_host = s.apply(Op::AddFlow {
        at_ns: 600_000,
        src: 0,
        dst: 999,
        bytes: 1,
        transport: Default::default(),
    });
    assert_eq!(bad_host.unwrap_err().field, "add_flow.dst");
    assert_eq!(s.journal().len(), journal_len, "failed ops must not journal");
}

#[test]
fn checkpoint_version_mismatch_is_rejected() {
    let mut s = Session::new(scenario()).unwrap();
    s.run_until(100_000);
    let doc = s.checkpoint().to_json().replacen(r#""version": 1"#, r#""version": 9"#, 1);
    let err = Checkpoint::parse(&doc).expect_err("future checkpoint version must be rejected");
    assert_eq!(err.field, "version");
}

// --- RPC dispatch ---

#[test]
fn rpc_round_trip_matches_direct_session_use() {
    let mut direct = Session::new(scenario()).unwrap();
    direct.run_until(2_000_000);

    let mut cp = ControlPlane::new(None);
    let load = cp.handle_line(&format!(
        r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SCENARIO}}}}}"#
    ));
    assert!(load.contains(r#""result""#), "{load}");
    cp.handle_line(r#"{"id":2,"method":"run_until","params":{"name":"s","ns":2000000}}"#);
    let export =
        cp.handle_line(r#"{"id":3,"method":"export","params":{"name":"s","what":"bundle"}}"#);
    let doc = openoptics_core::json::parse(&export).unwrap();
    let text = doc
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(|t| t.as_str().ok().map(str::to_string))
        .expect("bundle text");
    assert_eq!(text, direct.export_bundle());
}

#[test]
fn rpc_checkpoint_travels_inline_and_restores() {
    let mut cp = ControlPlane::new(None);
    cp.handle_line(&format!(
        r#"{{"id":1,"method":"load","params":{{"name":"a","scenario":{SCENARIO}}}}}"#
    ));
    cp.handle_line(r#"{"id":2,"method":"run_until","params":{"name":"a","ns":600000}}"#);
    let resp = cp.handle_line(r#"{"id":3,"method":"checkpoint","params":{"name":"a"}}"#);
    let doc = openoptics_core::json::parse(&resp).unwrap();
    let ckpt = doc.get("result").and_then(|r| r.get("checkpoint")).expect("inline checkpoint");
    let restore = cp.handle_line(&format!(
        r#"{{"id":4,"method":"restore","params":{{"name":"b","checkpoint":{ckpt}}}}}"#
    ));
    assert!(restore.contains(r#""now_ns":600000"#), "{restore}");
    let sessions = cp.handle_line(r#"{"id":5,"method":"sessions","params":{}}"#);
    assert!(sessions.contains(r#"["a","b"]"#), "{sessions}");
}

// --- streaming subscriptions ---

#[test]
fn slo_scenario_is_a_fixed_point_and_declares_services() {
    let once = Scenario::parse(SLO_SCENARIO).expect("slo scenario parses").to_json();
    let twice = Scenario::parse(&once).expect("normalized form parses").to_json();
    assert_eq!(once, twice);
    assert!(once.contains(r#""slos""#) && once.contains(r#""service": "cache""#), "{once}");

    let mut s = Session::new(Scenario::parse(SLO_SCENARIO).unwrap()).unwrap();
    s.run_until(2_000_000);
    let report = s.net().export_slo_report().expect("telemetry is on");
    // SLO-bearing services are declared before tag-only ones.
    assert!(report.contains("cache") && report.contains("bulk"), "{report}");
    let bundle = s.export_bundle();
    assert!(bundle.contains("-- slo --"), "{bundle}");
}

#[test]
fn subscription_stream_carries_named_sample_frames() {
    let mut cp = ControlPlane::new(None);
    let mut subs = Subscriptions::new();
    let mut lines = Vec::new();
    for req in [
        format!(r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SLO_SCENARIO}}}}}"#),
        r#"{"id":2,"method":"subscribe","params":{"name":"s"}}"#.to_string(),
        r#"{"id":3,"method":"run_until","params":{"name":"s","ns":700000}}"#.to_string(),
        r#"{"id":4,"method":"run_until","params":{"name":"s","ns":2000000}}"#.to_string(),
        r#"{"id":5,"method":"export","params":{"name":"s","what":"timeseries"}}"#.to_string(),
        r#"{"id":6,"method":"export","params":{"name":"s","what":"slo"}}"#.to_string(),
    ] {
        lines.extend(cp.handle_request(&req, &mut subs));
    }
    let stream = lines.join("\n");
    assert!(stream.contains(r#""frame":"sample""#), "no sample frames streamed:\n{stream}");
    assert!(stream.contains(r#""sub":"s""#), "frames must name their subscription:\n{stream}");
}

#[test]
fn unsubscribe_stops_the_stream_and_frames_only_flow_while_subscribed() {
    let mut cp = ControlPlane::new(None);
    let mut subs = Subscriptions::new();
    cp.handle_request(
        &format!(r#"{{"id":1,"method":"load","params":{{"name":"s","scenario":{SLO_SCENARIO}}}}}"#),
        &mut subs,
    );
    // Not subscribed: running produces a bare response, no frames.
    let out = cp.handle_request(
        r#"{"id":2,"method":"run_until","params":{"name":"s","ns":300000}}"#,
        &mut subs,
    );
    assert_eq!(out.len(), 1, "no frames before subscribe: {out:?}");
    // Subscribed: the next run's frames ride along before the response.
    cp.handle_request(r#"{"id":3,"method":"subscribe","params":{"name":"s"}}"#, &mut subs);
    let out = cp.handle_request(
        r#"{"id":4,"method":"run_until","params":{"name":"s","ns":600000}}"#,
        &mut subs,
    );
    assert!(out.len() > 1, "expected frames: {out:?}");
    assert!(out.last().unwrap().contains(r#""id":4"#), "response comes last: {out:?}");
    // Unsubscribed: silence again.
    cp.handle_request(r#"{"id":5,"method":"unsubscribe","params":{"name":"s"}}"#, &mut subs);
    let out = cp.handle_request(
        r#"{"id":6,"method":"run_until","params":{"name":"s","ns":900000}}"#,
        &mut subs,
    );
    assert_eq!(out.len(), 1, "no frames after unsubscribe: {out:?}");
}

#[test]
fn client_disconnect_mid_stream_does_not_poison_the_server() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || openoptics_ctl::serve_on(listener, None));

    // Client 1 loads a session, subscribes, floods pipelined run requests
    // and vanishes without reading a byte: the server's frame writes land
    // on a reset socket mid-stream.
    {
        let mut c1 = TcpStream::connect(addr).expect("client 1 connects");
        let one_line = SLO_SCENARIO.replace('\n', " ");
        c1.write_all(
            format!(
                "{{\"id\":1,\"method\":\"load\",\"params\":{{\"name\":\"s\",\"scenario\":{one_line}}}}}\n"
            )
            .as_bytes(),
        )
        .expect("client 1 loads");
        // Wait for the load response so the session definitely exists
        // before the abrupt exit (a reset can discard unread input).
        let mut r1 = BufReader::new(c1.try_clone().expect("clone client 1"));
        let mut ack = String::new();
        r1.read_line(&mut ack).expect("load response");
        assert!(ack.contains(r#""result""#), "{ack}");
        let mut msg =
            String::from("{\"id\":2,\"method\":\"subscribe\",\"params\":{\"name\":\"s\"}}\n");
        for i in 0..64u64 {
            msg.push_str(&format!(
                "{{\"id\":{},\"method\":\"run_for\",\"params\":{{\"name\":\"s\",\"dur_ns\":100000}}}}\n",
                i + 3
            ));
        }
        c1.write_all(msg.as_bytes()).expect("client 1 floods");
        // Dropped here, unread frame stream and all.
    }

    // Client 2 must still be served by the same control plane — including
    // the session client 1 loaded — and shutdown must still work.
    let mut c2 = TcpStream::connect(addr).expect("client 2 connects");
    c2.write_all(
        b"{\"id\":1,\"method\":\"sessions\",\"params\":{}}\n{\"id\":2,\"method\":\"shutdown\"}\n",
    )
    .expect("client 2 writes");
    let mut reader = BufReader::new(c2);
    let mut line = String::new();
    reader.read_line(&mut line).expect("sessions response");
    assert!(line.contains(r#"["s"]"#), "session must survive the disconnect: {line}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("shutdown response");
    assert!(line.contains(r#""ok":true"#), "{line}");
    server.join().expect("server thread").expect("serve_on exits cleanly");
}

#[test]
fn rpc_errors_are_typed_and_echo_the_id() {
    let mut cp = ControlPlane::new(None);
    let missing = cp.handle_line(r#"{"id":7,"method":"status","params":{"name":"ghost"}}"#);
    assert!(missing.contains(r#""id":7"#) && missing.contains("no session named"), "{missing}");
    let unknown = cp.handle_line(r#"{"id":8,"method":"teleport","params":{}}"#);
    assert!(unknown.contains("unknown method"), "{unknown}");
    let garbage = cp.handle_line("{not json");
    assert!(garbage.contains(r#""error""#), "{garbage}");
    // A hostile nesting depth is a typed error, not a stack overflow.
    let deep = cp.handle_line(&"[".repeat(100_000));
    assert!(deep.contains(r#""error""#) && deep.contains("nesting deeper"), "{deep}");
    assert!(!cp.shutdown_requested());
    let bye = cp.handle_line(r#"{"id":9,"method":"shutdown"}"#);
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    assert!(cp.shutdown_requested());
}
