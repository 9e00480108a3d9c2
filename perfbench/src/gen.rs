//! Seeded input generators: the scenario documents and request scripts the
//! workloads feed to the program. Everything here is a pure function of
//! the seed (and a scale), so the same seed yields byte-identical inputs.
//!
//! Traffic follows the parameterised, reproducible generation argued for
//! by Parsonson et al. ("Traffic Generation for Benchmarking Data Centre
//! Networks"): a flow-size distribution, a load level and an arrival
//! process, each explicit and seeded.

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully specified, so documents do not depend
/// on any other crate's RNG stream.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in [lo, hi].
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A generated simulation workload: the scenario document plus how to
/// step it.
pub struct SimPlan {
    pub doc: String,
    /// Simulated window the timed phase covers, ns.
    pub window_ns: u64,
    /// Simulated time per `run_until` call, ns.
    pub step_ns: u64,
    /// Point-to-point flows the document offers inside the window.
    pub flows_offered: u64,
    /// Whether service workloads (memcached, allreduce) start flows of
    /// their own on top of the offered ones.
    pub has_services: bool,
}

/// Bounded Pareto flow size (heavy tail, capped): inverse-CDF sampling.
fn bounded_pareto(rng: &mut Rng, lo: f64, hi: f64, alpha: f64) -> u64 {
    let u = rng.unit();
    let ratio = (lo / hi).powf(alpha);
    let x = lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    x.min(hi) as u64
}

/// Poisson arrivals conditioned on a fixed per-host byte budget: draw sizes
/// until the host has offered `budget` bytes, then place the arrivals as
/// sorted uniform instants in the window (the order statistics of a
/// Poisson process given its count). The offered load is then exact per
/// host, so the amount of simulated work does not swing with the seed.
fn host_flows(
    rng: &mut Rng,
    budget: u64,
    window_ns: u64,
    size: impl Fn(&mut Rng) -> u64,
) -> Vec<(u64, u64)> {
    let mut sizes = Vec::new();
    let mut total = 0u64;
    while total < budget {
        let s = size(rng).min(budget - total).max(1);
        total += s;
        sizes.push(s);
    }
    let mut times: Vec<u64> = sizes.iter().map(|_| rng.below(window_ns)).collect();
    times.sort_unstable();
    times.into_iter().zip(sizes).collect()
}

fn config_json(fields: &[(&str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

fn num(v: u64) -> String {
    v.to_string()
}

/// `vlb_bulk`: RotorNet with VLB per-packet spraying and buffer offload,
/// 12 ToRs, 300 us slices, open-loop paced bulk flows at 20 % host
/// injection (about 40 % core under VLB's two hops), sampling off.
pub fn vlb_bulk(seed: u64, window_ns: u64) -> SimPlan {
    const NODES: u64 = 12;
    const HOST_GBPS: u64 = 100;
    let config = config_json(&[
        ("node_num", num(NODES)),
        ("uplink", num(2)),
        ("hosts_per_node", num(1)),
        ("slice_ns", num(300_000)),
        ("guard_ns", num(1_000)),
        ("uplink_gbps", num(100)),
        ("host_link_gbps", num(HOST_GBPS)),
        ("sync_err_ns", num(28)),
        ("queue_capacity", num(16 * 1024 * 1024)),
        ("congestion_threshold", num(1024 * 1024)),
        ("offload", "true".into()),
        ("offload_keep_ranks", num(2)),
        ("offload_return_lead_ns", num(50_000)),
        ("telemetry", "true".into()),
        ("sample_every_ns", num(0)),
        ("seed", num(seed)),
    ]);
    // 20 % of a 100 Gbps host link over the window, in bytes.
    let budget = HOST_GBPS * window_ns / 8 / 5;
    let mut flows = Vec::new();
    for src in 0..NODES {
        let mut rng = Rng::new(seed, 100 + src);
        for (at, bytes) in host_flows(&mut rng, budget, window_ns, |r| {
            bounded_pareto(r, 10_000.0, 2_000_000.0, 1.1)
        }) {
            let dst = (src + 1 + rng.below(NODES - 1)) % NODES;
            flows.push((at, src, dst, bytes));
        }
    }
    flows.sort_unstable();
    let mut workloads = String::new();
    for (i, (at, src, dst, bytes)) in flows.iter().enumerate() {
        if i > 0 {
            workloads.push(',');
        }
        let _ = write!(
            workloads,
            "{{\"kind\":\"flow\",\"at_ns\":{at},\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}}}"
        );
    }
    let doc = format!(
        "{{\"version\":1,\"description\":\"vlb_bulk seed {seed}\",\"config\":{config},\
         \"architecture\":{{\"name\":\"rotornet\"}},\
         \"routing\":{{\"algo\":\"vlb\",\"lookup\":\"per_hop\",\"multipath\":\"per_packet\"}},\
         \"workloads\":[{workloads}],\"faults\":[],\"stop_ns\":{window_ns}}}"
    );
    SimPlan {
        doc,
        window_ns,
        step_ns: 100_000,
        flows_offered: flows.len() as u64,
        has_services: false,
    }
}

/// `k` distinct values of `0..total`, drawn without replacement.
fn pick_hosts(rng: &mut Rng, total: u64, k: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..total).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let i = rng.below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
    out
}

fn host_list(hosts: &[u64]) -> String {
    let items: Vec<String> = hosts.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// `tcp_services`: Opera with source routing, 16 ToRs; TCP RPC flows, a
/// closed-loop memcached service and a ring allreduce, each a service with
/// an SLO; one `link_down` and one `transceiver_flap` window; sampling
/// every 20 us.
pub fn tcp_services(seed: u64, window_ns: u64) -> SimPlan {
    const NODES: u64 = 16;
    const HPN: u64 = 2;
    const HOSTS: u64 = NODES * HPN;
    let config = config_json(&[
        ("node_num", num(NODES)),
        ("uplink", num(4)),
        ("hosts_per_node", num(HPN)),
        ("slice_ns", num(100_000)),
        ("guard_ns", num(1_000)),
        ("uplink_gbps", num(100)),
        ("host_link_gbps", num(100)),
        ("sync_err_ns", num(28)),
        ("queue_capacity", num(8 * 1024 * 1024)),
        ("telemetry", "true".into()),
        ("sample_every_ns", num(20_000)),
        ("seed", num(seed)),
    ]);
    let mut rng = Rng::new(seed, 1);
    // Every service host sits under its own ToR, so seeds differ in
    // placement but not in how much traffic shares a rack.
    let roles: Vec<u64> = pick_hosts(&mut rng, NODES, 1 + 6 + 8)
        .into_iter()
        .map(|tor| tor * HPN + rng.below(HPN))
        .collect();
    let (server, rest) = roles.split_first().expect("roles are non-empty");
    let (clients, ring) = rest.split_at(6);
    let tcp = "{\"kind\":\"tcp\"}";
    let mut items = vec![
        format!(
            "{{\"kind\":\"memcached\",\"server\":{server},\"clients\":{},\"stop_ns\":{window_ns},\
             \"mean_interval_ns\":20000,\"service\":\"cache\"}}",
            host_list(clients)
        ),
        format!(
            "{{\"kind\":\"allreduce\",\"hosts\":{},\"data_bytes\":{},\"service\":\"train\"}}",
            host_list(ring),
            1_000_000
        ),
    ];
    // TCP RPCs: 1 % of each host link, sizes log-uniform in 2 KB .. 256 KB.
    let budget = 100 * window_ns / 8 / 100;
    let mut rpcs = Vec::new();
    for src in 0..HOSTS {
        let mut r = Rng::new(seed, 1000 + src);
        for (at, bytes) in
            host_flows(&mut r, budget, window_ns, |r| (2_000.0 * (128.0f64).powf(r.unit())) as u64)
        {
            let dst = (src + HPN + r.below(HOSTS - HPN)) % HOSTS;
            rpcs.push((at, src, dst, bytes));
        }
    }
    rpcs.sort_unstable();
    for (at, src, dst, bytes) in &rpcs {
        items.push(format!(
            "{{\"kind\":\"flow\",\"at_ns\":{at},\"src\":{src},\"dst\":{dst},\"bytes\":{bytes},\
             \"transport\":{tcp},\"service\":\"rpc\"}}"
        ));
    }
    let down_node = rng.below(NODES);
    let flap_node = (down_node + 1 + rng.below(NODES - 1)) % NODES;
    let faults = format!(
        "[{{\"kind\":\"link_down\",\"node\":{down_node},\"port\":{},\"start_ns\":{},\"end_ns\":{}}},\
         {{\"kind\":\"transceiver_flap\",\"node\":{flap_node},\"port\":{},\"corrupt_pct\":5,\
         \"start_ns\":{},\"end_ns\":{}}}]",
        rng.below(4),
        window_ns / 5,
        window_ns * 3 / 5,
        rng.below(4),
        window_ns * 2 / 5,
        window_ns * 4 / 5
    );
    let slos = "[{\"service\":\"rpc\",\"latency_ns\":200000,\"objective_milli\":990,\"window_ns\":2000000},\
                {\"service\":\"cache\",\"latency_ns\":100000,\"objective_milli\":900,\"window_ns\":1000000},\
                {\"service\":\"train\",\"latency_ns\":5000000,\"objective_milli\":500,\"window_ns\":5000000}]";
    let doc = format!(
        "{{\"version\":1,\"description\":\"tcp_services seed {seed}\",\"config\":{config},\
         \"architecture\":{{\"name\":\"opera\"}},\
         \"routing\":{{\"algo\":\"opera\",\"lookup\":\"source_routing\",\"multipath\":\"per_packet\"}},\
         \"workloads\":[{}],\"slos\":{slos},\"faults\":{faults},\"stop_ns\":{window_ns}}}",
        items.join(",")
    );
    SimPlan {
        doc,
        window_ns,
        step_ns: 100_000,
        flows_offered: rpcs.len() as u64,
        has_services: true,
    }
}

/// Hosts in the `ctl_session` scenario.
pub const CTL_HOSTS: u64 = 8;

/// The scenario `ctl_session` loads: a small traffic-aware (Mordia) network
/// with sampling on, so `reconfigure` reruns schedule generation and the
/// routing compile. The seed drives the engine's RNG; the script carries
/// the rest of the seeded variation.
pub fn ctl_scenario(seed: u64) -> String {
    format!(
        "{{\"version\":1,\"description\":\"ctl_session seed {seed}\",\
         \"config\":{{\"node_num\":{CTL_HOSTS},\"uplink\":1,\"hosts_per_node\":1,\"slice_ns\":20000,\
         \"guard_ns\":1000,\"uplink_gbps\":100,\"host_link_gbps\":100,\"ocs_reconfig_ns\":50000,\"telemetry\":true,\
         \"sample_every_ns\":20000,\"seed\":{seed}}},\
         \"architecture\":{{\"name\":\"mordia\",\"num_slices\":{CTL_HOSTS},\"tm\":\"mesh\"}},\
         \"workloads\":[{{\"kind\":\"memcached\",\"server\":0,\"clients\":[1,2,3],\"stop_ns\":50000000,\
         \"service\":\"cache\"}},{{\"kind\":\"flow\",\"at_ns\":1000,\"src\":4,\"dst\":5,\"bytes\":2000000,\
         \"service\":\"bulk\"}}],\
         \"slos\":[{{\"service\":\"cache\",\"latency_ns\":100000,\"objective_milli\":900,\"window_ns\":1000000}}],\
         \"faults\":[],\"stop_ns\":50000000}}"
    )
}

/// What a scripted request must get back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A `result` reply echoing the request id.
    Result,
    /// A typed `error` reply (`field` and `reason`), for a deliberately bad
    /// line.
    Error,
    /// A `result` whose export text must equal the previous reply's: the
    /// live session's export next to its restored checkpoint's.
    SameAsPrevious,
}

/// One scripted request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// The line to send, without the newline. [`CKPT_SLOT`] stands for the
    /// checkpoint document the last `checkpoint` reply carried.
    pub line: String,
    /// RPC method, for per-method accounting (`bad` for malformed lines).
    pub method: &'static str,
    pub expect: Expect,
}

/// Placeholder in a `restore` line for the last checkpoint document.
pub const CKPT_SLOT: &str = "@CHECKPOINT@";

/// Session every scripted request addresses unless it says otherwise.
pub const MAIN: &str = "main";

/// The `load` request for the `ctl_session` scenario.
pub fn load_line(id: u64, scenario: &str) -> String {
    format!("{{\"id\":{id},\"method\":\"load\",\"params\":{{\"name\":\"{MAIN}\",\"scenario\":{scenario}}}}}")
}

/// Single requests in one script block, by kind: the composition is fixed
/// so every seed asks the server for the same mix of work; the seed picks
/// the order and the parameters.
const BLOCK: &[(&str, usize)] = &[
    ("status", 5),
    ("run_until", 5),
    ("export_telemetry", 2),
    ("export_timeseries", 2),
    ("export_slo", 1),
    ("add_flow", 3),
    ("inject_faults", 1),
    ("reconfigure", 1),
];

/// The seeded `ctl_session` request script: `blocks` blocks of 25
/// requests, each 20 shuffled reads and writes followed by a checkpoint →
/// restore → compare exports → fork cycle, plus four malformed lines at
/// seeded positions that must each get a typed error. Ids start at
/// `first_id`.
pub fn ctl_script(seed: u64, blocks: usize, first_id: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let main = MAIN;
    let mut kinds: Vec<&str> = Vec::new();
    for _ in 0..blocks {
        let mut singles: Vec<&str> =
            BLOCK.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
        for i in (1..singles.len()).rev() {
            singles.swap(i, rng.below(i as u64 + 1) as usize);
        }
        kinds.extend(singles);
        kinds.extend(["checkpoint", "restore", "export_restored", "export_main", "fork"]);
    }
    for bad in ["bad_json", "bad_method", "bad_params", "bad_export"] {
        let at = rng.below(kinds.len() as u64 + 1) as usize;
        // Never split a checkpoint cycle: move past it.
        let at = (at..=kinds.len())
            .find(|&i| {
                !matches!(
                    kinds.get(i),
                    Some(&("restore" | "export_restored" | "export_main" | "fork"))
                )
            })
            .unwrap_or(kinds.len());
        kinds.insert(at, bad);
    }
    let mut now = 0u64;
    let mut faults = 0u64;
    let mut out = Vec::with_capacity(kinds.len());
    for (i, kind) in kinds.into_iter().enumerate() {
        let id = first_id + i as u64;
        let call = |method: &str, params: String| {
            format!("{{\"id\":{id},\"method\":\"{method}\",\"params\":{{{params}}}}}")
        };
        let name = format!("\"name\":\"{main}\"");
        let (line, method, expect) = match kind {
            "status" => (call("status", name), "status", Expect::Result),
            "run_until" => {
                // A fixed step: the simulated span of a script, and with it
                // the size of every per-sample buffer, is seed-independent.
                now += 70_000;
                (call("run_until", format!("{name},\"ns\":{now}")), "run_until", Expect::Result)
            }
            "export_telemetry" | "export_timeseries" | "export_slo" => {
                let what = &kind["export_".len()..];
                (call("export", format!("{name},\"what\":\"{what}\"")), "export", Expect::Result)
            }
            "add_flow" => {
                let src = rng.below(CTL_HOSTS);
                let dst = (src + 1 + rng.below(CTL_HOSTS - 1)) % CTL_HOSTS;
                let bytes = rng.range(40, 60) * 1_000;
                let at = now + 1_000;
                let params =
                    format!("{name},\"at_ns\":{at},\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}");
                (call("add_flow", params), "add_flow", Expect::Result)
            }
            "inject_faults" => {
                // The failed link cycles through the ToRs, so every seed
                // degrades the same amount of fabric.
                faults += 1;
                let node = faults * 3 % CTL_HOSTS;
                let params = format!(
                    "{name},\"faults\":[{{\"kind\":\"link_down\",\"node\":{node},\"port\":0,\
                     \"start_ns\":{},\"end_ns\":{}}}]",
                    now + 10_000,
                    now + 200_000
                );
                (call("inject_faults", params), "inject_faults", Expect::Result)
            }
            "reconfigure" => {
                // A uniform demand of a seeded level: schedule generation and
                // the routing compile rerun in full, and every pair keeps a
                // circuit in the decomposed schedule.
                let level = rng.range(1, 9) * 100;
                (
                    call("reconfigure", format!("{name},\"tm\":{level}")),
                    "reconfigure",
                    Expect::Result,
                )
            }
            "checkpoint" => (call("checkpoint", name), "checkpoint", Expect::Result),
            "restore" => (
                call("restore", format!("\"name\":\"restored\",\"checkpoint\":{CKPT_SLOT}")),
                "restore",
                Expect::Result,
            ),
            "export_restored" => (
                call("export", "\"name\":\"restored\",\"what\":\"bundle\"".to_string()),
                "export",
                Expect::Result,
            ),
            "export_main" => (
                call("export", format!("{name},\"what\":\"bundle\"")),
                "export",
                Expect::SameAsPrevious,
            ),
            "fork" => (
                call("fork", format!("\"from\":\"{main}\",\"name\":\"branch\"")),
                "fork",
                Expect::Result,
            ),
            "bad_json" => (
                format!("{{\"id\":{id},\"method\":\"status\",\"params\":{{{name}"),
                "bad",
                Expect::Error,
            ),
            "bad_method" => (call("warp", name), "bad", Expect::Error),
            "bad_params" => (call("run_until", name), "bad", Expect::Error),
            _ => (call("export", format!("{name},\"what\":\"pcap\"")), "bad", Expect::Error),
        };
        out.push(Request { line, method, expect });
    }
    out
}

/// The request script rendered as text, one line per request: the unit the
/// generator self-check compares byte for byte.
pub fn script_text(script: &[Request]) -> String {
    let mut s = String::new();
    for r in script {
        s.push_str(&r.line);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_keeps_checkpoint_cycles_whole() {
        for seed in 0..64 {
            let script = ctl_script(seed, 4, 3);
            assert_eq!(script.len(), 4 * 25 + 4);
            assert_eq!(script.iter().filter(|r| r.expect == Expect::Error).count(), 4);
            for (i, r) in script.iter().enumerate() {
                if r.method == "restore" {
                    assert_eq!(script[i - 1].method, "checkpoint", "seed {seed}");
                }
                if r.expect == Expect::SameAsPrevious {
                    assert!(script[i - 1].line.contains("\"name\":\"restored\""), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn offered_load_is_exact_per_host() {
        let window = 2_000_000;
        let plan = vlb_bulk(5, window);
        let doc = openoptics_core::json::parse(&plan.doc).expect("generated JSON parses");
        let flows = doc.get("workloads").and_then(|w| w.as_arr().ok()).expect("workload list");
        let from_host0: u64 = flows
            .iter()
            .filter(|f| f.get("src").and_then(|s| s.as_u64().ok()) == Some(0))
            .map(|f| f.get("bytes").and_then(|b| b.as_u64().ok()).expect("flow bytes"))
            .sum();
        assert_eq!(from_host0, 100 * window / 8 / 5);
    }
}
