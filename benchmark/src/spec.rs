//! The benchmark's fixed vocabulary: workload names, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats these
//! tables for the driver; a unit test keeps the two in step.

/// The five workloads. Each runs in a process of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LiveRelay,
    LiveLossy,
    SimManyflow,
    SimChurn,
    Sketch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LiveRelay,
        Workload::LiveLossy,
        Workload::SimManyflow,
        Workload::SimChurn,
        Workload::Sketch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveRelay => "live_relay",
            Workload::LiveLossy => "live_lossy",
            Workload::SimManyflow => "sim_manyflow",
            Workload::SimChurn => "sim_churn",
            Workload::Sketch => "sketch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these, and none is ever zero; README.md says what each means on each
/// workload. Bounds live in `BENCHMARK.json` only.
pub const END_TO_END: [MetricSpec; 6] = [
    lower("setup_s", "s"),
    higher("pkts_per_s", "1/s"),
    lower("cpu_ns_per_pkt", "ns"),
    lower("latency_p50_us", "us"),
    lower("latency_p99_us", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer figures from the traced run, named after this repository's
/// modules. A workload that does not exercise a layer's counter reports 0
/// for it; the probes (timings of public functions) run on every workload.
pub const PER_LAYER: [MetricSpec; 69] = [
    // galois: field arithmetic under the quACK.
    lower("galois.fold_ns_per_id", "ns"),
    lower("galois.newton_ns", "ns"),
    lower("galois.roots_ns", "ns"),
    // core: the sketch itself.
    lower("core.insert_ns_per_id", "ns"),
    lower("core.insert_batch_ns_per_id", "ns"),
    lower("core.wire_encode_ns", "ns"),
    lower("core.wire_decode_ns", "ns"),
    lower("core.difference_ns", "ns"),
    lower("core.decode_ns", "ns"),
    lower("core.decode_m0_ns", "ns"),
    lower("core.decode_fail_share", "ratio"),
    // sidecar: codec, auth, flow table, endpoints, protocols.
    lower("sidecar.messages.encode_ns", "ns"),
    lower("sidecar.messages.decode_ns", "ns"),
    lower("sidecar.auth.seal_ns", "ns"),
    lower("sidecar.auth.open_ns", "ns"),
    lower("sidecar.auth.reject_ns", "ns"),
    lower("sidecar.flows.lookup_ns", "ns"),
    lower("sidecar.flows.churn_ns", "ns"),
    lower("sidecar.flows.evictions_per_unit", "ratio"),
    lower("sidecar.flows.bytes_per_flow", "B"),
    lower("sidecar.endpoint.observe_ns_per_id", "ns"),
    lower("sidecar.endpoint.emit_ns", "ns"),
    lower("sidecar.endpoint.record_sent_ns", "ns"),
    lower("sidecar.endpoint.process_quack_ns", "ns"),
    lower("sidecar.endpoint.process_quack_lossy_ns", "ns"),
    lower("sidecar.protocols.retx_pass_s", "s"),
    lower("sidecar.protocols.ackred_pass_s", "s"),
    lower("sidecar.protocols.ccd_pass_s", "s"),
    higher("sidecar.protocols.goodput_mbps", "Mbit/s"),
    lower("sidecar.retx.proxy_retx", "count"),
    lower("sidecar.retx.quacks_sent", "count"),
    higher("sidecar.retx.retx_per_drop", "ratio"),
    lower("sidecar.retx.degradations", "count"),
    lower("sidecar.ctrl_msgs_per_unit", "ratio"),
    // netsim: the event engine alone.
    lower("netsim.ns_per_event", "ns"),
    lower("netsim.events", "count"),
    // live: the socket host.
    lower("live.wire.encode_ns", "ns"),
    lower("live.wire.decode_ns", "ns"),
    lower("live.wire.decode_ctrl_ns", "ns"),
    lower("live.socket.rtt_ns", "ns"),
    lower("live.dispatch_ns_per_pkt", "ns"),
    lower("live.bare_forward_cpu_ns_per_pkt", "ns"),
    lower("live.sidecar_added_ns_per_pkt", "ns"),
    lower("live.replica_ns_per_pkt", "ns"),
    lower("live.unattributed_ns_per_pkt", "ns"),
    lower("live.allocs_per_pkt", "count"),
    lower("live.alloc_bytes_per_pkt", "B"),
    lower("live.ctx_switches_per_pkt", "count"),
    higher("live.packets_in", "count"),
    higher("live.packets_out", "count"),
    lower("live.send_errors", "count"),
    lower("live.decode_errors", "count"),
    lower("live.dropped_by_policy", "count"),
    lower("live.duplicates", "count"),
    lower("live.socket_drops", "count"),
    lower("live.littles_law_latency_us", "us"),
    // obs: the taps every hop pays for.
    lower("obs.trace_record_ns", "ns"),
    lower("obs.scoreboard_record_ns", "ns"),
    lower("obs.metrics_inc_ns", "ns"),
    // The harness itself.
    lower("gen.lag_p99_us", "us"),
    lower("gen.cpu_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.spans_dropped", "count"),
    lower("trace.children_share", "ratio"),
    // Traced-run twins of the end-to-end figures, so a trace document says
    // what the run it decomposes looked like.
    higher("traced.pkts_per_s", "1/s"),
    lower("traced.cpu_ns_per_pkt", "ns"),
    lower("traced.latency_p50_us", "us"),
    lower("traced.latency_p99_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The contract's limits on names and units.
    fn well_formed(name: &str, unit: &str) -> bool {
        let name_ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        let unit_ok = !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        name_ok && unit_ok
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, m.unit), "{} [{}]", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |specs: &[MetricSpec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
