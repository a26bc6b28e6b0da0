//! The metric catalog: every metric the benchmark prints, its unit, and —
//! for per-layer metrics — the end-to-end metric and workload it should
//! move. `BENCHMARK.json` lists the same names and units; a test keeps
//! the two in step.

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// For a per-layer metric: which end-to-end metric on which workload
    /// it should move. For an end-to-end metric: what it measures.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, note }
}

/// Printed with `--trace 0`: client-side wall clock over TCP, tracing off.
/// Tails are printed beside them but not listed: on a shared two-vCPU host
/// their run-to-run spread exceeds any bound a regression gate can use.
pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "median set-up (3 to 25 per run): stack start + SQL load + KB ingest",
    ),
    m(
        "req_per_s",
        "1/s",
        "replies per second, median over six slices of the window",
    ),
    m("latency_p50_ms", "ms", "median request latency"),
    m(
        "write_p50_ms",
        "ms",
        "median latency of INSERT/UPDATE requests",
    ),
    m(
        "success_rate",
        "ratio",
        "1 - error rate: Ok replies over attempted requests",
    ),
    m(
        "answer_accuracy",
        "ratio",
        "read replies matching the oracle",
    ),
    m("peak_rss_mb", "MB", "VmHWM of the process at exit"),
];

/// Printed with `--trace 1`: a separate in-process replay that times each
/// layer's public function from outside. Times are means per call unless
/// the name says p50 or p99; a layer the workload never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    m(
        "server.inproc_p50_us",
        "us",
        "one client, Server::handle p50; latency_p50_ms, req_per_s on chat2db_oltp",
    ),
    m(
        "server.transport_p50_us",
        "us",
        "one client, TCP p50 minus in-process p50; latency_p50_ms, req_per_s on chat2db_oltp",
    ),
    m(
        "server.codec_us",
        "us",
        "latency_p50_ms on chat2data_analytics (large replies) and chat2db_oltp",
    ),
    m("server.session_us", "us", "latency_p50_ms on chat2db_oltp"),
    m("server.start_s", "s", "setup_s on every workload"),
    m(
        "text2sql.generate_us",
        "us",
        "latency_p50_ms on chat2data_analytics",
    ),
    m(
        "text2sql.explain_us",
        "us",
        "latency_p50_ms on chat2db_oltp",
    ),
    m(
        "sqlengine.select_p50_us",
        "us",
        "req_per_s on chat2data_analytics",
    ),
    m(
        "sqlengine.select_p99_us",
        "us",
        "req_per_s on chat2data_analytics",
    ),
    m(
        "sqlengine.point_read_us",
        "us",
        "latency_p50_ms, req_per_s on chat2db_oltp",
    ),
    m("sqlengine.write_us", "us", "write_p50_ms on chat2db_oltp"),
    m(
        "sqlengine.schema_ddl_us",
        "us",
        "latency_p50_ms on chat2data_analytics",
    ),
    m(
        "sqlengine.rows_returned",
        "count",
        "mean rows per SELECT; req_per_s on chat2data_analytics",
    ),
    m("sqlengine.load_s", "s", "setup_s on chat2data_analytics"),
    m(
        "rag.retrieve_p50_us",
        "us",
        "latency_p50_ms, req_per_s on kbqa_retrieval",
    ),
    m("rag.retrieve_p99_us", "us", "req_per_s on kbqa_retrieval"),
    m("rag.icl_us", "us", "latency_p50_ms on kbqa_retrieval"),
    m("rag.ingest_s", "s", "setup_s on kbqa_retrieval"),
    m("rag.hit_at_4", "ratio", "answer_accuracy on kbqa_retrieval"),
    m("smmf.chat_us", "us", "latency_p50_ms on kbqa_retrieval"),
    m("smmf.retries", "count", "success_rate on kbqa_retrieval"),
    m("smmf.shed", "count", "success_rate on kbqa_retrieval"),
    m(
        "llm.generate_us",
        "us",
        "latency_p50_ms on kbqa_retrieval (smmf.chat_us minus this is SMMF's own)",
    ),
    m(
        "llm.tokens_per_request",
        "count",
        "latency_p50_ms on kbqa_retrieval",
    ),
    m(
        "agents.analyze_us",
        "us",
        "req_per_s on chat2data_analytics",
    ),
    m("vis.render_us", "us", "req_per_s on chat2data_analytics"),
    m(
        "apps.self_us",
        "us",
        "latency_p50_ms on every workload (app glue the calls above miss)",
    ),
    m(
        "trace.coverage",
        "ratio",
        "share of in-process request time the timed calls cover",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        let names: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
