//! The metric catalogue and the result line. `BENCHMARK.json` lists the
//! same names and units; a test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics, reported by the untraced run:
/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// Per-layer metrics, reported by the traced run: `(name, unit, better)`.
/// Units: `ns`/`us`/`s` are host time, `sim_ms`/`sim_s` simulated time.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("netsim.udp_deliver_ns.s1", "ns", "lower"),
    ("netsim.udp_deliver_ns.s64k", "ns", "lower"),
    ("netsim.event_ns.d1k", "ns", "lower"),
    ("netsim.event_ns.d64k", "ns", "lower"),
    ("netsim.tcp_segment_ns", "ns", "lower"),
    ("netsim.packets", "count", "lower"),
    ("netsim.bytes", "B", "lower"),
    ("netsim.dropped", "count", "lower"),
    ("netsim.sim_end_s", "sim_s", "lower"),
    ("dns.encode_ns", "ns", "lower"),
    ("dns.decode_ns", "ns", "lower"),
    ("tls.seal_ns", "ns", "lower"),
    ("tls.deframe_ns", "ns", "lower"),
    ("http.hpack_encode_ns", "ns", "lower"),
    ("http.hpack_decode_ns", "ns", "lower"),
    ("http.h2_frame_ns", "ns", "lower"),
    ("http.h1_ns", "ns", "lower"),
    ("doh.resolve_us.p50", "us", "lower"),
    ("doh.resolve_us.p99", "us", "lower"),
    ("doh.resolve_growth", "ratio", "lower"),
    ("doh.advance_s", "s", "lower"),
    ("doh.teardown_s", "s", "lower"),
    ("doh.unrouted_wakes", "count", "lower"),
    ("doh.cache_hit_ratio", "ratio", "higher"),
    ("doh.coalesced_queries", "count", "higher"),
    ("doh.upstream_queries", "count", "lower"),
    ("doh.arrival_lag_ms.p50", "sim_ms", "lower"),
    ("doh.arrival_lag_ms.max", "sim_ms", "lower"),
    ("doh.bytes_per_resolution", "B", "lower"),
    ("doh.layer_bytes.body", "B", "lower"),
    ("doh.layer_bytes.hdr", "B", "lower"),
    ("doh.layer_bytes.mgmt", "B", "lower"),
    ("doh.layer_bytes.tls", "B", "lower"),
    ("doh.layer_bytes.tcp", "B", "lower"),
    ("doh.layer_bytes.dns", "B", "lower"),
    ("workload.schedule_s", "s", "lower"),
    ("workload.next_page_us", "us", "lower"),
    ("pageload.load_page_us.p50", "us", "lower"),
    ("pageload.load_page_us.p99", "us", "lower"),
    ("pageload.page_load_ms.p50.do53", "sim_ms", "lower"),
    ("pageload.page_load_ms.p95.do53", "sim_ms", "lower"),
    ("pageload.page_load_ms.p50.dot", "sim_ms", "lower"),
    ("pageload.page_load_ms.p95.dot", "sim_ms", "lower"),
    ("pageload.page_load_ms.p50.doh-h1", "sim_ms", "lower"),
    ("pageload.page_load_ms.p95.doh-h1", "sim_ms", "lower"),
    ("pageload.page_load_ms.p50.doh-h2", "sim_ms", "lower"),
    ("pageload.page_load_ms.p95.doh-h2", "sim_ms", "lower"),
    ("pageload.dns_queries_per_page", "count", "lower"),
    ("pageload.unresolved", "count", "lower"),
    ("setup.topology_s", "s", "lower"),
    ("setup.register_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("failed_ratio", "ratio", "lower"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. A metric outside the catalogue or a non-finite value is
/// a bug in this program.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
