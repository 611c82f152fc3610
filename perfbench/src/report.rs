//! Metric names and units (the same lists `BENCHMARK.json` declares),
//! and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run; a layer idle on a
/// workload reports 0.
pub const LAYER_METRICS: [(&str, &str); 67] = [
    ("workload.gen_s", "s"),
    ("grid.build_s", "s"),
    ("grid.mean_degree", "count"),
    ("aggregate.new_s", "s"),
    ("aggregate.refresh_s", "s"),
    ("aggregate.refresh_calls", "count"),
    ("aggregate.refresh_p50_us", "us"),
    ("aggregate.refresh_p90_us", "us"),
    ("matchmakers.place_s", "s"),
    ("matchmakers.place_calls", "count"),
    ("matchmakers.place_p50_us", "us"),
    ("matchmakers.place_p99_us", "us"),
    ("matchmakers.pushes_per_job", "count"),
    ("matchmakers.fallback_ratio", "ratio"),
    ("routing.hops_per_job", "count"),
    ("routing.hops_p99", "count"),
    ("grid_sim.self_s", "s"),
    ("grid_sim.events", "count"),
    ("protocol.join_s", "s"),
    ("protocol.join_calls", "count"),
    ("protocol.join_p50_us", "us"),
    ("protocol.join_p99_us", "us"),
    ("protocol.leave_s", "s"),
    ("protocol.leave_calls", "count"),
    ("protocol.advance_s", "s"),
    ("protocol.broken_links_s", "s"),
    ("protocol.delivered_msgs", "count"),
    ("protocol.full_update_rounds", "count"),
    ("protocol.repairs", "count"),
    ("wire.heartbeat.msgs", "count"),
    ("wire.heartbeat.bytes", "B"),
    ("wire.full_update_request.msgs", "count"),
    ("wire.full_update_request.bytes", "B"),
    ("wire.full_update_response.msgs", "count"),
    ("wire.full_update_response.bytes", "B"),
    ("wire.join.msgs", "count"),
    ("wire.join.bytes", "B"),
    ("wire.handoff.msgs", "count"),
    ("wire.handoff.bytes", "B"),
    ("wire.repair.msgs", "count"),
    ("wire.repair.bytes", "B"),
    ("wire.probe.msgs", "count"),
    ("wire.probe.bytes", "B"),
    ("wire.replica.msgs", "count"),
    ("wire.replica.bytes", "B"),
    ("dst.compile_s", "s"),
    ("dst.case_s", "s"),
    ("dst.can_phase_s", "s"),
    ("dst.sched_phase_s", "s"),
    ("dst.broken_peak", "count"),
    ("dst.takeovers", "count"),
    ("fault.dropped_msgs", "count"),
    ("fault.partition_drops", "count"),
    ("fault.frozen_drops", "count"),
    ("overload.admitted", "count"),
    ("overload.shed", "count"),
    ("overload.push_attempts", "count"),
    ("sim_wait_mean_s", "s"),
    ("sim_wait_p99_s", "s"),
    ("sim_hb_msgs_per_node_min", "count"),
    ("sim_hb_kb_per_node_min", "KB"),
    ("sim_broken_links", "count"),
    ("bench.traced_run_s", "s"),
    ("bench.run_untimed_s", "s"),
    ("bench.tracing_overhead_s", "s"),
    ("bench.host_threads", "count"),
    ("bench.spans", "count"),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(LAYER_METRICS.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit (`f64` `Display` is shortest
/// round-trip and never uses an exponent).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("run_s", 1.25), ("setup_s", 0.000001)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.000001, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
