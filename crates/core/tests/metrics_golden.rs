//! Golden output for every surface of the metrics registry.
//!
//! Every metric is set to a distinct value (each gauge's high-water
//! above its current level), then the four views of the registry are
//! pinned: the Prometheus scrape text, the telemetry column schema,
//! one sampled frame, and the `snapshot()` JSON as a key → value map.
//! A refactor of how the metric set is declared that keeps this test
//! green keeps every view identical.

use smarth_core::json::{self, Value};
use smarth_core::obs::telemetry::{prometheus_exposition, Sampler, DESCRIPTORS};
use smarth_core::obs::{Gauge, Metrics, RecoveryCause};
use std::collections::BTreeMap;
use std::sync::Arc;

fn set_gauge(g: &Gauge, current: u64, high_water: u64) {
    g.add(high_water);
    g.sub(high_water - current);
}

fn populated() -> Arc<Metrics> {
    let m = Metrics::new();
    m.bytes_written.add(1001);
    m.packets_sent.add(1002);
    m.blocks_committed.add(1003);
    m.fnfa_received.add(1004);
    m.exploration_swaps.add(1005);
    m.speed_aware_placements.add(1006);
    m.speed_records_ingested.add(1007);
    m.bytes_read.add(1008);
    m.bad_replicas_reported.add(1009);
    m.re_replications_scheduled.add(1010);
    m.handler_panics.add(1011);
    m.heartbeat_failures.add(1012);
    for (n, cause) in RecoveryCause::ALL.into_iter().enumerate() {
        for _ in 0..=n {
            m.record_recovery(cause);
        }
    }
    set_gauge(&m.packets_in_flight, 11, 21);
    set_gauge(&m.concurrent_pipelines, 12, 22);
    set_gauge(&m.datanode_buffered_bytes, 13, 23);
    set_gauge(&m.datanode_forward_bytes, 14, 24);
    set_gauge(&m.datanode_staging_packets, 15, 25);
    set_gauge(&m.client_read_inflight_stripes, 16, 26);
    for v in [100, 200, 300, 5000] {
        m.fnfa_to_allocation_us.observe(v);
    }
    m
}

/// Flattens nested objects into `outer.inner` keys.
fn flatten(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Object(fields) => {
            for (k, v) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        other => {
            let n = other
                .as_f64()
                .unwrap_or_else(|| panic!("{prefix}: non-numeric {other:?}"));
            assert!(out.insert(prefix.to_string(), n).is_none(), "duplicate {prefix}");
        }
    }
}

const PROMETHEUS: &str = "\
# TYPE smarth_bytes_written counter
smarth_bytes_written 1001
# TYPE smarth_bytes_read counter
smarth_bytes_read 1008
# TYPE smarth_packets_sent counter
smarth_packets_sent 1002
# TYPE smarth_blocks_committed counter
smarth_blocks_committed 1003
# TYPE smarth_fnfa_received counter
smarth_fnfa_received 1004
# TYPE smarth_recoveries_total counter
smarth_recoveries_total 15
# TYPE smarth_exploration_swaps counter
smarth_exploration_swaps 1005
# TYPE smarth_speed_aware_placements counter
smarth_speed_aware_placements 1006
# TYPE smarth_speed_records_ingested counter
smarth_speed_records_ingested 1007
# TYPE smarth_bad_replicas_reported counter
smarth_bad_replicas_reported 1009
# TYPE smarth_re_replications_scheduled counter
smarth_re_replications_scheduled 1010
# TYPE smarth_handler_panics counter
smarth_handler_panics 1011
# TYPE smarth_heartbeat_failures counter
smarth_heartbeat_failures 1012
# TYPE smarth_packets_in_flight gauge
smarth_packets_in_flight 11
# TYPE smarth_concurrent_pipelines gauge
smarth_concurrent_pipelines 12
# TYPE smarth_datanode_buffered_bytes gauge
smarth_datanode_buffered_bytes 13
# TYPE smarth_datanode_forward_bytes gauge
smarth_datanode_forward_bytes 14
# TYPE smarth_datanode_staging_packets gauge
smarth_datanode_staging_packets 15
# TYPE smarth_client_read_inflight_stripes gauge
smarth_client_read_inflight_stripes 16
# TYPE smarth_packets_in_flight_high_water gauge
smarth_packets_in_flight_high_water 21
# TYPE smarth_concurrent_pipelines_high_water gauge
smarth_concurrent_pipelines_high_water 22
# TYPE smarth_datanode_buffered_bytes_high_water gauge
smarth_datanode_buffered_bytes_high_water 23
# TYPE smarth_datanode_forward_bytes_high_water gauge
smarth_datanode_forward_bytes_high_water 24
# TYPE smarth_datanode_staging_packets_high_water gauge
smarth_datanode_staging_packets_high_water 25
# TYPE smarth_client_read_inflight_stripes_high_water gauge
smarth_client_read_inflight_stripes_high_water 26
# TYPE smarth_recoveries counter
smarth_recoveries{cause=\"ack_timeout\"} 1
smarth_recoveries{cause=\"datanode_error\"} 2
smarth_recoveries{cause=\"connection_lost\"} 3
smarth_recoveries{cause=\"namenode_error\"} 4
smarth_recoveries{cause=\"nested_failure\"} 5
# TYPE smarth_fnfa_to_allocation_us summary
smarth_fnfa_to_allocation_us{quantile=\"0.5\"} 255
smarth_fnfa_to_allocation_us{quantile=\"0.95\"} 5000
smarth_fnfa_to_allocation_us{quantile=\"0.99\"} 5000
smarth_fnfa_to_allocation_us_sum 5600
smarth_fnfa_to_allocation_us_count 4
";

/// Telemetry columns in frame order, with the value each takes in
/// one frame sampled from [`populated`].
const FRAME: &[(&str, &str, f64)] = &[
    ("bytes_written", "counter", 1001.0),
    ("bytes_read", "counter", 1008.0),
    ("packets_sent", "counter", 1002.0),
    ("blocks_committed", "counter", 1003.0),
    ("fnfa_received", "counter", 1004.0),
    ("recoveries_total", "counter", 15.0),
    ("exploration_swaps", "counter", 1005.0),
    ("speed_aware_placements", "counter", 1006.0),
    ("speed_records_ingested", "counter", 1007.0),
    ("bad_replicas_reported", "counter", 1009.0),
    ("re_replications_scheduled", "counter", 1010.0),
    ("handler_panics", "counter", 1011.0),
    ("heartbeat_failures", "counter", 1012.0),
    ("packets_in_flight", "gauge", 11.0),
    ("concurrent_pipelines", "gauge", 12.0),
    ("datanode_buffered_bytes", "gauge", 13.0),
    ("datanode_forward_bytes", "gauge", 14.0),
    ("datanode_staging_packets", "gauge", 15.0),
    ("client_read_inflight_stripes", "gauge", 16.0),
    ("fnfa_to_allocation_us_p50", "quantile", 255.0),
    ("fnfa_to_allocation_us_p95", "quantile", 5000.0),
    ("fnfa_to_allocation_us_p99", "quantile", 5000.0),
];

const SNAPSHOT: &[(&str, f64)] = &[
    ("bad_replicas_reported", 1009.0),
    ("blocks_committed", 1003.0),
    ("bytes_read", 1008.0),
    ("bytes_written", 1001.0),
    ("client_read_inflight_stripes", 16.0),
    ("client_read_inflight_stripes_high_water", 26.0),
    ("concurrent_pipelines", 12.0),
    ("concurrent_pipelines_high_water", 22.0),
    ("datanode_buffered_bytes", 13.0),
    ("datanode_buffered_bytes_high_water", 23.0),
    ("datanode_forward_bytes", 14.0),
    ("datanode_forward_bytes_high_water", 24.0),
    ("datanode_staging_packets", 15.0),
    ("datanode_staging_packets_high_water", 25.0),
    ("exploration_swaps", 1005.0),
    ("fnfa_received", 1004.0),
    ("fnfa_to_allocation_us.count", 4.0),
    ("fnfa_to_allocation_us.max", 5000.0),
    ("fnfa_to_allocation_us.mean", 1400.0),
    ("fnfa_to_allocation_us.p50", 255.0),
    ("fnfa_to_allocation_us.p95", 5000.0),
    ("fnfa_to_allocation_us.p99", 5000.0),
    ("fnfa_to_allocation_us.sum", 5600.0),
    ("handler_panics", 1011.0),
    ("heartbeat_failures", 1012.0),
    ("packets_in_flight", 11.0),
    ("packets_in_flight_high_water", 21.0),
    ("packets_sent", 1002.0),
    ("re_replications_scheduled", 1010.0),
    ("recoveries.ack_timeout", 1.0),
    ("recoveries.connection_lost", 3.0),
    ("recoveries.datanode_error", 2.0),
    ("recoveries.namenode_error", 4.0),
    ("recoveries.nested_failure", 5.0),
    ("recoveries.total", 15.0),
    ("speed_aware_placements", 1006.0),
    ("speed_records_ingested", 1007.0),
];

#[test]
fn prometheus_scrape_is_pinned() {
    assert_eq!(prometheus_exposition(&populated()), PROMETHEUS);
}

#[test]
fn descriptors_and_one_frame_are_pinned() {
    let columns: Vec<(String, &str)> = DESCRIPTORS
        .iter()
        .map(|d| (d.name.to_string(), d.kind.name()))
        .collect();
    let expected: Vec<(String, &str)> = FRAME
        .iter()
        .map(|&(name, kind, _)| (name.to_string(), kind))
        .collect();
    assert_eq!(columns, expected);

    let sampler = Sampler::new(populated(), 4);
    sampler.sample_at(1_000);
    let frames = sampler.frames();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].t_us, 1_000);
    let values: Vec<f64> = FRAME.iter().map(|&(_, _, v)| v).collect();
    assert_eq!(frames[0].values, values);
}

#[test]
fn snapshot_json_is_pinned() {
    let text = populated().snapshot().to_string_compact();
    let mut got = BTreeMap::new();
    flatten("", &json::parse(&text).unwrap(), &mut got);
    let expected: BTreeMap<String, f64> =
        SNAPSHOT.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, expected);
}
