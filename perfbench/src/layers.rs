//! Per-layer metrics of a traced run. They come from three places, all
//! outside the crates: the benchmark's own spans around each public
//! call, the shared `Metrics` registry, and the block timelines
//! `TraceAssembler` builds from the ring-buffered event stream.

use crate::rec::{Phase, Span};
use crate::stats::{median, quantile, Table};
use smarth_client::StreamStats;
use smarth_core::ids::{BlockId, ClientId};
use smarth_core::obs::{EventRecord, Metrics, ObsEvent};
use smarth_core::trace::{BlockTimeline, TraceAssembler};
use std::collections::BTreeMap;

pub struct Input<'a> {
    pub spans: &'a [Span],
    pub streams: &'a [StreamStats],
    pub metrics: &'a Metrics,
    pub records: &'a [EventRecord],
    pub stored_bytes: u64,
    pub overhead_ratio: f64,
    pub dropped_events: u64,
}

/// Durations in ms of the spans called `name`: from the measured phase
/// when it made that call, else from the verify pass.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let of = |phase| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.phase == phase)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let measured = of(Phase::Measured);
    if measured.is_empty() {
        of(Phase::Verify)
    } else {
        measured
    }
}

/// Self time (span minus its children) of every top-level span called
/// `name`, in µs. Fails unless the children sit inside their parent one
/// after another, so that children plus self time add up to the parent.
fn self_us(spans: &[Span], name: &str) -> Result<Vec<f64>, String> {
    let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = Vec::new();
    for (i, parent) in spans.iter().enumerate() {
        if parent.name != name || parent.parent.is_some() {
            continue;
        }
        let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
        let mut cursor = parent.start_ns;
        for k in kids {
            if k.start_ns < cursor || k.end_ns > parent.end_ns || k.end_ns < k.start_ns {
                return Err(format!(
                    "span check: child {} of {name} op {} does not nest in sequence",
                    k.name, parent.op
                ));
            }
            cursor = k.end_ns;
        }
        let child_ns: u64 = kids.iter().map(|k| k.dur_ns()).sum();
        out.push((parent.dur_ns() - child_ns) as f64 / 1e3);
    }
    Ok(out)
}

fn ordered(records: &[EventRecord]) -> Vec<&EventRecord> {
    let mut v: Vec<&EventRecord> = records.iter().collect();
    v.sort_by_key(|r| (r.at_us, r.seq));
    v
}

/// FNFA receipt → the same client's next block allocation, in µs, as
/// the assembler pairs them but unbucketed: an FNFA whose own block
/// closes before another allocation ends a file and is not paired.
fn fnfa_to_alloc_us(records: &[EventRecord], blocks: &[BlockTimeline]) -> Vec<f64> {
    let owner: BTreeMap<BlockId, ClientId> = blocks
        .iter()
        .filter_map(|b| b.client.map(|c| (b.block, c)))
        .collect();
    let mut pending: BTreeMap<ClientId, (BlockId, u64)> = BTreeMap::new();
    let mut out = Vec::new();
    for r in ordered(records) {
        match &r.event {
            ObsEvent::BlockAllocated { client, .. } => {
                if let Some((_, at)) = pending.remove(client) {
                    out.push(r.at_us.saturating_sub(at) as f64);
                }
            }
            ObsEvent::FnfaReceived { block, .. } => {
                if let Some(c) = owner.get(block) {
                    pending.insert(*c, (*block, r.at_us));
                }
            }
            ObsEvent::PipelineClosed { block, .. } => {
                if let Some(c) = owner.get(block) {
                    if pending.get(c).is_some_and(|(b, _)| b == block) {
                        pending.remove(c);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// ReadStarted → each StripeFetched of that block read, in µs.
fn stripe_us(records: &[EventRecord]) -> Vec<f64> {
    let mut started: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for r in ordered(records) {
        match &r.event {
            ObsEvent::ReadStarted { block, .. } => {
                started.insert(*block, r.at_us);
            }
            ObsEvent::StripeFetched { block, .. } => {
                if let Some(at) = started.get(block) {
                    out.push(r.at_us.saturating_sub(*at) as f64);
                }
            }
            _ => {}
        }
    }
    out
}

pub fn per_layer(i: &Input, t: &mut Table) -> Result<(), String> {
    let p50 = |t: &mut Table, name: &str, v: &[f64], unit: &'static str| {
        t.add(name, median(v).unwrap_or(0.0), unit, v.len());
    };

    // namenode: the RPC-backed client calls.
    for (metric, span) in [
        ("namenode.create_p50_ms", "namenode.create"),
        ("namenode.locate_p50_ms", "namenode.locate"),
        ("namenode.stat_p50_ms", "namenode.stat"),
        ("namenode.list_p50_ms", "namenode.list"),
        ("namenode.delete_p50_ms", "namenode.delete"),
    ] {
        p50(t, metric, &span_ms(i.spans, span), "ms");
    }
    let committed = i.metrics.blocks_committed.get();
    t.add(
        "namenode.speed_aware_ratio",
        i.metrics.speed_aware_placements.get() as f64 / committed as f64,
        "ratio",
        committed as usize,
    );

    // client.ostream
    p50(
        t,
        "ostream.write_p50_ms",
        &span_ms(i.spans, "ostream.write"),
        "ms",
    );
    p50(
        t,
        "ostream.close_p50_ms",
        &span_ms(i.spans, "ostream.close"),
        "ms",
    );
    let n = i.streams.len();
    let max_pipes = i
        .streams
        .iter()
        .map(|s| s.max_concurrent_pipelines)
        .max()
        .unwrap_or(0);
    t.add("ostream.max_pipelines", max_pipes as f64, "count", n);
    let swaps: u64 = i.streams.iter().map(|s| s.explored_swaps).sum();
    t.add("ostream.explored_swaps", swaps as f64, "count", n);
    let recoveries: u64 = i.streams.iter().map(|s| s.recoveries).sum();
    t.add("ostream.recoveries", recoveries as f64, "count", n);

    // client.pipeline and datanode, from the block timelines.
    let report = TraceAssembler::assemble(i.records);
    let written: Vec<&BlockTimeline> = report
        .blocks
        .iter()
        .filter(|b| b.committed && b.allocated_us.is_some() && b.opened_us.is_some())
        .collect();
    let collect = |f: &dyn Fn(&BlockTimeline) -> Option<f64>| -> Vec<f64> {
        written.iter().filter_map(|b| f(b)).collect()
    };
    let gap = |from: Option<u64>, to: Option<u64>| Some(to?.saturating_sub(from?) as f64);
    let last_hop = |b: &BlockTimeline| b.hops.iter().map(|h| h.finished_us).max();
    let open = collect(&|b| gap(b.allocated_us, b.opened_us));
    let first_hop = collect(&|b| gap(b.opened_us, b.fnfa_us));
    let tail = collect(&|b| gap(b.fnfa_us, last_hop(b)));
    let hop_last = collect(&|b| gap(b.opened_us, last_hop(b)));
    let first_hop_mbps = collect(&|b| {
        let us = gap(b.opened_us, b.fnfa_us).filter(|us| *us > 0.0)?;
        let head = b.fnfa_first_node?;
        let bytes = b.hops.iter().find(|h| h.datanode == head)?.bytes;
        // Bits per microsecond are megabits per second.
        Some(bytes as f64 * 8.0 / us)
    });
    let blocks = written.len();
    p50(t, "pipeline.open_p50_us", &open, "us");
    p50(t, "pipeline.first_hop_p50_us", &first_hop, "us");
    let gaps = fnfa_to_alloc_us(i.records, &report.blocks);
    for (q, name) in [
        (0.5, "pipeline.fnfa_to_alloc_p50_us"),
        (0.95, "pipeline.fnfa_to_alloc_p95_us"),
    ] {
        t.add(name, quantile(&gaps, q).unwrap_or(0.0), "us", gaps.len());
    }
    p50(t, "pipeline.repl_tail_p50_us", &tail, "us");
    t.add(
        "pipeline.overlap_pairs_per_block",
        report.overlap_pairs() as f64 / blocks as f64,
        "ratio",
        blocks,
    );
    let batches: u64 = written.iter().map(|b| b.ack_batches).sum();
    t.add(
        "pipeline.ack_batches_per_block",
        batches as f64 / blocks as f64,
        "ratio",
        blocks,
    );
    p50(t, "datanode.hop_last_p50_us", &hop_last, "us");
    let m = i.metrics;
    t.add(
        "datanode.staging_packets_hw",
        m.datanode_staging_packets.high_water() as f64,
        "count",
        1,
    );
    t.add(
        "datanode.buffered_bytes_hw",
        m.datanode_buffered_bytes.high_water() as f64,
        "B",
        1,
    );
    t.add(
        "datanode.forward_bytes_hw",
        m.datanode_forward_bytes.high_water() as f64,
        "B",
        1,
    );
    t.add("datanode.stored_bytes", i.stored_bytes as f64, "B", 1);

    // client.istream
    p50(
        t,
        "istream.read_all_p50_ms",
        &span_ms(i.spans, "istream.read_all"),
        "ms",
    );
    p50(
        t,
        "istream.read_range_p50_ms",
        &span_ms(i.spans, "istream.read_range"),
        "ms",
    );
    t.add(
        "istream.stripes_hw",
        m.client_read_inflight_stripes.high_water() as f64,
        "count",
        1,
    );
    p50(t, "istream.stripe_p50_us", &stripe_us(i.records), "us");
    let reads: Vec<_> = report.blocks.iter().flat_map(|b| &b.reads).collect();
    let switches: u64 = reads.iter().map(|r| r.source_switches).sum();
    t.add(
        "istream.source_switches",
        switches as f64,
        "count",
        reads.len(),
    );

    // fabric: first-hop rate, to read against the NIC shaping.
    p50(t, "fabric.first_hop_mbps", &first_hop_mbps, "Mbps");

    // Self time of the benchmark's own top-level ops.
    let put_self = self_us(i.spans, "put")?;
    let get_self = self_us(i.spans, "get")?;
    self_us(i.spans, "pread")?;
    p50(t, "put.self_p50_us", &put_self, "us");
    p50(t, "get.self_p50_us", &get_self, "us");

    t.add("trace.overhead_ratio", i.overhead_ratio, "ratio", 2);
    t.add(
        "trace.dropped_events",
        i.dropped_events as f64,
        "count",
        i.records.len(),
    );
    Ok(())
}
