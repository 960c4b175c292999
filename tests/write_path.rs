//! Integration tests for the write path: the client's piggybacked block
//! commits, and the staged datanode write path — the bounded
//! receive→flush staging queue and its `datanode_buffered_bytes`
//! accounting under a disk that cannot keep up with the network, and
//! after a datanode dies mid-block.

use smarth::cluster::{random_data, MiniCluster};
use smarth::core::obs::{Obs, ObsEvent, RingBufferSink};
use smarth::core::proto::DatanodeTelemetry;
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Runs this file's tests one at a time. The staging-depth tests
/// measure how far a datanode's flusher falls behind its receiver, a
/// race the 32-block commit test's nine-datanode cluster would skew if
/// it ran beside them on the same cores.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_spec(datanodes: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < datanodes)
    });
    spec.link_latency = SimDuration::ZERO;
    spec
}

#[test]
fn stalled_disk_plateaus_staging_at_configured_buffer() {
    let _serial = serial();
    // The receiver drains the socket into a staging queue sized from
    // `datanode_client_buffer`; the flusher drains it at disk speed.
    // With the disk far slower than the NIC the queue must fill to the
    // configured bound — and no further: the bound is what turns a slow
    // disk into socket backpressure instead of unbounded memory.
    const BUFFER: u64 = 64 * 1024;
    const PACKET: u64 = 16 * 1024;

    let mut config = DfsConfig::test_scale();
    // Single-hop pipelines so exactly one staging queue is live and the
    // global gauge reads a single node's occupancy.
    config.replication = 1;
    config.datanode_client_buffer = ByteSize::bytes(BUFFER);
    // ~250 KB/s against an effectively unthrottled NIC: the 256 KiB
    // block outlasts the 64 KiB disk-token burst, so the flusher stalls
    // while the receiver keeps staging.
    config.disk_bandwidth = Bandwidth::mbps(2.0);

    let cluster = MiniCluster::start(&small_spec(2), config, 11).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(5, 256 * 1024); // exactly one block
    client.put("/wp/plateau.bin", &data, WriteMode::Hdfs).unwrap();

    let m = cluster.obs().metrics();
    let hw = m.datanode_buffered_bytes.high_water();
    assert!(
        hw >= BUFFER - PACKET,
        "staging never built up to the bound: high water {hw} B"
    );
    // Add/sub bookkeeping straddles the channel send, so a reader can
    // transiently observe up to two extra in-flight packets.
    assert!(
        hw <= BUFFER + 2 * PACKET,
        "staging exceeded the configured buffer: high water {hw} B > {BUFFER} B"
    );
    assert_eq!(
        m.datanode_buffered_bytes.get(),
        0,
        "staging must drain to zero after the upload"
    );
    assert_eq!(client.get("/wp/plateau.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn fast_disk_keeps_staging_shallow() {
    let _serial = serial();
    // Control experiment: with the disk faster than the NIC the staging
    // queue never approaches its bound — the flusher keeps up.
    let mut config = DfsConfig::test_scale();
    config.replication = 1;
    config.datanode_client_buffer = ByteSize::bytes(256 * 1024);
    config.disk_bandwidth = Bandwidth::unlimited();

    let cluster = MiniCluster::start(&small_spec(2), config, 13).unwrap();
    // The unshaped NIC's 20 ms token burst exceeds the whole block, so
    // the block would arrive at memory speed and the test would measure
    // thread scheduling, not disk against NIC. At 20 Mbps only the
    // first 64 KiB arrive at once and the rest takes about 80 ms.
    let client_host = cluster.spec().client_host().name.clone();
    cluster
        .throttle_host(&client_host, Some(Bandwidth::mbps(20.0)))
        .unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(7, 256 * 1024);
    client.put("/wp/shallow.bin", &data, WriteMode::Hdfs).unwrap();

    let m = cluster.obs().metrics();
    let hw = m.datanode_buffered_bytes.high_water();
    assert!(
        hw < 256 * 1024,
        "unlimited disk should never fill the staging bound: high water {hw} B"
    );
    assert_eq!(m.datanode_buffered_bytes.get(), 0);
    cluster.shutdown();
}

#[test]
fn piggybacked_commits_retire_as_their_add_block_returns() {
    let _serial = serial();
    // Each fully-acked block's commit rides the next `addBlock` as its
    // `previous` and must leave the client's queue when that call
    // returns. The namenode sums only committed block lengths, so the
    // file's visible length before `close()` shows how many commits
    // already landed. Once `max_concurrent_pipelines` allocations have
    // found the queue empty it never empties at an allocation again,
    // so at most that many commits are left for `close()`: 3 for SMARTH
    // on 9 datanodes with replication 3, and 1 for stop-and-wait HDFS.
    const BLOCKS: u64 = 32;
    let config = DfsConfig::test_scale();
    let block_size = config.block_size.as_u64();
    let cluster = MiniCluster::start(&small_spec(9), config, 17).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(19, (BLOCKS * block_size) as usize);

    for (mode, cap, path) in [
        (WriteMode::Smarth, 3, "/wp/commits-smarth.bin"),
        (WriteMode::Hdfs, 1, "/wp/commits-hdfs.bin"),
    ] {
        let committed_before = cluster.obs().metrics().blocks_committed.get();
        let mut out = client.create(path, mode).unwrap();
        for block in data.chunks(block_size as usize) {
            out.write(block).unwrap();
        }
        let visible = client.file_info(path).unwrap().expect("file exists").len;
        assert!(
            visible >= (BLOCKS - cap) * block_size,
            "{mode:?}: only {visible} B committed before close(); commits are piling up"
        );

        let stats = out.close().unwrap();
        assert_eq!(stats.blocks_committed, BLOCKS, "{mode:?}");
        assert_eq!(
            cluster.obs().metrics().blocks_committed.get() - committed_before,
            BLOCKS,
            "{mode:?}"
        );
        assert_eq!(
            client.file_info(path).unwrap().expect("file exists").len,
            BLOCKS * block_size,
            "{mode:?}"
        );
        assert_eq!(client.get(path).unwrap(), data, "{mode:?}");
    }
    cluster.shutdown();
}

#[test]
fn killing_a_mid_pipeline_datanode_leaves_no_buffer_charged() {
    let _serial = serial();
    // The head of a replication-3 pipeline loses its mirror mid-block:
    // its forwarder's send fails and drains, the dead node's receiver
    // errors, and the client recovers onto the survivors. Every packet
    // charged to a forward or staging queue on those paths must be
    // released, on each node's own levels and on the shared gauges.
    let mut config = DfsConfig::test_scale();
    config.replication = 3;
    // ~1 MB/s disks keep packets staged while the kill lands.
    config.disk_bandwidth = Bandwidth::mbps(8.0);
    let ring = RingBufferSink::new(4096);
    let cluster =
        MiniCluster::start_with_obs(&small_spec(4), config, 23, Obs::new(ring.clone())).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(29, 600_000);
    let path = "/wp/kill-second.bin";

    let mut out = client.create(path, WriteMode::Hdfs).unwrap();
    // Less than one 256 KiB block, so the first pipeline is mid-block.
    out.write(&data[..200_000]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let targets = loop {
        let opened = ring.snapshot().into_iter().find_map(|r| match r.event {
            ObsEvent::PipelineOpened { targets, .. } => Some(targets),
            _ => None,
        });
        if let Some(t) = opened {
            break t;
        }
        assert!(Instant::now() < deadline, "no pipeline opened");
        std::thread::sleep(Duration::from_millis(1));
    };
    let host_of = |id| {
        cluster
            .datanode_hosts()
            .into_iter()
            .find(|h| cluster.datanode(h).unwrap().id() == id)
            .unwrap()
    };
    let (head, second) = (host_of(targets[0]), host_of(targets[1]));
    let idle = DatanodeTelemetry::default();
    while cluster.datanode(&head).unwrap().local_telemetry() == idle {
        assert!(Instant::now() < deadline, "head never buffered a packet");
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.kill_datanode(&second).unwrap();
    out.write(&data[200_000..]).unwrap();
    let stats = out.close().unwrap();
    assert!(stats.recoveries >= 1, "the kill must trigger a recovery");

    // Stages of the broken pipeline wind down after close() returns;
    // a leaked charge would stay non-zero past the deadline.
    let m = cluster.obs().metrics();
    let survivors: Vec<String> = cluster
        .datanode_hosts()
        .into_iter()
        .filter(|h| *h != second)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let levels: Vec<DatanodeTelemetry> = survivors
            .iter()
            .map(|h| cluster.datanode(h).unwrap().local_telemetry())
            .collect();
        let shared = [
            m.datanode_buffered_bytes.get(),
            m.datanode_forward_bytes.get(),
            m.datanode_staging_packets.get(),
        ];
        if levels.iter().all(|l| *l == idle) && shared == [0, 0, 0] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "buffers still charged: survivors {levels:?}, shared {shared:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client.get(path).unwrap(), data);
    cluster.shutdown();
}
