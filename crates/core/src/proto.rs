//! Protocol messages.
//!
//! Three protocol families, mirroring Hadoop's layering (§II):
//!
//! * **ClientProtocol** — client ↔ namenode RPCs (`create`, `addBlock`,
//!   `complete`, speed reports, block locations, replacement datanodes).
//! * **DatanodeProtocol** — datanode ↔ namenode RPCs (registration,
//!   heartbeats, `blockReceived`).
//! * **Data transfer** — the streaming protocol between a client and the
//!   datanodes of a pipeline: a write header, then data packets downstream
//!   and acks upstream. SMARTH adds the `FirstNodeFinish` ack kind (FNFA,
//!   §III-A) and per-block `recoverBlock` used by Algorithms 3/4.
//!
//! All messages implement [`Wire`] and are exchanged as length-prefixed
//! frames (see [`crate::wire`]). Each message's wire layout is declared
//! once, by the field list in its `wire_struct!` or `wire_enum!`.

use crate::config::WriteMode;
use crate::error::{DfsError, DfsResult};
use crate::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId, SpanId, TraceId,
};
use crate::obs::TraceCtx;
use crate::wire::{wire_enum, wire_struct, Wire, WireReader};
use bytes::Bytes;

// ---------------------------------------------------------------------------
// Shared wire types
// ---------------------------------------------------------------------------

wire_struct!(ExtendedBlock { id, gen, len });

wire_enum!(WriteMode {
    0 => Hdfs,
    1 => Smarth,
});

/// Everything a client needs to reach a datanode: identity, rack (for
/// local sorting) and fabric address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatanodeInfo {
    pub id: DatanodeId,
    pub host_name: String,
    pub rack: String,
    /// Address of the datanode's data-transfer listener on the fabric.
    pub addr: String,
}

wire_struct!(DatanodeInfo {
    id,
    host_name,
    rack,
    addr
});

/// Per-datanode gauge snapshot piggybacked on every heartbeat: the
/// §IV-C staging/buffer levels local to *that* node, as opposed to the
/// process-wide aggregates in `Metrics` (which, in a `MiniCluster`,
/// sum every datanode sharing one `Obs`). The namenode retains the
/// latest snapshot per node, giving it a cluster-wide live view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatanodeTelemetry {
    /// Packets currently queued between receive and flush stages.
    pub staging_packets: u64,
    /// Bytes staged awaiting flush.
    pub buffered_bytes: u64,
    /// Bytes queued toward the downstream mirror.
    pub forward_bytes: u64,
}

wire_struct!(DatanodeTelemetry {
    staging_packets,
    buffered_bytes,
    forward_bytes
});

/// One row of the namenode's cluster telemetry table: liveness and
/// usage from the datanode manager joined with the node's last
/// piggybacked [`DatanodeTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTelemetryRow {
    pub id: DatanodeId,
    pub host_name: String,
    pub rack: String,
    pub alive: bool,
    pub used: u64,
    pub capacity: u64,
    pub active_transfers: u32,
    pub telemetry: DatanodeTelemetry,
    /// Milliseconds since the node's last heartbeat.
    pub age_ms: u64,
}

wire_struct!(NodeTelemetryRow {
    id,
    host_name,
    rack,
    alive,
    used,
    capacity,
    active_transfers,
    telemetry,
    age_ms
});

/// A block plus the pipeline targets chosen by the namenode — the
/// response to `addBlock` (§II step 2). The namenode also mints the
/// block's causal trace here: `trace`/`span` identify the lifecycle
/// trace this allocation roots, carried back to the client and onward
/// through every pipeline hop (`INVALID` on untraced paths such as
/// read-side block locations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedBlock {
    pub block: ExtendedBlock,
    pub targets: Vec<DatanodeInfo>,
    pub trace: TraceId,
    pub span: SpanId,
}

impl LocatedBlock {
    /// An untraced located block (read path, tests).
    pub fn untraced(block: ExtendedBlock, targets: Vec<DatanodeInfo>) -> Self {
        LocatedBlock {
            block,
            targets,
            trace: TraceId::INVALID,
            span: SpanId::INVALID,
        }
    }

    /// The causal context of this allocation, when traced.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::from_raw(self.trace.raw(), self.span.raw())
    }
}

wire_struct!(LocatedBlock {
    block,
    targets,
    trace,
    span
});

/// One client→namenode speed observation: mean transfer bandwidth to a
/// first-datanode, in bytes per second (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedRecord {
    pub datanode: DatanodeId,
    pub bytes_per_sec: f64,
    /// How many block transfers this record aggregates since last report.
    pub samples: u32,
}

wire_struct!(SpeedRecord {
    datanode,
    bytes_per_sec,
    samples
});

/// File metadata as returned by `getFileInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub file_id: FileId,
    pub path: String,
    pub len: u64,
    pub replication: u32,
    pub block_size: u64,
    pub is_dir: bool,
    pub complete: bool,
}

wire_struct!(FileStatus {
    file_id,
    path,
    len,
    replication,
    block_size,
    is_dir,
    complete
});

// ---------------------------------------------------------------------------
// ClientProtocol
// ---------------------------------------------------------------------------

/// Client → namenode requests.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Registers a client session; the namenode answers with a fresh id.
    Register { host_name: String, rack: String },
    /// §II step 1: create a file in the namespace.
    Create {
        client: ClientId,
        path: String,
        replication: u32,
        block_size: u64,
        overwrite: bool,
        mode: WriteMode,
    },
    /// §II step 2: allocate the next block and its pipeline targets.
    /// `previous` is committed (with its final length) as a side effect.
    AddBlock {
        client: ClientId,
        file_id: FileId,
        previous: Option<ExtendedBlock>,
        excluded: Vec<DatanodeId>,
    },
    /// Commits a block without allocating a new one (used when a block
    /// finishes but the stream keeps other pipelines running — SMARTH).
    CommitBlock {
        client: ClientId,
        file_id: FileId,
        block: ExtendedBlock,
    },
    /// §II step 6: all blocks acked, seal the file.
    Complete {
        client: ClientId,
        file_id: FileId,
        last: Option<ExtendedBlock>,
    },
    /// Abandon an allocated-but-unwritten block (recovery path).
    AbandonBlock {
        client: ClientId,
        file_id: FileId,
        block: BlockId,
    },
    /// Replacement targets for a damaged pipeline (Algorithm 3 line 10).
    GetAdditionalDatanodes {
        client: ClientId,
        block: BlockId,
        existing: Vec<DatanodeId>,
        wanted: u32,
    },
    /// Bumps the generation stamp for block recovery and returns the new
    /// stamp (Algorithm 3 line 11 support).
    BeginBlockRecovery { client: ClientId, block: BlockId },
    /// §III-B: the 3-second heartbeat piggybacking observed speeds.
    ReportSpeeds {
        client: ClientId,
        records: Vec<SpeedRecord>,
    },
    GetFileInfo { path: String },
    /// Read path: block list plus replica locations. Carries the client
    /// id so the namenode can order each block's sources by that
    /// client's observed speeds (§III-B applied to reads).
    GetBlockLocations { client: ClientId, path: String },
    /// Read path: a reader observed a corrupt or truncated replica. The
    /// namenode drops the replica from future location responses and
    /// schedules re-replication accounting.
    ReportBadReplica {
        client: ClientId,
        block: ExtendedBlock,
        datanode: DatanodeId,
    },
    /// Namespace listing (for examples/tools).
    List { path: String },
    Delete { path: String },
    /// Move a complete file to a new path. The destination must not
    /// exist; parents are created as needed. On the sharded namenode
    /// this is the one client-visible cross-shard mutation (src and dst
    /// volumes may live on different shards).
    Rename { src: String, dst: String },
    /// Telemetry scrape: the namenode's Prometheus exposition, its
    /// sampled series, and the per-datanode cluster table assembled
    /// from heartbeat piggybacks (`smarth_shell top` / `slo`).
    GetTelemetry,
    /// Retry envelope for mutations. The namenode remembers the last
    /// responses per `(client, request_id)` in a bounded table and
    /// replays the cached response when a retried request arrives, so a
    /// retry after a lost response cannot double-allocate or
    /// double-commit. Nesting `Idempotent` inside `Idempotent` is a
    /// protocol error.
    Idempotent {
        client: ClientId,
        /// Client-minted, unique per logical mutation (not per attempt).
        request_id: u64,
        inner: Box<ClientRequest>,
    },
}

/// Namenode → client responses. `Error` carries the failed variant's
/// error; every happy-path response has its own variant so callers can
/// pattern-match exhaustively.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResponse {
    Registered { client: ClientId },
    Created { file_id: FileId },
    BlockAllocated(LocatedBlock),
    Committed,
    Completed,
    Abandoned,
    AdditionalDatanodes { targets: Vec<DatanodeInfo> },
    BadReplicaAck,
    RecoveryStamp { new_gen: GenStamp },
    SpeedsAck,
    FileInfo(Option<FileStatus>),
    BlockLocations { blocks: Vec<LocatedBlock> },
    Listing { entries: Vec<FileStatus> },
    Deleted { existed: bool },
    Renamed,
    /// Cluster-wide telemetry: per-node rows, the namenode's Prometheus
    /// text exposition, and its `TelemetrySeries` as compact JSON.
    Telemetry {
        rows: Vec<NodeTelemetryRow>,
        text: String,
        series_json: String,
    },
    Error(String),
}

wire_enum!(ClientRequest {
    0 => Register { host_name, rack },
    1 => Create { client, path, replication, block_size, overwrite, mode },
    2 => AddBlock { client, file_id, previous, excluded },
    3 => CommitBlock { client, file_id, block },
    4 => Complete { client, file_id, last },
    5 => AbandonBlock { client, file_id, block },
    6 => GetAdditionalDatanodes { client, block, existing, wanted },
    7 => BeginBlockRecovery { client, block },
    8 => ReportSpeeds { client, records },
    9 => GetFileInfo { path },
    10 => GetBlockLocations { client, path },
    11 => List { path },
    12 => Delete { path },
    13 => ReportBadReplica { client, block, datanode },
    14 => GetTelemetry,
    15 => Idempotent { client, request_id, inner = decode_envelope_inner },
    16 => Rename { src, dst },
});

/// Decodes the request inside an `Idempotent` envelope. A nested
/// envelope (tag 15 above) is rejected from its tag alone, before any
/// recursion, so a frame of many nested headers cannot exhaust the
/// stack.
fn decode_envelope_inner(r: &mut WireReader) -> DfsResult<Box<ClientRequest>> {
    if r.peek_u8()? == 15 {
        return Err(DfsError::codec("nested Idempotent request envelope"));
    }
    Box::decode(r)
}

wire_enum!(ClientResponse {
    0 => Registered { client },
    1 => Created { file_id },
    2 => BlockAllocated(block),
    3 => Committed,
    4 => Completed,
    5 => Abandoned,
    6 => AdditionalDatanodes { targets },
    7 => RecoveryStamp { new_gen },
    8 => SpeedsAck,
    9 => FileInfo(info),
    10 => BlockLocations { blocks },
    11 => Listing { entries },
    12 => Deleted { existed },
    13 => BadReplicaAck,
    14 => Telemetry { rows, text, series_json },
    15 => Renamed,
    255 => Error(msg),
});

// ---------------------------------------------------------------------------
// DatanodeProtocol
// ---------------------------------------------------------------------------

/// Datanode → namenode requests.
#[derive(Debug, Clone, PartialEq)]
pub enum DatanodeRequest {
    Register {
        host_name: String,
        rack: String,
        data_addr: String,
        capacity: u64,
    },
    Heartbeat {
        id: DatanodeId,
        used: u64,
        active_transfers: u32,
        /// The node's live gauge snapshot, piggybacked so the namenode
        /// holds a cluster-wide telemetry view with no extra RPC.
        telemetry: DatanodeTelemetry,
    },
    BlockReceived {
        id: DatanodeId,
        block: ExtendedBlock,
    },
}

/// Namenode → datanode responses.
#[derive(Debug, Clone, PartialEq)]
pub enum DatanodeResponse {
    Registered { id: DatanodeId },
    HeartbeatAck,
    BlockReceivedAck,
    Error(String),
}

wire_enum!(DatanodeRequest {
    0 => Register { host_name, rack, data_addr, capacity },
    1 => Heartbeat { id, used, active_transfers, telemetry },
    2 => BlockReceived { id, block },
});

wire_enum!(DatanodeResponse {
    0 => Registered { id },
    1 => HeartbeatAck,
    2 => BlockReceivedAck,
    255 => Error(msg),
});

// ---------------------------------------------------------------------------
// Data transfer protocol
// ---------------------------------------------------------------------------

/// First frame on a data connection: what the receiver should do.
#[derive(Debug, Clone, PartialEq)]
pub enum DataOp {
    /// Start receiving a block. `targets` is the *remaining* pipeline
    /// downstream of the receiver (empty for the tail node).
    WriteBlock(WriteBlockHeader),
    /// Read a finalized block back (verification path).
    ReadBlock {
        block: ExtendedBlock,
        offset: u64,
        len: u64,
    },
    /// Recover a block: adopt the new generation stamp and truncate to
    /// `new_len` (Algorithm 3's `recoverBlock` issued by the primary).
    RecoverBlock {
        block: ExtendedBlock,
        new_gen: GenStamp,
        new_len: u64,
    },
    /// Ask a datanode for the current state of a replica (used by the
    /// recovery primary to agree on a safe length).
    GetReplicaInfo { block: BlockId },
    /// Scrape this datanode's telemetry: Prometheus text exposition
    /// plus its local sampled series as compact JSON.
    GetTelemetry,
}

/// Header of a block write (§II step 3 / §III-A step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBlockHeader {
    pub pipeline: PipelineId,
    pub client: ClientId,
    pub block: ExtendedBlock,
    pub mode: WriteMode,
    /// Downstream targets the receiver must forward to, nearest first.
    pub targets: Vec<DatanodeInfo>,
    /// Index of the receiver in the original pipeline (0 = first node).
    /// The first node is the one that emits the FNFA in SMARTH mode.
    pub position: u32,
    /// Buffer budget granted to this client on the first node (§IV-C).
    pub client_buffer: u64,
    /// Causal trace of the block's lifecycle, forwarded unchanged down
    /// the pipeline (`INVALID` when the write is untraced).
    pub trace: TraceId,
    /// The parent span datanode-side events hang off; each hop derives
    /// its own child span from this and its position.
    pub span: SpanId,
}

impl WriteBlockHeader {
    /// The causal context this hop should emit events under: the
    /// block's trace, entered through a per-position child span.
    pub fn hop_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::from_raw(self.trace.raw(), self.span.raw())
            .map(|ctx| ctx.child(self.position as u64 + 1))
    }
}

wire_struct!(WriteBlockHeader {
    pipeline,
    client,
    block,
    mode,
    targets,
    position,
    client_buffer,
    trace,
    span
});

wire_enum!(DataOp {
    0 => WriteBlock(header),
    1 => ReadBlock { block, offset, len },
    2 => RecoverBlock { block, new_gen, new_len },
    3 => GetReplicaInfo { block },
    4 => GetTelemetry,
});

/// A data packet travelling down a pipeline (§II step 3). The payload is
/// a reference-counted `Bytes`, so a decoded packet shares the received
/// frame's buffer; forwarding it to the mirror re-encodes it, which
/// copies the payload once into the outgoing frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    pub seq: u64,
    /// Byte offset of this payload within the block.
    pub offset_in_block: u64,
    pub last_in_block: bool,
    pub checksums: Vec<u32>,
    pub payload: Bytes,
}

impl Packet {
    pub fn len(&self) -> usize {
        self.payload.len()
    }
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

wire_struct!(Packet {
    seq,
    offset_in_block,
    last_in_block,
    checksums,
    payload
});

/// Per-datanode status inside an ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    Success,
    Error,
}

/// Kind of acknowledgement travelling upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// Normal per-packet ack aggregated across the downstream pipeline.
    Packet,
    /// SMARTH's FIRST_NODE_FINISH ack: the first datanode has stored the
    /// entire block (§III-A step 3). Sent once per block, in addition to
    /// the per-packet acks.
    FirstNodeFinish,
}

/// Acknowledgement message (§II step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAck {
    pub kind: AckKind,
    pub seq: u64,
    /// Number of packets this ack covers: acks are cumulative, so an
    /// ack for `seq` with `batch = n` acknowledges packets
    /// `seq - n + 1 ..= seq`. The responder coalesces whatever is ready
    /// into one ack, cutting upstream ack traffic on large uploads.
    pub batch: u64,
    /// Status per pipeline member downstream of (and including) the
    /// sender, ordered nearest-first. A client sees `replication` entries
    /// on an intact pipeline.
    pub statuses: Vec<AckStatus>,
}

impl PipelineAck {
    pub fn all_success(&self) -> bool {
        self.statuses.iter().all(|s| *s == AckStatus::Success)
    }

    /// Index of the first failed node, if any — the node Algorithm 3
    /// removes from the pipeline.
    pub fn first_error(&self) -> Option<usize> {
        self.statuses.iter().position(|s| *s == AckStatus::Error)
    }
}

wire_enum!(AckStatus {
    0 => Success,
    1 => Error,
});

wire_enum!(AckKind {
    0 => Packet,
    1 => FirstNodeFinish,
});

wire_struct!(PipelineAck {
    kind,
    seq,
    batch,
    statuses = decode_ack_statuses
});

/// An ack carries one status per pipeline member, so a count beyond
/// any plausible pipeline marks a corrupt frame.
fn decode_ack_statuses(r: &mut WireReader) -> DfsResult<Vec<AckStatus>> {
    let statuses = Vec::decode(r)?;
    if statuses.len() > 1024 {
        return Err(DfsError::codec(format!(
            "ack status count {} absurd",
            statuses.len()
        )));
    }
    Ok(statuses)
}

/// Reply to `DataOp::ReadBlock` / `RecoverBlock` / `GetReplicaInfo`.
#[derive(Debug, Clone, PartialEq)]
pub enum DataReply {
    /// Block content follows as a stream of `Packet`s; this frame carries
    /// the total length to expect.
    ReadOk { len: u64 },
    RecoverOk { block: ExtendedBlock },
    ReplicaInfo {
        block: Option<ExtendedBlock>,
        finalized: bool,
    },
    /// Reply to [`DataOp::GetTelemetry`].
    Telemetry { text: String, series_json: String },
    Error(String),
}

wire_enum!(DataReply {
    0 => ReadOk { len },
    1 => RecoverOk { block },
    2 => ReplicaInfo { block, finalized },
    3 => Telemetry { text, series_json },
    255 => Error(msg),
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let decoded = T::from_bytes(v.to_bytes()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn nested_idempotent_envelope_is_rejected() {
        let nested = ClientRequest::Idempotent {
            client: ClientId(1),
            request_id: 7,
            inner: Box::new(ClientRequest::Idempotent {
                client: ClientId(1),
                request_id: 8,
                inner: Box::new(ClientRequest::GetTelemetry),
            }),
        };
        assert!(ClientRequest::from_bytes(nested.to_bytes()).is_err());
    }

    #[test]
    fn deeply_nested_envelope_is_an_error_not_a_stack_overflow() {
        // 200,000 envelope headers (tag, client, request id) around one
        // request: 3.4 MB, far below `MAX_FRAME`.
        let depth = 200_000;
        let mut frame = Vec::with_capacity(17 * depth + 1);
        for _ in 0..depth {
            frame.push(15);
            frame.extend_from_slice(&[0; 16]);
        }
        frame.push(14);
        assert!(matches!(
            ClientRequest::from_bytes(Bytes::from(frame)),
            Err(DfsError::Codec(_))
        ));
    }

    #[test]
    fn ack_status_count_is_capped() {
        let ack = |n| PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success; n],
        };
        roundtrip(ack(1024));
        assert!(matches!(
            PipelineAck::from_bytes(ack(1025).to_bytes()),
            Err(DfsError::Codec(_))
        ));
    }

    #[test]
    fn ack_helpers() {
        let ok = PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success; 3],
        };
        assert!(ok.all_success());
        assert_eq!(ok.first_error(), None);

        let bad = PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success, AckStatus::Error, AckStatus::Success],
        };
        assert!(!bad.all_success());
        assert_eq!(bad.first_error(), Some(1));
    }

    #[test]
    fn trace_context_propagates_through_headers() {
        let lb = LocatedBlock {
            block: ExtendedBlock::new(BlockId(5), GenStamp(1), 0),
            targets: vec![],
            trace: TraceId(21),
            span: SpanId(34),
        };
        let ctx = lb.trace_ctx().expect("traced block has a context");
        assert_eq!(ctx.trace, TraceId(21));
        assert_eq!(ctx.span, SpanId(34));
        assert_eq!(
            LocatedBlock::untraced(lb.block, vec![]).trace_ctx(),
            None,
            "sentinel ids mean untraced"
        );

        let header = WriteBlockHeader {
            pipeline: PipelineId(3),
            client: ClientId(1),
            block: ExtendedBlock::new(BlockId(5), GenStamp(1), 0),
            mode: WriteMode::Smarth,
            targets: vec![],
            position: 1,
            client_buffer: 0,
            trace: TraceId(21),
            span: SpanId(34),
        };
        let hop = header.hop_ctx().unwrap();
        assert_eq!(hop.trace, TraceId(21), "hops stay in the block's trace");
        assert_eq!(hop.span, SpanId(34).child(2), "hop span derives from position");
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let b = Bytes::from_static(&[200]);
        assert!(ClientRequest::from_bytes(b.clone()).is_err());
        assert!(ClientResponse::from_bytes(b.clone()).is_err());
        assert!(DatanodeRequest::from_bytes(b.clone()).is_err());
        assert!(DatanodeResponse::from_bytes(b.clone()).is_err());
        assert!(DataOp::from_bytes(b.clone()).is_err());
        assert!(DataReply::from_bytes(b).is_err());
        assert!(WriteMode::from_bytes(Bytes::from_static(&[2])).is_err());
    }

    /// Raw material for one generated message: field values are read
    /// off a vector of random words by position (wrapping around).
    #[derive(Debug, Clone)]
    struct Pool(Vec<u64>);

    fn pool() -> impl Strategy<Value = Pool> {
        collection::vec(any::<u64>(), 32..33).prop_map(Pool)
    }

    impl Pool {
        fn u(&self, i: usize) -> u64 {
            self.0[i % self.0.len()]
        }
        fn w(&self, i: usize) -> u32 {
            self.u(i) as u32
        }
        fn b(&self, i: usize) -> bool {
            self.u(i) & 1 == 1
        }
        /// A small count, 0..=3.
        fn n(&self, i: usize) -> usize {
            (self.u(i) % 4) as usize
        }
        /// Up to 8 characters, mixing ASCII and multi-byte UTF-8.
        fn s(&self, i: usize) -> String {
            const CHARS: [char; 8] = ['a', 'Z', '/', '.', ' ', 'é', '€', '路'];
            let x = self.u(i);
            (0..x % 9)
                .map(|k| CHARS[(x >> (8 + 3 * k)) as usize % 8])
                .collect()
        }
        fn mode(&self, i: usize) -> WriteMode {
            if self.b(i) {
                WriteMode::Smarth
            } else {
                WriteMode::Hdfs
            }
        }
        fn block(&self, i: usize) -> ExtendedBlock {
            ExtendedBlock::new(BlockId(self.u(i)), GenStamp(self.u(i + 1)), self.u(i + 2))
        }
        fn maybe_block(&self, i: usize) -> Option<ExtendedBlock> {
            self.b(i).then(|| self.block(i + 1))
        }
        fn dn_ids(&self, i: usize) -> Vec<DatanodeId> {
            (0..self.n(i))
                .map(|k| DatanodeId(self.w(i + 1 + k)))
                .collect()
        }
        fn dns(&self, i: usize) -> Vec<DatanodeInfo> {
            (0..self.n(i))
                .map(|k| DatanodeInfo {
                    id: DatanodeId(self.w(i + 4 * k)),
                    host_name: self.s(i + 4 * k + 1),
                    rack: self.s(i + 4 * k + 2),
                    addr: self.s(i + 4 * k + 3),
                })
                .collect()
        }
        fn located(&self, i: usize) -> LocatedBlock {
            LocatedBlock {
                block: self.block(i),
                targets: self.dns(i + 3),
                trace: TraceId(self.u(i + 20)),
                span: SpanId(self.u(i + 21)),
            }
        }
        fn status(&self, i: usize) -> FileStatus {
            FileStatus {
                file_id: FileId(self.u(i)),
                path: self.s(i + 1),
                len: self.u(i + 2),
                replication: self.w(i + 3),
                block_size: self.u(i + 4),
                is_dir: self.b(i + 5),
                complete: self.b(i + 6),
            }
        }
        fn telemetry(&self, i: usize) -> DatanodeTelemetry {
            DatanodeTelemetry {
                staging_packets: self.u(i),
                buffered_bytes: self.u(i + 1),
                forward_bytes: self.u(i + 2),
            }
        }
    }

    /// Every `ClientRequest` but the `Idempotent` envelope.
    fn plain_request() -> BoxedStrategy<ClientRequest> {
        use ClientRequest as R;
        prop_oneof![
            pool().prop_map(|p| R::Register {
                host_name: p.s(0),
                rack: p.s(1)
            }),
            pool().prop_map(|p| R::Create {
                client: ClientId(p.u(0)),
                path: p.s(1),
                replication: p.w(2),
                block_size: p.u(3),
                overwrite: p.b(4),
                mode: p.mode(5),
            }),
            pool().prop_map(|p| R::AddBlock {
                client: ClientId(p.u(0)),
                file_id: FileId(p.u(1)),
                previous: p.maybe_block(2),
                excluded: p.dn_ids(6),
            }),
            pool().prop_map(|p| R::CommitBlock {
                client: ClientId(p.u(0)),
                file_id: FileId(p.u(1)),
                block: p.block(2),
            }),
            pool().prop_map(|p| R::Complete {
                client: ClientId(p.u(0)),
                file_id: FileId(p.u(1)),
                last: p.maybe_block(2),
            }),
            pool().prop_map(|p| R::AbandonBlock {
                client: ClientId(p.u(0)),
                file_id: FileId(p.u(1)),
                block: BlockId(p.u(2)),
            }),
            pool().prop_map(|p| R::GetAdditionalDatanodes {
                client: ClientId(p.u(0)),
                block: BlockId(p.u(1)),
                existing: p.dn_ids(2),
                wanted: p.w(7),
            }),
            pool().prop_map(|p| R::BeginBlockRecovery {
                client: ClientId(p.u(0)),
                block: BlockId(p.u(1)),
            }),
            pool().prop_map(|p| R::ReportSpeeds {
                client: ClientId(p.u(0)),
                records: (0..p.n(1))
                    .map(|k| SpeedRecord {
                        datanode: DatanodeId(p.w(2 + k)),
                        bytes_per_sec: p.w(6 + k) as f64 / 8.0,
                        samples: p.w(10 + k),
                    })
                    .collect(),
            }),
            pool().prop_map(|p| R::GetFileInfo { path: p.s(0) }),
            pool().prop_map(|p| R::GetBlockLocations {
                client: ClientId(p.u(0)),
                path: p.s(1),
            }),
            pool().prop_map(|p| R::ReportBadReplica {
                client: ClientId(p.u(0)),
                block: p.block(1),
                datanode: DatanodeId(p.w(4)),
            }),
            pool().prop_map(|p| R::List { path: p.s(0) }),
            pool().prop_map(|p| R::Delete { path: p.s(0) }),
            pool().prop_map(|p| R::Rename {
                src: p.s(0),
                dst: p.s(1)
            }),
            Just(R::GetTelemetry),
        ]
        .boxed()
    }

    fn client_request() -> BoxedStrategy<ClientRequest> {
        let envelope = plain_request().prop_flat_map(|inner| {
            pool().prop_map(move |p| ClientRequest::Idempotent {
                client: ClientId(p.u(0)),
                request_id: p.u(1),
                inner: Box::new(inner.clone()),
            })
        });
        prop_oneof![plain_request(), envelope].boxed()
    }

    fn client_response() -> BoxedStrategy<ClientResponse> {
        use ClientResponse as R;
        prop_oneof![
            pool().prop_map(|p| R::Registered {
                client: ClientId(p.u(0))
            }),
            pool().prop_map(|p| R::Created {
                file_id: FileId(p.u(0))
            }),
            pool().prop_map(|p| R::BlockAllocated(p.located(0))),
            Just(R::Committed),
            Just(R::Completed),
            Just(R::Abandoned),
            pool().prop_map(|p| R::AdditionalDatanodes { targets: p.dns(0) }),
            Just(R::BadReplicaAck),
            pool().prop_map(|p| R::RecoveryStamp {
                new_gen: GenStamp(p.u(0))
            }),
            Just(R::SpeedsAck),
            pool().prop_map(|p| R::FileInfo(p.b(0).then(|| p.status(1)))),
            pool().prop_map(|p| R::BlockLocations {
                blocks: (0..p.n(0)).map(|k| p.located(1 + k)).collect(),
            }),
            pool().prop_map(|p| R::Listing {
                entries: (0..p.n(0)).map(|k| p.status(1 + k)).collect(),
            }),
            pool().prop_map(|p| R::Deleted { existed: p.b(0) }),
            Just(R::Renamed),
            pool().prop_map(|p| R::Telemetry {
                rows: (0..p.n(0))
                    .map(|k| NodeTelemetryRow {
                        id: DatanodeId(p.w(1 + k)),
                        host_name: p.s(2 + k),
                        rack: p.s(3 + k),
                        alive: p.b(4 + k),
                        used: p.u(5 + k),
                        capacity: p.u(6 + k),
                        active_transfers: p.w(7 + k),
                        telemetry: p.telemetry(8 + k),
                        age_ms: p.u(11 + k),
                    })
                    .collect(),
                text: p.s(20),
                series_json: p.s(21),
            }),
            pool().prop_map(|p| R::Error(p.s(0))),
        ]
        .boxed()
    }

    fn datanode_request() -> BoxedStrategy<DatanodeRequest> {
        prop_oneof![
            pool().prop_map(|p| DatanodeRequest::Register {
                host_name: p.s(0),
                rack: p.s(1),
                data_addr: p.s(2),
                capacity: p.u(3),
            }),
            pool().prop_map(|p| DatanodeRequest::Heartbeat {
                id: DatanodeId(p.w(0)),
                used: p.u(1),
                active_transfers: p.w(2),
                telemetry: p.telemetry(3),
            }),
            pool().prop_map(|p| DatanodeRequest::BlockReceived {
                id: DatanodeId(p.w(0)),
                block: p.block(1),
            }),
        ]
        .boxed()
    }

    fn datanode_response() -> BoxedStrategy<DatanodeResponse> {
        prop_oneof![
            pool().prop_map(|p| DatanodeResponse::Registered {
                id: DatanodeId(p.w(0))
            }),
            Just(DatanodeResponse::HeartbeatAck),
            Just(DatanodeResponse::BlockReceivedAck),
            pool().prop_map(|p| DatanodeResponse::Error(p.s(0))),
        ]
        .boxed()
    }

    fn data_op() -> BoxedStrategy<DataOp> {
        prop_oneof![
            pool().prop_map(|p| DataOp::WriteBlock(WriteBlockHeader {
                pipeline: PipelineId(p.u(0)),
                client: ClientId(p.u(1)),
                block: p.block(2),
                mode: p.mode(5),
                targets: p.dns(6),
                position: p.w(22),
                client_buffer: p.u(23),
                trace: TraceId(p.u(24)),
                span: SpanId(p.u(25)),
            })),
            pool().prop_map(|p| DataOp::ReadBlock {
                block: p.block(0),
                offset: p.u(3),
                len: p.u(4),
            }),
            pool().prop_map(|p| DataOp::RecoverBlock {
                block: p.block(0),
                new_gen: GenStamp(p.u(3)),
                new_len: p.u(4),
            }),
            pool().prop_map(|p| DataOp::GetReplicaInfo {
                block: BlockId(p.u(0))
            }),
            Just(DataOp::GetTelemetry),
        ]
        .boxed()
    }

    fn pipeline_ack() -> impl Strategy<Value = PipelineAck> {
        pool().prop_map(|p| PipelineAck {
            kind: if p.b(0) {
                AckKind::FirstNodeFinish
            } else {
                AckKind::Packet
            },
            seq: p.u(1),
            batch: p.u(2),
            statuses: (0..p.u(3) % 9)
                .map(|k| match (p.u(4) >> k) & 1 {
                    0 => AckStatus::Success,
                    _ => AckStatus::Error,
                })
                .collect(),
        })
    }

    fn data_reply() -> BoxedStrategy<DataReply> {
        prop_oneof![
            pool().prop_map(|p| DataReply::ReadOk { len: p.u(0) }),
            pool().prop_map(|p| DataReply::RecoverOk { block: p.block(0) }),
            pool().prop_map(|p| DataReply::ReplicaInfo {
                block: p.maybe_block(0),
                finalized: p.b(4),
            }),
            pool().prop_map(|p| DataReply::Telemetry {
                text: p.s(0),
                series_json: p.s(1),
            }),
            pool().prop_map(|p| DataReply::Error(p.s(0))),
        ]
        .boxed()
    }

    /// Runs every decoder over `b`; none may panic.
    fn decode_all(b: &Bytes) {
        let _ = ClientRequest::from_bytes(b.clone());
        let _ = ClientResponse::from_bytes(b.clone());
        let _ = DatanodeRequest::from_bytes(b.clone());
        let _ = DatanodeResponse::from_bytes(b.clone());
        let _ = DataOp::from_bytes(b.clone());
        let _ = Packet::from_bytes(b.clone());
        let _ = PipelineAck::from_bytes(b.clone());
        let _ = DataReply::from_bytes(b.clone());
    }

    proptest! {
        #[test]
        fn client_request_roundtrip_prop(m in client_request()) {
            roundtrip(m);
        }

        #[test]
        fn client_response_roundtrip_prop(m in client_response()) {
            roundtrip(m);
        }

        #[test]
        fn datanode_request_roundtrip_prop(m in datanode_request()) {
            roundtrip(m);
        }

        #[test]
        fn datanode_response_roundtrip_prop(m in datanode_response()) {
            roundtrip(m);
        }

        #[test]
        fn data_op_roundtrip_prop(m in data_op()) {
            roundtrip(m);
        }

        #[test]
        fn packet_roundtrip_prop(seq in any::<u64>(),
                                 offset in any::<u64>(),
                                 last in any::<bool>(),
                                 sums in collection::vec(any::<u32>(), 0..64),
                                 payload in collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(Packet {
                seq,
                offset_in_block: offset,
                last_in_block: last,
                checksums: sums,
                payload: Bytes::from(payload),
            });
        }

        #[test]
        fn pipeline_ack_roundtrip_prop(m in pipeline_ack()) {
            roundtrip(m);
        }

        #[test]
        fn data_reply_roundtrip_prop(m in data_reply()) {
            roundtrip(m);
        }

        /// Random bytes, and valid frames with one byte overwritten or
        /// cut short, must never panic a decoder.
        #[test]
        fn garbage_never_panics_decoders(raw in collection::vec(any::<u8>(), 0..128),
                                         req in client_request(),
                                         resp in client_response(),
                                         at in any::<usize>(),
                                         byte in any::<u8>()) {
            decode_all(&Bytes::from(raw));
            for frame in [req.to_bytes(), resp.to_bytes()] {
                let cut = at % frame.len();
                let mut flipped = frame.to_vec();
                flipped[cut] = byte;
                decode_all(&Bytes::from(flipped));
                decode_all(&frame.slice(..cut));
            }
        }
    }
}
