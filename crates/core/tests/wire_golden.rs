//! Golden bytes for every protocol message.
//!
//! One hex-pinned sample per variant of every message type, plus one
//! per layout branch (`Option` present/absent, both `WriteMode`s, both
//! `AckKind`s, an `AckStatus::Error`). Any change to a message's wire
//! layout fails here, so a codec refactor that keeps this test green
//! keeps the protocol bit-identical.

use bytes::Bytes;
use smarth_core::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId, SpanId, TraceId,
};
use smarth_core::proto::*;
use smarth_core::wire::Wire;
use smarth_core::WriteMode;

/// Every top-level message type that travels as a frame.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    ClientRequest(ClientRequest),
    ClientResponse(ClientResponse),
    DatanodeRequest(DatanodeRequest),
    DatanodeResponse(DatanodeResponse),
    DataOp(DataOp),
    Packet(Packet),
    PipelineAck(PipelineAck),
    DataReply(DataReply),
}

impl Msg {
    fn to_bytes(&self) -> Bytes {
        match self {
            Msg::ClientRequest(m) => m.to_bytes(),
            Msg::ClientResponse(m) => m.to_bytes(),
            Msg::DatanodeRequest(m) => m.to_bytes(),
            Msg::DatanodeResponse(m) => m.to_bytes(),
            Msg::DataOp(m) => m.to_bytes(),
            Msg::Packet(m) => m.to_bytes(),
            Msg::PipelineAck(m) => m.to_bytes(),
            Msg::DataReply(m) => m.to_bytes(),
        }
    }

    /// Decodes `b` as the same message type as `self`.
    fn decode_like(&self, b: Bytes) -> Msg {
        match self {
            Msg::ClientRequest(_) => Msg::ClientRequest(Wire::from_bytes(b).unwrap()),
            Msg::ClientResponse(_) => Msg::ClientResponse(Wire::from_bytes(b).unwrap()),
            Msg::DatanodeRequest(_) => Msg::DatanodeRequest(Wire::from_bytes(b).unwrap()),
            Msg::DatanodeResponse(_) => Msg::DatanodeResponse(Wire::from_bytes(b).unwrap()),
            Msg::DataOp(_) => Msg::DataOp(Wire::from_bytes(b).unwrap()),
            Msg::Packet(_) => Msg::Packet(Wire::from_bytes(b).unwrap()),
            Msg::PipelineAck(_) => Msg::PipelineAck(Wire::from_bytes(b).unwrap()),
            Msg::DataReply(_) => Msg::DataReply(Wire::from_bytes(b).unwrap()),
        }
    }
}

/// Generates `VARIANTS` and a wildcard-free `variant` match from one
/// list, so a new message variant stops compilation until it is named
/// here, and then fails `every_variant_has_a_golden_sample` until it
/// gets a sample.
macro_rules! variants {
    ($($msg:ident($p:pat)),* $(,)?) => {
        const VARIANTS: &[&str] = &[$(stringify!($p)),*];

        fn variant(m: &Msg) -> &'static str {
            match m {
                $(Msg::$msg($p) => stringify!($p),)*
            }
        }
    };
}

variants! {
    ClientRequest(ClientRequest::Register { .. }),
    ClientRequest(ClientRequest::Create { .. }),
    ClientRequest(ClientRequest::AddBlock { .. }),
    ClientRequest(ClientRequest::CommitBlock { .. }),
    ClientRequest(ClientRequest::Complete { .. }),
    ClientRequest(ClientRequest::AbandonBlock { .. }),
    ClientRequest(ClientRequest::GetAdditionalDatanodes { .. }),
    ClientRequest(ClientRequest::BeginBlockRecovery { .. }),
    ClientRequest(ClientRequest::ReportSpeeds { .. }),
    ClientRequest(ClientRequest::GetFileInfo { .. }),
    ClientRequest(ClientRequest::GetBlockLocations { .. }),
    ClientRequest(ClientRequest::ReportBadReplica { .. }),
    ClientRequest(ClientRequest::List { .. }),
    ClientRequest(ClientRequest::Delete { .. }),
    ClientRequest(ClientRequest::Rename { .. }),
    ClientRequest(ClientRequest::GetTelemetry),
    ClientRequest(ClientRequest::Idempotent { .. }),
    ClientResponse(ClientResponse::Registered { .. }),
    ClientResponse(ClientResponse::Created { .. }),
    ClientResponse(ClientResponse::BlockAllocated(..)),
    ClientResponse(ClientResponse::Committed),
    ClientResponse(ClientResponse::Completed),
    ClientResponse(ClientResponse::Abandoned),
    ClientResponse(ClientResponse::AdditionalDatanodes { .. }),
    ClientResponse(ClientResponse::BadReplicaAck),
    ClientResponse(ClientResponse::RecoveryStamp { .. }),
    ClientResponse(ClientResponse::SpeedsAck),
    ClientResponse(ClientResponse::FileInfo(..)),
    ClientResponse(ClientResponse::BlockLocations { .. }),
    ClientResponse(ClientResponse::Listing { .. }),
    ClientResponse(ClientResponse::Deleted { .. }),
    ClientResponse(ClientResponse::Renamed),
    ClientResponse(ClientResponse::Telemetry { .. }),
    ClientResponse(ClientResponse::Error(..)),
    DatanodeRequest(DatanodeRequest::Register { .. }),
    DatanodeRequest(DatanodeRequest::Heartbeat { .. }),
    DatanodeRequest(DatanodeRequest::BlockReceived { .. }),
    DatanodeResponse(DatanodeResponse::Registered { .. }),
    DatanodeResponse(DatanodeResponse::HeartbeatAck),
    DatanodeResponse(DatanodeResponse::BlockReceivedAck),
    DatanodeResponse(DatanodeResponse::Error(..)),
    DataOp(DataOp::WriteBlock(..)),
    DataOp(DataOp::ReadBlock { .. }),
    DataOp(DataOp::RecoverBlock { .. }),
    DataOp(DataOp::GetReplicaInfo { .. }),
    DataOp(DataOp::GetTelemetry),
    Packet(Packet { .. }),
    PipelineAck(PipelineAck { .. }),
    DataReply(DataReply::ReadOk { .. }),
    DataReply(DataReply::RecoverOk { .. }),
    DataReply(DataReply::ReplicaInfo { .. }),
    DataReply(DataReply::Telemetry { .. }),
    DataReply(DataReply::Error(..)),
}

fn blk() -> ExtendedBlock {
    ExtendedBlock::new(BlockId(0x0102), GenStamp(3), 0x0405)
}

fn dn(i: u32) -> DatanodeInfo {
    DatanodeInfo {
        id: DatanodeId(i),
        host_name: format!("dn{i}"),
        rack: "r1".into(),
        addr: format!("dn{i}:9"),
    }
}

fn status() -> FileStatus {
    FileStatus {
        file_id: FileId(7),
        path: "/a".into(),
        len: 9,
        replication: 3,
        block_size: 1 << 20,
        is_dir: false,
        complete: true,
    }
}

fn located() -> LocatedBlock {
    LocatedBlock {
        block: blk(),
        targets: vec![dn(1), dn(2)],
        trace: TraceId(0x11),
        span: SpanId(0x12),
    }
}

fn telemetry() -> DatanodeTelemetry {
    DatanodeTelemetry {
        staging_packets: 1,
        buffered_bytes: 2,
        forward_bytes: 3,
    }
}

/// `(sample, hex of its encoding)` — the hex was recorded from the
/// hand-written codec and must never change.
fn golden() -> Vec<(Msg, &'static str)> {
    use Msg as M;
    let c = ClientId(0x21);
    let f = FileId(0x22);
    vec![
        (
            M::ClientRequest(ClientRequest::Register {
                host_name: "h".into(),
                rack: "r".into(),
            }),
            "0001000000680100000072",
        ),
        (
            M::ClientRequest(ClientRequest::Create {
                client: c,
                path: "/f".into(),
                replication: 3,
                block_size: 1 << 20,
                overwrite: true,
                mode: WriteMode::Hdfs,
            }),
            "012100000000000000020000002f660300000000001000000000000100",
        ),
        (
            M::ClientRequest(ClientRequest::Create {
                client: c,
                path: "/f".into(),
                replication: 2,
                block_size: 4096,
                overwrite: false,
                mode: WriteMode::Smarth,
            }),
            "012100000000000000020000002f660200000000100000000000000001",
        ),
        (
            M::ClientRequest(ClientRequest::AddBlock {
                client: c,
                file_id: f,
                previous: Some(blk()),
                excluded: vec![DatanodeId(4), DatanodeId(5)],
            }),
            "022100000000000000220000000000000001020100000000000003000000000000000504000000000000020000000400000005000000",
        ),
        (
            M::ClientRequest(ClientRequest::AddBlock {
                client: c,
                file_id: f,
                previous: None,
                excluded: vec![],
            }),
            "02210000000000000022000000000000000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::CommitBlock {
                client: c,
                file_id: f,
                block: blk(),
            }),
            "0321000000000000002200000000000000020100000000000003000000000000000504000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::Complete {
                client: c,
                file_id: f,
                last: Some(blk()),
            }),
            "042100000000000000220000000000000001020100000000000003000000000000000504000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::Complete {
                client: c,
                file_id: f,
                last: None,
            }),
            "042100000000000000220000000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::AbandonBlock {
                client: c,
                file_id: f,
                block: BlockId(0x31),
            }),
            "05210000000000000022000000000000003100000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::GetAdditionalDatanodes {
                client: c,
                block: BlockId(0x31),
                existing: vec![DatanodeId(6)],
                wanted: 2,
            }),
            "0621000000000000003100000000000000010000000600000002000000",
        ),
        (
            M::ClientRequest(ClientRequest::BeginBlockRecovery {
                client: c,
                block: BlockId(0x31),
            }),
            "0721000000000000003100000000000000",
        ),
        (
            M::ClientRequest(ClientRequest::ReportSpeeds {
                client: c,
                records: vec![SpeedRecord {
                    datanode: DatanodeId(8),
                    bytes_per_sec: 1.5e6,
                    samples: 4,
                }],
            }),
            "08210000000000000001000000080000000000000060e3364104000000",
        ),
        (
            M::ClientRequest(ClientRequest::GetFileInfo { path: "/i".into() }),
            "09020000002f69",
        ),
        (
            M::ClientRequest(ClientRequest::GetBlockLocations {
                client: c,
                path: "/l".into(),
            }),
            "0a2100000000000000020000002f6c",
        ),
        (
            M::ClientRequest(ClientRequest::ReportBadReplica {
                client: c,
                block: blk(),
                datanode: DatanodeId(9),
            }),
            "0d210000000000000002010000000000000300000000000000050400000000000009000000",
        ),
        (M::ClientRequest(ClientRequest::List { path: "/".into() }), "0b010000002f"),
        (
            M::ClientRequest(ClientRequest::Delete { path: "/d".into() }),
            "0c020000002f64",
        ),
        (
            M::ClientRequest(ClientRequest::Rename {
                src: "/s".into(),
                dst: "/t".into(),
            }),
            "10020000002f73020000002f74",
        ),
        (M::ClientRequest(ClientRequest::GetTelemetry), "0e"),
        (
            M::ClientRequest(ClientRequest::Idempotent {
                client: c,
                request_id: 0x41,
                inner: Box::new(ClientRequest::CommitBlock {
                    client: c,
                    file_id: f,
                    block: blk(),
                }),
            }),
            "0f210000000000000041000000000000000321000000000000002200000000000000020100000000000003000000000000000504000000000000",
        ),
        (M::ClientResponse(ClientResponse::Registered { client: c }), "002100000000000000"),
        (M::ClientResponse(ClientResponse::Created { file_id: f }), "012200000000000000"),
        (M::ClientResponse(ClientResponse::BlockAllocated(located())), "02020100000000000003000000000000000504000000000000020000000100000003000000646e3102000000723105000000646e313a390200000003000000646e3202000000723105000000646e323a3911000000000000001200000000000000"),
        (M::ClientResponse(ClientResponse::Committed), "03"),
        (M::ClientResponse(ClientResponse::Completed), "04"),
        (M::ClientResponse(ClientResponse::Abandoned), "05"),
        (
            M::ClientResponse(ClientResponse::AdditionalDatanodes {
                targets: vec![dn(3)],
            }),
            "06010000000300000003000000646e3302000000723105000000646e333a39",
        ),
        (M::ClientResponse(ClientResponse::BadReplicaAck), "0d"),
        (
            M::ClientResponse(ClientResponse::RecoveryStamp {
                new_gen: GenStamp(4),
            }),
            "070400000000000000",
        ),
        (M::ClientResponse(ClientResponse::SpeedsAck), "08"),
        (M::ClientResponse(ClientResponse::FileInfo(Some(status()))), "09010700000000000000020000002f6109000000000000000300000000001000000000000001"),
        (M::ClientResponse(ClientResponse::FileInfo(None)), "0900"),
        (
            M::ClientResponse(ClientResponse::BlockLocations {
                blocks: vec![located(), LocatedBlock::untraced(blk(), vec![])],
            }),
            "0a02000000020100000000000003000000000000000504000000000000020000000100000003000000646e3102000000723105000000646e313a390200000003000000646e3202000000723105000000646e323a391100000000000000120000000000000002010000000000000300000000000000050400000000000000000000ffffffffffffffffffffffffffffffff",
        ),
        (
            M::ClientResponse(ClientResponse::Listing {
                entries: vec![status()],
            }),
            "0b010000000700000000000000020000002f6109000000000000000300000000001000000000000001",
        ),
        (
            M::ClientResponse(ClientResponse::Deleted { existed: true }),
            "0c01",
        ),
        (M::ClientResponse(ClientResponse::Renamed), "0f"),
        (
            M::ClientResponse(ClientResponse::Telemetry {
                rows: vec![NodeTelemetryRow {
                    id: DatanodeId(2),
                    host_name: "dn2".into(),
                    rack: "r1".into(),
                    alive: true,
                    used: 5,
                    capacity: 6,
                    active_transfers: 7,
                    telemetry: telemetry(),
                    age_ms: 8,
                }],
                text: "t".into(),
                series_json: "[]".into(),
            }),
            "0e010000000200000003000000646e3202000000723101050000000000000006000000000000000700000001000000000000000200000000000000030000000000000008000000000000000100000074020000005b5d",
        ),
        (M::ClientResponse(ClientResponse::Error("e".into())), "ff0100000065"),
        (
            M::DatanodeRequest(DatanodeRequest::Register {
                host_name: "dn1".into(),
                rack: "r1".into(),
                data_addr: "dn1:9".into(),
                capacity: 1 << 30,
            }),
            "0003000000646e3102000000723105000000646e313a390000004000000000",
        ),
        (
            M::DatanodeRequest(DatanodeRequest::Heartbeat {
                id: DatanodeId(1),
                used: 10,
                active_transfers: 2,
                telemetry: telemetry(),
            }),
            "01010000000a0000000000000002000000010000000000000002000000000000000300000000000000",
        ),
        (
            M::DatanodeRequest(DatanodeRequest::BlockReceived {
                id: DatanodeId(1),
                block: blk(),
            }),
            "0201000000020100000000000003000000000000000504000000000000",
        ),
        (
            M::DatanodeResponse(DatanodeResponse::Registered { id: DatanodeId(1) }),
            "0001000000",
        ),
        (M::DatanodeResponse(DatanodeResponse::HeartbeatAck), "01"),
        (M::DatanodeResponse(DatanodeResponse::BlockReceivedAck), "02"),
        (M::DatanodeResponse(DatanodeResponse::Error("x".into())), "ff0100000078"),
        (
            M::DataOp(DataOp::WriteBlock(WriteBlockHeader {
                pipeline: PipelineId(0x51),
                client: c,
                block: blk(),
                mode: WriteMode::Smarth,
                targets: vec![dn(2)],
                position: 1,
                client_buffer: 1 << 16,
                trace: TraceId(0x11),
                span: SpanId(0x12),
            })),
            "005100000000000000210000000000000002010000000000000300000000000000050400000000000001010000000200000003000000646e3202000000723105000000646e323a3901000000000001000000000011000000000000001200000000000000",
        ),
        (
            M::DataOp(DataOp::ReadBlock {
                block: blk(),
                offset: 512,
                len: 1024,
            }),
            "0102010000000000000300000000000000050400000000000000020000000000000004000000000000",
        ),
        (
            M::DataOp(DataOp::RecoverBlock {
                block: blk(),
                new_gen: GenStamp(4),
                new_len: 256,
            }),
            "0202010000000000000300000000000000050400000000000004000000000000000001000000000000",
        ),
        (
            M::DataOp(DataOp::GetReplicaInfo {
                block: BlockId(0x31),
            }),
            "033100000000000000",
        ),
        (M::DataOp(DataOp::GetTelemetry), "04"),
        (
            M::Packet(Packet {
                seq: 3,
                offset_in_block: 0x200,
                last_in_block: true,
                checksums: vec![0xdeadbeef, 1],
                payload: Bytes::from_static(b"data"),
            }),
            "030000000000000000020000000000000102000000efbeadde010000000400000064617461",
        ),
        (
            M::PipelineAck(PipelineAck {
                kind: AckKind::Packet,
                seq: 3,
                batch: 2,
                statuses: vec![AckStatus::Success, AckStatus::Error],
            }),
            "0003000000000000000200000000000000020000000001",
        ),
        (
            M::PipelineAck(PipelineAck {
                kind: AckKind::FirstNodeFinish,
                seq: 9,
                batch: 1,
                statuses: vec![AckStatus::Success],
            }),
            "01090000000000000001000000000000000100000000",
        ),
        (M::DataReply(DataReply::ReadOk { len: 4096 }), "000010000000000000"),
        (M::DataReply(DataReply::RecoverOk { block: blk() }), "01020100000000000003000000000000000504000000000000"),
        (
            M::DataReply(DataReply::ReplicaInfo {
                block: Some(blk()),
                finalized: true,
            }),
            "020102010000000000000300000000000000050400000000000001",
        ),
        (
            M::DataReply(DataReply::ReplicaInfo {
                block: None,
                finalized: false,
            }),
            "020000",
        ),
        (
            M::DataReply(DataReply::Telemetry {
                text: "t".into(),
                series_json: "[]".into(),
            }),
            "030100000074020000005b5d",
        ),
        (M::DataReply(DataReply::Error("e".into())), "ff0100000065"),
    ]
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_message_encodes_to_its_golden_bytes() {
    let mismatches: Vec<String> = golden()
        .iter()
        .filter(|(msg, want)| hex(&msg.to_bytes()) != *want)
        .map(|(msg, want)| {
            format!(
                "{}\n  want {want}\n  got  {}",
                variant(msg),
                hex(&msg.to_bytes())
            )
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn every_golden_frame_decodes_to_its_sample() {
    for (msg, bytes) in golden() {
        let decoded = msg.decode_like(Bytes::from(unhex(bytes)));
        assert_eq!(decoded, msg, "{}", variant(&msg));
    }
}

#[test]
fn every_variant_has_a_golden_sample() {
    let samples = golden();
    for name in VARIANTS {
        assert!(
            samples.iter().any(|(m, _)| variant(m) == *name),
            "no golden sample for {name}"
        );
    }
}
