//! Closed-loop execution of generated ops against one client, with the
//! benchmark's own timing: one sample per op, and, when tracing, one
//! span per call into a layer's public functions. Nothing here reaches
//! inside the crates; a layer's time is the time of its public calls.

use crate::gen::{FileSpec, Op};
use smarth_client::{DfsClient, StreamStats};
use smarth_core::config::WriteMode;
use smarth_core::error::DfsResult;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Application write size: a `put` hands the stream this much at a time.
const WRITE_CHUNK: usize = 256 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Pread,
    /// `file_info`, `list` and `delete`.
    Meta,
}

/// The measured phase, or the verify pass that follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Measured,
    Verify,
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    pub phase: Phase,
    pub dur: Duration,
    pub bytes: u64,
}

/// One timed call. Top-level spans are whole ops; their children are
/// the layer calls the op made, one after another on the same thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An op in progress: its id, its top-level span slot and start time.
pub struct OpScope {
    op: u64,
    span: Option<usize>,
    start: Instant,
}

/// One client's closed loop: executes ops, checks every result against
/// the generated inputs, and records samples and (optionally) spans.
pub struct Session<'a> {
    client: &'a DfsClient,
    epoch: Instant,
    trace: bool,
    next_op: u64,
    pub phase: Phase,
    /// Put payload buffer, reused so the benchmark's own allocations
    /// stay out of the process's peak memory.
    payload: Vec<u8>,
    /// Files this session expects to exist, by path.
    pub live: BTreeMap<String, FileSpec>,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub streams: Vec<StreamStats>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl<'a> Session<'a> {
    pub fn new(client: &'a DfsClient, index: usize, epoch: Instant, trace: bool) -> Self {
        Session {
            client,
            epoch,
            trace,
            next_op: (index as u64) << 48,
            phase: Phase::Measured,
            payload: Vec::new(),
            live: BTreeMap::new(),
            samples: Vec::new(),
            spans: Vec::new(),
            streams: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> OpScope {
        self.next_op += 1;
        let start = Instant::now();
        let span = self.trace.then(|| {
            let at = self.now_ns();
            self.spans.push(Span {
                op: self.next_op,
                parent: None,
                name,
                phase: self.phase,
                start_ns: at,
                end_ns: at,
            });
            self.spans.len() - 1
        });
        OpScope {
            op: self.next_op,
            span,
            start,
        }
    }

    /// Runs `f` as a child span of `scope`.
    fn child<T>(&mut self, scope: &OpScope, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(parent) = scope.span else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op: scope.op,
            parent: Some(parent),
            name,
            phase: self.phase,
            start_ns,
            end_ns,
        });
        out
    }

    fn end(&mut self, scope: OpScope, kind: Kind, bytes: u64) {
        let dur = scope.start.elapsed();
        if let Some(i) = scope.span {
            self.spans[i].end_ns = self.now_ns();
        }
        self.samples.push(Sample {
            kind,
            phase: self.phase,
            dur,
            bytes,
        });
    }

    /// Executes one op and checks its outcome; a failed call or a wrong
    /// result counts as failed.
    pub fn exec(&mut self, op: &Op) {
        self.attempted += 1;
        if let Err(why) = self.try_exec(op) {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{op:?}: {why}"));
            }
        }
    }

    fn try_exec(&mut self, op: &Op) -> Result<(), String> {
        let client = self.client;
        match op {
            Op::Put(f) => {
                let mut data = std::mem::take(&mut self.payload);
                f.bytes_into(0, f.size, &mut data);
                let scope = self.begin("put");
                let res = (|| -> DfsResult<StreamStats> {
                    let mut out = self.child(&scope, "namenode.create", || {
                        client.create(&f.path, WriteMode::Smarth)
                    })?;
                    for chunk in data.chunks(WRITE_CHUNK) {
                        self.child(&scope, "ostream.write", || out.write(chunk))?;
                    }
                    self.child(&scope, "ostream.close", || out.close())
                })();
                self.end(scope, Kind::Put, f.size);
                self.payload = data;
                let stats = res.map_err(|e| e.to_string())?;
                if stats.bytes_written != f.size {
                    return Err(format!("stream wrote {} bytes", stats.bytes_written));
                }
                self.streams.push(stats);
                self.live.insert(f.path.clone(), f.clone());
                Ok(())
            }
            Op::Stat(path) => {
                let scope = self.begin("namenode.stat");
                let res = client.file_info(path);
                self.end(scope, Kind::Meta, 0);
                let st = res.map_err(|e| e.to_string())?.ok_or("no such file")?;
                let want = self.expected(path)?.size;
                if st.len != want || !st.complete {
                    return Err(format!(
                        "len {} complete {}, want {want}",
                        st.len, st.complete
                    ));
                }
                Ok(())
            }
            Op::Get(path) => {
                let scope = self.begin("get");
                let res = (|| -> DfsResult<Vec<u8>> {
                    let input = self.child(&scope, "namenode.locate", || client.open(path))?;
                    self.child(&scope, "istream.read_all", || input.read_all())
                })();
                let got = res.map_err(|e| e.to_string());
                self.end(scope, Kind::Get, got.as_ref().map_or(0, |d| d.len() as u64));
                let got = got?;
                let f = self.expected(path)?;
                if got.len() as u64 != f.size || !f.matches(0, &got) {
                    return Err(format!(
                        "read {} bytes that differ from the payload",
                        got.len()
                    ));
                }
                Ok(())
            }
            Op::Pread { path, offset, len } => {
                let scope = self.begin("pread");
                let res = (|| -> DfsResult<Vec<u8>> {
                    let input = self.child(&scope, "namenode.locate", || client.open(path))?;
                    self.child(&scope, "istream.read_range", || {
                        input.read_range(*offset, *len)
                    })
                })();
                let got = res.map_err(|e| e.to_string());
                self.end(
                    scope,
                    Kind::Pread,
                    got.as_ref().map_or(0, |d| d.len() as u64),
                );
                let got = got?;
                if got.len() as u64 != *len || !self.expected(path)?.matches(*offset, &got) {
                    return Err(format!("range read {} bytes that differ", got.len()));
                }
                Ok(())
            }
            Op::List(dir) => {
                let scope = self.begin("namenode.list");
                let res = client.list(dir);
                self.end(scope, Kind::Meta, 0);
                let listed: BTreeMap<String, u64> = res
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .filter(|st| !st.is_dir)
                    .map(|st| (st.path, st.len))
                    .collect();
                let prefix = format!("{dir}/");
                let want: BTreeMap<String, u64> = self
                    .live
                    .range(prefix.clone()..)
                    .take_while(|(p, _)| p.starts_with(&prefix))
                    .map(|(p, f)| (p.clone(), f.size))
                    .collect();
                if listed != want {
                    return Err(format!(
                        "listed {} files, want {}",
                        listed.len(),
                        want.len()
                    ));
                }
                Ok(())
            }
            Op::Delete(path) => {
                let scope = self.begin("namenode.delete");
                let res = client.delete(path);
                self.end(scope, Kind::Meta, 0);
                if !res.map_err(|e| e.to_string())? {
                    return Err("delete found no file".into());
                }
                self.live
                    .remove(path)
                    .ok_or("deleted a file never written")?;
                Ok(())
            }
        }
    }

    fn expected(&self, path: &str) -> Result<FileSpec, String> {
        self.live
            .get(path)
            .cloned()
            .ok_or_else(|| format!("{path} is not a live file"))
    }
}
