//! The repository benchmark. Runs one workload on an emulated SMARTH
//! cluster through the public API of the client, namenode, datanode,
//! fabric and cluster crates, verifies every byte it reads back, and
//! prints its metrics; the last line of stdout is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write_shaped --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` splits the time into an untraced and a traced half and
//! prints the per-layer metrics of the traced half. See `README.md`.

mod gen;
mod layers;
mod rec;
mod stats;
mod workload;

use gen::{ClientPlan, FileSpec, Op, VerifyPlan};
use rec::{Kind, Phase, Sample, Session};
use smarth_client::{DfsClient, StreamStats};
use smarth_core::config::WriteMode;
use smarth_core::obs::{Obs, RingBufferSink};
use stats::{median, quantile, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use workload::{Cluster, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Speed-registry warm-up file each client writes during set-up.
const WARM_FILE: u64 = 2 << 20;
/// Calls of the verify pass: `file_info` of every written file, cycled
/// to at least this many calls so their p95 is steady, then whole-file
/// and ranged read-backs of a seeded sample.
const VERIFY_STATS: usize = 1000;
const VERIFY_GETS: usize = 16;
const VERIFY_PREADS: usize = 200;
/// Read-backs continue past their minimum count until this much time has
/// passed, up to four times the minimum. The write workloads take their
/// read metrics from these calls, and a short window is easily caught
/// whole by a burst of host CPU contention.
const VERIFY_READ_TIME: Duration = Duration::from_secs(2);
/// Event capacity of the traced half's ring buffer.
const RING_CAPACITY: usize = 4_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload; known: {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown argument {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A started cluster with warmed clients.
struct Ready {
    cluster: Cluster,
    clients: Vec<DfsClient>,
    obs: Obs,
    /// Files written during set-up (warm-up and working set).
    preload: BTreeMap<String, FileSpec>,
    setup: Duration,
}

impl Ready {
    fn shutdown(self) {
        drop(self.clients);
        self.cluster.shutdown();
    }
}

fn put_file(client: &DfsClient, f: &FileSpec) -> Result<(), String> {
    client
        .put(&f.path, &f.bytes(0, f.size), WriteMode::Smarth)
        .map_err(|e| format!("set-up put {}: {e}", f.path))?;
    Ok(())
}

/// Starts the cluster, connects the clients, warms the speed registry
/// and writes the working set; the time of all of it is `setup_s`.
fn setup(w: Workload, seed: u64, obs: Obs) -> Result<Ready, String> {
    let start = Instant::now();
    let cluster = w
        .regime()
        .start(seed, obs.clone())
        .map_err(|e| e.to_string())?;
    let clients = (0..w.clients())
        .map(|i| cluster.client(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut preload = BTreeMap::new();
    let mut files: Vec<(usize, FileSpec)> = (0..clients.len())
        .map(|i| {
            let f = FileSpec {
                path: format!("/warm/c{i}"),
                size: WARM_FILE,
                content: seed ^ (i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D),
            };
            (i, f)
        })
        .collect();
    if w == Workload::ReadMix {
        files.extend(gen::working_set(seed).into_iter().map(|f| (0, f)));
    }
    for (i, f) in files {
        put_file(&clients[i], &f)?;
        preload.insert(f.path.clone(), f);
    }
    for c in &clients {
        c.flush_speed_report().map_err(|e| e.to_string())?;
    }
    if w == Workload::SmallFiles {
        let nn = cluster.namenode_state();
        if nn.shard_of(&gen::volume(w, 0)) == nn.shard_of(&gen::volume(w, 1)) {
            return Err("small_files volumes share a namenode shard".into());
        }
    }
    Ok(Ready {
        cluster,
        clients,
        obs,
        preload,
        setup: start.elapsed(),
    })
}

/// Everything one measured phase plus its verify pass produced.
struct Outcome {
    samples: Vec<Sample>,
    spans: Vec<rec::Span>,
    streams: Vec<StreamStats>,
    wall: Duration,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    live_bytes: u64,
    stored_bytes: u64,
    handler_panics: u64,
}

impl Outcome {
    /// Samples of one kind: from the measured phase when the workload's
    /// loop makes that call, else from the verify pass.
    fn pick(&self, kind: Kind) -> Vec<&Sample> {
        let of = |phase| -> Vec<&Sample> {
            self.samples
                .iter()
                .filter(|s| s.kind == kind && s.phase == phase)
                .collect()
        };
        let measured = of(Phase::Measured);
        if measured.is_empty() {
            of(Phase::Verify)
        } else {
            measured
        }
    }

    fn put_bytes(&self) -> u64 {
        let puts = self
            .samples
            .iter()
            .filter(|s| s.kind == Kind::Put && s.phase == Phase::Measured);
        puts.map(|s| s.bytes).sum()
    }

    fn puts(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.kind == Kind::Put && s.phase == Phase::Measured)
            .count()
    }

    fn write_mbps(&self) -> f64 {
        self.put_bytes() as f64 * 8.0 / 1e6 / self.wall.as_secs_f64()
    }

    fn files_per_s(&self) -> f64 {
        self.puts() as f64 / self.wall.as_secs_f64()
    }

    /// Whole-file get bytes over the time spent inside those gets.
    fn read_mbps(&self) -> (f64, usize) {
        let gets = self.pick(Kind::Get);
        let bytes: u64 = gets.iter().map(|s| s.bytes).sum();
        let secs: f64 = gets.iter().map(|s| s.dur.as_secs_f64()).sum();
        (bytes as f64 * 8.0 / 1e6 / secs, gets.len())
    }

    fn millis(&self, kind: Kind) -> Vec<f64> {
        self.pick(kind)
            .iter()
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    fn max_pipelines(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.max_concurrent_pipelines)
            .max()
            .unwrap_or(0)
    }

    /// The number a workload is judged by first; the trace overhead is
    /// the traced over the untraced value of it.
    fn headline(&self, w: Workload) -> f64 {
        match w {
            Workload::WriteShaped | Workload::WriteUnshaped => self.write_mbps(),
            Workload::SmallFiles => self.files_per_s(),
            Workload::ReadMix => self.read_mbps().0,
        }
    }
}

/// Runs the closed loops for `secs`, then the verify pass.
fn measure(w: Workload, seed: u64, ready: &Ready, secs: f64, trace: bool) -> Outcome {
    let epoch = Instant::now();
    let barrier = Barrier::new(ready.clients.len());
    let runs: Vec<(Session, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut session = Session::new(client, i, epoch, trace);
                    session.live = ready.preload.clone();
                    let mut plan = ClientPlan::new(w, seed, i);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(secs);
                    while Instant::now() < deadline {
                        for op in plan.next_iteration() {
                            session.exec(&op);
                        }
                    }
                    (session, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = runs.iter().map(|r| r.1).min().expect("at least one client");
    let end = runs.iter().map(|r| r.2).max().expect("at least one client");
    let sessions: Vec<Session> = runs.into_iter().map(|r| r.0).collect();

    // Verify pass: list every volume against the files the clients hold
    // live, check the length of every file the loops wrote, and read
    // back a seeded sample of them.
    let mut v = Session::new(&ready.clients[0], ready.clients.len(), epoch, trace);
    v.phase = Phase::Verify;
    for s in &sessions {
        v.live
            .extend(s.live.iter().map(|(p, f)| (p.clone(), f.clone())));
    }
    let volumes: BTreeSet<String> = v
        .live
        .keys()
        .map(|p| p[..p.rfind('/').expect("absolute path")].to_string())
        .collect();
    for vol in &volumes {
        v.exec(&Op::List(vol.clone()));
    }
    let written: Vec<FileSpec> = v
        .live
        .values()
        .filter(|f| !ready.preload.contains_key(&f.path))
        .cloned()
        .collect();
    for f in written.iter().cycle().take(written.len().max(VERIFY_STATS)) {
        v.exec(&Op::Stat(f.path.clone()));
    }
    if !written.is_empty() {
        let mut plan = VerifyPlan::new(w, seed);
        repeat_for_read_time(VERIFY_GETS, || {
            v.exec(&Op::Get(written[plan.pick(written.len())].path.clone()));
        });
        repeat_for_read_time(VERIFY_PREADS, || {
            let f = &written[plan.pick(written.len())];
            let (offset, len) = plan.range(f.size);
            v.exec(&Op::Pread {
                path: f.path.clone(),
                offset,
                len,
            });
        });
    }
    // Live bytes as `list` reported them: the verify pass failed unless
    // every listing matched the live files exactly.
    let live_bytes = v.live.values().map(|f| f.size).sum();

    let mut out = Outcome {
        samples: Vec::new(),
        spans: Vec::new(),
        streams: Vec::new(),
        wall: end - start,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        live_bytes,
        stored_bytes: ready.cluster.stored_bytes(),
        handler_panics: ready.obs.metrics().handler_panics.get(),
    };
    for s in sessions.into_iter().chain([v]) {
        out.samples.extend(s.samples);
        // Parent links index the session's own spans; rebase them.
        let base = out.spans.len();
        out.spans.extend(s.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        out.streams.extend(s.streams);
        out.attempted += s.attempted;
        out.failed += s.failed;
        out.errors.extend(s.errors);
    }
    out
}

/// Calls `op` at least `min` times, then again until [`VERIFY_READ_TIME`]
/// has passed since the first call, at most `4 * min` times in all.
fn repeat_for_read_time(min: usize, mut op: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    while n < min || (n < 4 * min && started.elapsed() < VERIFY_READ_TIME) {
        op();
        n += 1;
    }
}

/// Peak resident set of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Checks every run must pass; each failure is one line.
fn check(w: Workload, out: &Outcome, problems: &mut Vec<String>) {
    if out.failed > 0 {
        problems.push(format!(
            "{} of {} ops failed: {:?}",
            out.failed, out.attempted, out.errors
        ));
    }
    if out.handler_panics > 0 {
        problems.push(format!("handler_panics = {}", out.handler_panics));
    }
    if out.puts() == 0 {
        problems.push("no put completed in the measured phase".into());
    }
    if w == Workload::WriteShaped && out.max_pipelines() < 2 {
        problems.push(format!(
            "regime guard: write_shaped reached {} concurrent pipeline(s), needs >= 2",
            out.max_pipelines()
        ));
    }
}

/// The end-to-end metrics, and the p95 tails: printed with their sample
/// counts but left out of the result line, since on a shared 2-core VM
/// their run-to-run spread is wider than any useful bound.
fn end_to_end(out: &Outcome, setups: &[f64]) -> (Table, Table) {
    let (mut t, mut tails) = (Table::default(), Table::default());
    t.add("setup_s", median(setups).unwrap_or(0.0), "s", setups.len());
    t.add("write_mbps", out.write_mbps(), "Mbps", out.puts());
    let (read_mbps, gets) = out.read_mbps();
    t.add("read_mbps", read_mbps, "Mbps", gets);
    t.add("files_per_s", out.files_per_s(), "1/s", out.puts());
    for (name, kind) in [
        ("put", Kind::Put),
        ("get", Kind::Get),
        ("pread", Kind::Pread),
        ("meta", Kind::Meta),
    ] {
        let ms = out.millis(kind);
        let q = |q| quantile(&ms, q).unwrap_or(0.0);
        t.add(&format!("{name}_p50_ms"), q(0.5), "ms", ms.len());
        tails.add(&format!("{name}_p95_ms"), q(0.95), "ms", ms.len());
    }
    t.add(
        "space_amp",
        out.stored_bytes as f64 / out.live_bytes as f64,
        "ratio",
        1,
    );
    let net = peak_rss_bytes().saturating_sub(out.stored_bytes);
    t.add("peak_rss_net_mib", net as f64 / (1 << 20) as f64, "MiB", 1);
    (t, tails)
}

struct Report {
    table: Table,
    /// Printed, not part of the result line.
    tails: Table,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        let r = setup(w, args.seed, Obs::disabled())?;
        setups.push(r.setup.as_secs_f64());
        if i + 1 < SETUPS {
            r.shutdown();
        } else {
            ready = Some(r);
        }
    }
    let ready = ready.expect("at least one set-up");
    let out = measure(w, args.seed, &ready, args.seconds, false);
    let mut problems = Vec::new();
    check(w, &out, &mut problems);
    let (table, tails) = end_to_end(&out, &setups);
    println!(
        "measured {:.3} s, {} puts, max concurrent pipelines {}, op_fail_ratio {} ({}/{}), \
         handler_panics {}, stored {} B over {} B live",
        out.wall.as_secs_f64(),
        out.puts(),
        out.max_pipelines(),
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.handler_panics,
        out.stored_bytes,
        out.live_bytes,
    );
    ready.shutdown();
    Ok(Report {
        table,
        tails,
        attempted: out.attempted,
        failed: out.failed,
        problems,
    })
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let mut problems = Vec::new();

    let plain = setup(w, args.seed, Obs::disabled())?;
    let untraced = measure(w, args.seed, &plain, half, false);
    plain.shutdown();
    check(w, &untraced, &mut problems);

    let sink = RingBufferSink::new(RING_CAPACITY);
    let traced_ready = setup(w, args.seed, Obs::new(sink.clone()))?;
    sink.clear();
    let traced = measure(w, args.seed, &traced_ready, half, true);
    check(w, &traced, &mut problems);
    let records = sink.snapshot();
    let dropped = sink.dropped();
    if dropped > 0 {
        problems.push(format!(
            "trace.dropped_events = {dropped}; the traced run does not count"
        ));
    }

    let overhead = traced.headline(w) / untraced.headline(w);
    let mut table = Table::default();
    let input = layers::Input {
        spans: &traced.spans,
        streams: &traced.streams,
        metrics: traced_ready.obs.metrics(),
        records: &records,
        stored_bytes: traced.stored_bytes,
        overhead_ratio: overhead,
        dropped_events: dropped,
    };
    if let Err(e) = layers::per_layer(&input, &mut table) {
        problems.push(e);
    }
    let path = write_spans(w, args.seed, &traced.spans);
    println!("spans written to {path}");
    traced_ready.shutdown();
    Ok(Report {
        table,
        tails: Table::default(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        problems,
    })
}

/// Writes the traced half's spans as JSON lines under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, spans: &[rec::Span]) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let mut text = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or("null".to_string(), |p| spans[p].op.to_string());
        text.push_str(&format!(
            "{{\"op\": {}, \"name\": \"{}\", \"parent_op\": {}, \"phase\": \"{:?}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.op, s.name, parent, s.phase, s.start_ns, s.end_ns
        ));
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "workload={} seed={} seconds={} trace={} clients={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("{}", w.regime().describe());
    println!("input_digest={}", gen::digest(w, args.seed));
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    report.table.print();
    if !report.tails.0.is_empty() {
        println!("  tails, not in the result line:");
        report.tails.print();
    }
    for p in &report.problems {
        println!("FAIL: {p}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        report.table.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
