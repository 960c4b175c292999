//! Seeded input generation. Every path, size, offset, payload byte and
//! the delete and list schedule come from the `--seed` argument through
//! these functions; the cluster only ever sees what they produce.

use crate::workload::Workload;
use std::fmt::Write as _;

/// SplitMix64: tiny, fast, and good enough to make inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream seed of one client (or of the verify pass, `stream = 255`).
fn stream_seed(seed: u64, workload: Workload, stream: u64) -> u64 {
    mix(seed ^ mix(workload as u64 + 1) ^ mix(stream.wrapping_add(0x5EED)))
}

/// A file the benchmark writes: its path, length and content key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    pub path: String,
    pub size: u64,
    pub content: u64,
}

impl FileSpec {
    /// Calls `f` with consecutive pieces of the payload range starting at
    /// `offset`, `len` bytes in all. Counter mode: every 8-byte word is a
    /// hash of its index, so any range is generated (and verified)
    /// without generating the rest of the file. Stops early when `f`
    /// returns false; returns whether it never did.
    fn pieces(&self, offset: u64, len: u64, mut f: impl FnMut(&[u8]) -> bool) -> bool {
        let (mut pos, end) = (offset, offset + len);
        while pos < end {
            let word = mix(self.content ^ (pos / 8).wrapping_mul(GOLDEN)).to_le_bytes();
            let from = (pos % 8) as usize;
            let take = (8 - from).min((end - pos) as usize);
            if !f(&word[from..from + take]) {
                return false;
            }
            pos += take as u64;
        }
        true
    }

    /// Replaces the contents of `out` with the payload bytes
    /// `[offset, offset + len)`.
    pub fn bytes_into(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(len as usize);
        self.pieces(offset, len, |p| {
            out.extend_from_slice(p);
            true
        });
    }

    pub fn bytes(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.bytes_into(offset, len, &mut out);
        out
    }

    /// Whether `got` is exactly the payload range starting at `offset`,
    /// compared without materialising the expected bytes.
    pub fn matches(&self, offset: u64, got: &[u8]) -> bool {
        if offset + got.len() as u64 > self.size {
            return false;
        }
        let mut rest = got;
        self.pieces(offset, got.len() as u64, |p| {
            let (head, tail) = rest.split_at(p.len());
            rest = tail;
            head == p
        })
    }
}

/// One call into the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Put(FileSpec),
    /// `file_info` of a written file; checks its length.
    Stat(String),
    Get(String),
    Pread {
        path: String,
        offset: u64,
        len: u64,
    },
    /// Lists a volume; checks it against the files the client holds live.
    List(String),
    Delete(String),
}

pub const BULK_FILE: u64 = 8 << 20;
pub const SMALL_MIN: u64 = 1 << 10;
pub const SMALL_MAX: u64 = 64 << 10;
pub const WORKING_SET_FILES: usize = 16;
pub const WORKING_SET_FILE: u64 = 2 << 20;
pub const MIX_WRITE_FILE: u64 = 1 << 20;
pub const PREAD_LEN: u64 = 64 << 10;
/// `read_mix` ranged reads per whole-file read.
pub const PREADS_PER_GET: usize = 3;
/// A `small_files` client lists its volume every this many iterations.
pub const LIST_EVERY: u64 = 16;

/// The volume client `c` of a workload writes its measured files into.
pub fn volume(workload: Workload, client: usize) -> String {
    match workload {
        Workload::WriteShaped | Workload::WriteUnshaped => "/bulk".into(),
        Workload::SmallFiles => format!("/vol{client}"),
        Workload::ReadMix => "/mix".into(),
    }
}

/// The `read_mix` working set, written during set-up.
pub fn working_set(seed: u64) -> Vec<FileSpec> {
    let mut rng = Rng::new(stream_seed(seed, Workload::ReadMix, 254));
    (0..WORKING_SET_FILES)
        .map(|k| FileSpec {
            path: format!("/ws/f{k:02}"),
            size: WORKING_SET_FILE,
            content: rng.next_u64(),
        })
        .collect()
}

/// The op stream of one closed-loop client: an endless, seed-determined
/// sequence of iterations, of which a run consumes as many as fit in
/// its measured time.
pub struct ClientPlan {
    workload: Workload,
    client: usize,
    rng: Rng,
    iteration: u64,
    working_set: Vec<FileSpec>,
}

impl ClientPlan {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        ClientPlan {
            workload,
            client,
            rng: Rng::new(stream_seed(seed, workload, client as u64)),
            iteration: 0,
            working_set: working_set(seed),
        }
    }

    /// The ops of the next iteration, in order.
    pub fn next_iteration(&mut self) -> Vec<Op> {
        let i = self.iteration;
        self.iteration += 1;
        let vol = volume(self.workload, self.client);
        let file = |size: u64, content: u64| FileSpec {
            path: format!("{vol}/f{i:06}"),
            size,
            content,
        };
        match (self.workload, self.client) {
            (Workload::WriteShaped | Workload::WriteUnshaped, _) => {
                vec![Op::Put(file(BULK_FILE, self.rng.next_u64()))]
            }
            (Workload::SmallFiles, _) => {
                // Log-uniform in [SMALL_MIN, SMALL_MAX].
                let span = (SMALL_MAX as f64 / SMALL_MIN as f64).ln();
                let size = ((SMALL_MIN as f64) * (self.rng.unit() * span).exp()) as u64;
                let f = file(size.clamp(SMALL_MIN, SMALL_MAX), self.rng.next_u64());
                let path = f.path.clone();
                let mut ops = vec![Op::Put(f), Op::Stat(path.clone()), Op::Get(path.clone())];
                if i % 2 == 1 {
                    ops.push(Op::Delete(path));
                }
                if i % LIST_EVERY == LIST_EVERY - 1 {
                    ops.push(Op::List(vol));
                }
                ops
            }
            // Client 0 of read_mix reads the working set: one whole file,
            // then ranges at seeded offsets.
            (Workload::ReadMix, 0) => {
                let n = self.working_set.len() as u64;
                let whole = self.working_set[self.rng.below(n) as usize].path.clone();
                let mut ops = vec![Op::Get(whole)];
                for _ in 0..PREADS_PER_GET {
                    let ranged = self.working_set[self.rng.below(n) as usize].path.clone();
                    ops.push(Op::Pread {
                        path: ranged,
                        offset: self.rng.below(WORKING_SET_FILE - PREAD_LEN + 1),
                        len: PREAD_LEN,
                    });
                }
                ops
            }
            (Workload::ReadMix, _) => vec![Op::Put(file(MIX_WRITE_FILE, self.rng.next_u64()))],
        }
    }
}

/// Seeded choices of the verify pass that follows the measured phase:
/// which live files it reads back and at which offsets.
pub struct VerifyPlan(Rng);

impl VerifyPlan {
    pub fn new(workload: Workload, seed: u64) -> Self {
        VerifyPlan(Rng::new(stream_seed(seed, workload, 255)))
    }

    /// Index of the next file to check among `n` live files.
    pub fn pick(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    /// A range of at most [`PREAD_LEN`] bytes, and at most half the file,
    /// at a seeded offset inside a file of `size` bytes.
    pub fn range(&mut self, size: u64) -> (u64, u64) {
        let len = PREAD_LEN.min(size.div_ceil(2));
        (self.0.below(size - len + 1), len)
    }
}

/// Iterations per client that the digest covers.
pub const DIGEST_ITERATIONS: u64 = 512;

/// FNV-1a digest of a workload's inputs for `seed`: the working set,
/// the first [`DIGEST_ITERATIONS`] iterations of every client, and the
/// first draws of the verify pass. Equal digests mean equal inputs.
pub fn digest(workload: Workload, seed: u64) -> String {
    let mut text = String::new();
    if workload == Workload::ReadMix {
        for f in working_set(seed) {
            let _ = writeln!(text, "{f:?}");
        }
    }
    for client in 0..workload.clients() {
        let mut plan = ClientPlan::new(workload, seed, client);
        for _ in 0..DIGEST_ITERATIONS {
            for op in plan.next_iteration() {
                let _ = writeln!(text, "{client} {op:?}");
            }
        }
    }
    let mut verify = VerifyPlan::new(workload, seed);
    for _ in 0..64 {
        let _ = writeln!(
            text,
            "v {} {:?}",
            verify.pick(1 << 20),
            verify.range(1 << 30)
        );
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 7), digest(w, 7), "{}", w.name());
            assert_ne!(digest(w, 7), digest(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn workloads_have_distinct_digests() {
        let mut all: Vec<String> = Workload::ALL.iter().map(|w| digest(*w, 1)).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), Workload::ALL.len());
    }

    #[test]
    fn payload_ranges_agree_with_the_whole_file() {
        let f = FileSpec {
            path: "/x".into(),
            size: 1000,
            content: 42,
        };
        let whole = f.bytes(0, f.size);
        assert_eq!(whole.len(), 1000);
        for (off, len) in [(0, 1), (3, 17), (8, 8), (995, 5), (100, 0)] {
            assert_eq!(f.bytes(off, len), whole[off as usize..(off + len) as usize]);
            assert!(f.matches(off, &whole[off as usize..(off + len) as usize]));
        }
        assert!(!f.matches(996, &whole[995..]), "range past the end");
        let mut bad = whole[10..20].to_vec();
        bad[3] ^= 1;
        assert!(!f.matches(10, &bad));
    }

    #[test]
    fn small_file_sizes_stay_in_range_and_schedule_holds() {
        let mut plan = ClientPlan::new(Workload::SmallFiles, 3, 1);
        for i in 0..64u64 {
            let ops = plan.next_iteration();
            let Op::Put(f) = &ops[0] else {
                panic!("iteration starts with a put")
            };
            assert!((SMALL_MIN..=SMALL_MAX).contains(&f.size));
            assert!(f.path.starts_with("/vol1/"));
            assert_eq!(ops.iter().any(|o| matches!(o, Op::Delete(_))), i % 2 == 1);
            assert_eq!(
                ops.iter().any(|o| matches!(o, Op::List(_))),
                i % LIST_EVERY == LIST_EVERY - 1
            );
        }
    }
}
