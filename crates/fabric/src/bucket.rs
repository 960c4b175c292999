//! Token-bucket rate limiter — the fabric's model of `tc` traffic shaping.
//!
//! Every host NIC direction and every throttled host pair owns one bucket.
//! All flows through the same bucket contend for its tokens, which yields
//! the approximate max-min fair sharing a real shaped interface shows when
//! several TCP streams cross it.
//!
//! Buckets are refilled lazily from a monotonic clock on each acquire, so
//! there is no background timer thread. `acquire` blocks the calling
//! stream until enough tokens accumulate (or the bucket is closed during
//! fabric shutdown / host kill).

use parking_lot::{Condvar, Mutex};
use smarth_core::units::Bandwidth;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct BucketState {
    /// Current token count, in bytes. May go fractional due to refill.
    tokens: f64,
    /// Bytes per second; `f64::INFINITY` disables limiting.
    rate: f64,
    /// Burst ceiling in bytes.
    capacity: f64,
    last_refill: Instant,
    closed: bool,
}

/// A shared, thread-safe token bucket.
#[derive(Debug)]
pub struct TokenBucket {
    state: Mutex<BucketState>,
    available: Condvar,
    /// Number of times an `acquire` had to sleep waiting for tokens.
    /// Observable so tests can assert the uncontended path never waits.
    waits: AtomicU64,
}

/// Error returned when a bucket is closed while a caller waits on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketClosed;

impl TokenBucket {
    /// Creates a bucket for the given bandwidth. The burst capacity is
    /// ~20 ms of line rate, floored at 64 KiB so single packets never
    /// exceed the burst.
    ///
    /// The burst is large next to a test-scale block: at 100 Mbps it is
    /// 250,000 B, about 95% of a 256 KiB block ([`Self::set_rate`] sizes
    /// it by the same rule). A datanode whose ingress sat idle therefore
    /// admits almost a whole block at the sender's rate, and only the
    /// tail pays the shaped rate. This is why a per-block first-hop rate
    /// (opened → FNFA) reads several times the shaped NIC rate on a
    /// 100 Mbps cluster; with the burst cut to the 64 KiB floor the same
    /// measurement reads about 125 Mbps.
    pub fn new(bandwidth: Bandwidth) -> Self {
        let rate = bandwidth.as_bytes_per_sec();
        let capacity = if rate.is_finite() {
            (rate * 0.02).max(64.0 * 1024.0)
        } else {
            f64::INFINITY
        };
        Self {
            state: Mutex::new(BucketState {
                tokens: capacity.min(1e9),
                rate,
                capacity,
                last_refill: Instant::now(),
                closed: false,
            }),
            available: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    /// An unlimited bucket (no shaping).
    pub fn unlimited() -> Self {
        Self::new(Bandwidth::unlimited())
    }

    fn refill(state: &mut BucketState, now: Instant) {
        if !state.rate.is_finite() {
            return;
        }
        let dt = now.duration_since(state.last_refill).as_secs_f64();
        state.last_refill = now;
        state.tokens = (state.tokens + dt * state.rate).min(state.capacity);
    }

    /// Blocks until `n` bytes of tokens are available, then consumes
    /// them. Returns `Err(BucketClosed)` if the bucket is closed before
    /// the tokens could be granted.
    ///
    /// When the bucket already holds enough tokens the grant happens in
    /// one shot — a single refill and subtraction under the lock, with
    /// no sleep bookkeeping touched.
    pub fn acquire(&self, n: usize) -> Result<(), BucketClosed> {
        let mut st = self.state.lock();
        // Uncontended fast path: grant in one shot when tokens suffice.
        if st.closed {
            return Err(BucketClosed);
        }
        if !st.rate.is_finite() {
            return Ok(());
        }
        Self::refill(&mut st, Instant::now());
        let need = n as f64;
        if st.tokens >= need {
            st.tokens -= need;
            return Ok(());
        }
        loop {
            // Sleep roughly until the deficit refills; cap the wait so
            // rate changes and close() are noticed promptly.
            let deficit = need - st.tokens;
            let wait = Duration::from_secs_f64((deficit / st.rate).clamp(0.000_05, 0.01));
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.available.wait_for(&mut st, wait);
            if st.closed {
                return Err(BucketClosed);
            }
            if !st.rate.is_finite() {
                return Ok(());
            }
            Self::refill(&mut st, Instant::now());
            if st.tokens >= need {
                st.tokens -= need;
                return Ok(());
            }
        }
    }

    /// How many times any `acquire` on this bucket has slept waiting for
    /// tokens. Stays zero as long as every acquire hits the fast path.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Non-blocking acquire; true when tokens were consumed.
    pub fn try_acquire(&self, n: usize) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        if !st.rate.is_finite() {
            return true;
        }
        Self::refill(&mut st, Instant::now());
        if st.tokens >= n as f64 {
            st.tokens -= n as f64;
            true
        } else {
            false
        }
    }

    /// Changes the shaping rate in place; affects all current and future
    /// flows through this bucket (used by `Fabric::throttle_host`).
    pub fn set_rate(&self, bandwidth: Bandwidth) {
        let mut st = self.state.lock();
        Self::refill(&mut st, Instant::now());
        let new_rate = bandwidth.as_bytes_per_sec();
        let tightening = new_rate < st.rate;
        st.rate = new_rate;
        st.capacity = if st.rate.is_finite() {
            (st.rate * 0.02).max(64.0 * 1024.0)
        } else {
            f64::INFINITY
        };
        st.tokens = st.tokens.min(st.capacity);
        if tightening && st.rate.is_finite() {
            // A tc-style throttle bites immediately: drop the burst
            // accumulated at the old rate down to ~20 ms of the new
            // line rate. Without this, the 64 KiB burst floor lets
            // small messages (namenode RPCs, heartbeats) sail through
            // a severe stall for its entire duration.
            st.tokens = st.tokens.min(st.rate * 0.02);
        }
        self.available.notify_all();
    }

    pub fn rate(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.state.lock().rate)
    }

    /// Permanently closes the bucket, failing all waiters — used when a
    /// host is killed or the fabric shuts down.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn unlimited_bucket_never_blocks() {
        let b = TokenBucket::unlimited();
        let start = Instant::now();
        for _ in 0..1000 {
            b.acquire(1 << 20).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn acquire_enforces_rate() {
        // 10 MiB/s; move 1 MiB beyond the burst → ≥ ~0.1 s minus burst.
        let b = TokenBucket::new(Bandwidth::mib_per_sec(10.0));
        // Drain the initial burst first.
        b.acquire((10.0 * 1024.0 * 1024.0 * 0.02) as usize).unwrap();
        let start = Instant::now();
        let total = 1024 * 1024;
        let mut moved = 0;
        while moved < total {
            let chunk = 8192.min(total - moved);
            b.acquire(chunk).unwrap();
            moved += chunk;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let expected = 1.0 / 10.0; // 1 MiB at 10 MiB/s
        assert!(
            elapsed > expected * 0.7,
            "rate not enforced: {elapsed}s for expected {expected}s"
        );
        assert!(elapsed < expected * 2.0, "rate far too slow: {elapsed}s");
    }

    #[test]
    fn concurrent_flows_share_the_rate() {
        let b = Arc::new(TokenBucket::new(Bandwidth::mib_per_sec(20.0)));
        b.acquire((20.0 * 1024.0 * 1024.0 * 0.02) as usize).unwrap();
        let start = Instant::now();
        let per_flow = 512 * 1024;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut moved = 0;
                    while moved < per_flow {
                        let chunk = 8192.min(per_flow - moved);
                        b.acquire(chunk).unwrap();
                        moved += chunk;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 512 KiB = 2 MiB at 20 MiB/s ≈ 0.1 s total.
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed > 0.06, "sharing too fast: {elapsed}");
        assert!(elapsed < 0.4, "sharing too slow: {elapsed}");
    }

    #[test]
    fn uncontended_acquire_never_sleeps() {
        // The burst floor guarantees a fresh bucket holds ≥ 64 KiB, so a
        // single 64 KiB acquire must take the one-shot fast path.
        let b = TokenBucket::new(Bandwidth::mib_per_sec(1.0));
        b.acquire(64 * 1024).unwrap();
        assert_eq!(b.waits(), 0, "uncontended acquire slept");

        // And once drained, the slow path does record its sleeps.
        let b = TokenBucket::new(Bandwidth::mib_per_sec(1.0));
        b.acquire(64 * 1024).unwrap();
        b.acquire(16 * 1024).unwrap();
        assert!(b.waits() > 0, "contended acquire should have waited");
    }

    #[test]
    fn tightening_the_rate_drops_the_old_burst() {
        // A fresh fast bucket holds a large burst; throttling it down
        // must make even small acquires wait at the new rate instead of
        // coasting on the old burst.
        let b = TokenBucket::new(Bandwidth::mib_per_sec(100.0));
        b.set_rate(Bandwidth::bytes_per_sec(125.0));
        assert!(
            !b.try_acquire(64),
            "64-byte message must not pass a 125 B/s stall instantly"
        );
        // Lifting the throttle restores full-rate refill.
        b.set_rate(Bandwidth::mib_per_sec(100.0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_acquire(64 * 1024));
    }

    #[test]
    fn try_acquire_does_not_block() {
        let b = TokenBucket::new(Bandwidth::bytes_per_sec(10.0));
        // Burst floor is 64 KiB, so the first grab succeeds...
        assert!(b.try_acquire(64 * 1024));
        // ...but an immediate second one cannot.
        assert!(!b.try_acquire(64 * 1024));
    }

    #[test]
    fn close_unblocks_waiters() {
        let b = Arc::new(TokenBucket::new(Bandwidth::bytes_per_sec(1.0)));
        b.try_acquire(64 * 1024); // drain burst
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.acquire(1 << 20))
        };
        std::thread::sleep(Duration::from_millis(20));
        b.close();
        assert_eq!(waiter.join().unwrap(), Err(BucketClosed));
        assert!(b.is_closed());
        assert!(!b.try_acquire(1), "closed bucket grants nothing");
    }

    #[test]
    fn set_rate_takes_effect() {
        let b = TokenBucket::new(Bandwidth::bytes_per_sec(1.0));
        b.try_acquire(64 * 1024); // drain burst
        b.set_rate(Bandwidth::mib_per_sec(100.0));
        let start = Instant::now();
        b.acquire(512 * 1024).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "new rate not applied"
        );
        assert!((b.rate().as_bytes_per_sec() - 100.0 * 1024.0 * 1024.0).abs() < 1.0);
    }
}
