//! A speedometer for the machine under the benchmark.
//!
//! On a shared box the same binary on the same input runs at two speeds:
//! stretches of seconds to minutes in which *everything* — a
//! single-threaded generator pass, a 64-thread simulator pass, the loop
//! below — takes 0.8× its usual time. Ten runs then spread by up to 20 % of
//! their median without the program having changed at all.
//!
//! So the benchmark measures the machine beside the program: a fixed
//! reference kernel (about a millisecond of integer mixing and dependent
//! loads over 16 KiB, small enough that the caches the program just used do
//! not matter) runs between jobs, at most once per 40 ms, and every
//! latency is also reported in *reference* time: the CPU-bound share of its
//! wall time scaled by `NOMINAL_MS ÷ kernel time measured beside it`. Time
//! spent waiting (timers, sockets) is not scaled. The kernel is part of the
//! benchmark, not of the system, so no change to the system moves it.

use crate::stats::median;
use std::time::{Duration, Instant};

/// What the reference kernel takes in the usual mode of the box the first
/// baseline was measured on. Only a unit: reference time equals wall time on
/// a machine where the kernel takes exactly this long.
pub const NOMINAL_MS: f64 = 1.0;

/// Least time between two samples, which bounds the overhead at ~2.5 %.
const MIN_GAP: Duration = Duration::from_millis(40);

const KERNEL_STEPS: usize = 58_000;
const BUF_WORDS: usize = 2 * 1024;

pub struct Speedometer {
    epoch: Instant,
    buf: Vec<u64>,
    /// `(ns since epoch, kernel ms)`, in time order.
    samples: Vec<(u64, f64)>,
    last: Instant,
    /// Total time spent in the kernel, so a pass can subtract its share.
    spent: Duration,
}

impl Speedometer {
    pub fn new(epoch: Instant) -> Speedometer {
        Speedometer {
            epoch,
            buf: vec![1; BUF_WORDS],
            samples: Vec::new(),
            last: epoch,
            spent: Duration::ZERO,
        }
    }

    fn kernel(&mut self) -> u64 {
        let n = self.buf.len();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut idx = 0;
        for _ in 0..KERNEL_STEPS {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            idx = (idx + x as usize) % n;
            self.buf[idx] = self.buf[idx].wrapping_add(x);
            x ^= self.buf[(idx * 7 + 1) % n];
        }
        x
    }

    /// Run the kernel once and record how long it took.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(self.kernel());
        let took = t0.elapsed();
        self.samples.push((
            (t0 - self.epoch).as_nanos() as u64,
            took.as_secs_f64() * 1e3,
        ));
        self.spent += took;
        self.last = t0;
    }

    /// Sample if the last sample is older than the minimum gap.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= MIN_GAP {
            self.sample();
        }
    }

    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// `NOMINAL_MS ÷ kernel time` over `[t0_ns, t1_ns]`: the median of the
    /// samples taken inside the interval and the nearest one on either side.
    /// Above 1 when the machine is running fast.
    pub fn factor(&self, t0_ns: u64, t1_ns: u64) -> f64 {
        let first_inside = self.samples.partition_point(|&(t, _)| t < t0_ns);
        let after = self.samples.partition_point(|&(t, _)| t <= t1_ns);
        let lo = first_inside.saturating_sub(1);
        let hi = (after + 1).min(self.samples.len());
        let window: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect();
        if window.is_empty() {
            1.0
        } else {
            NOMINAL_MS / median(&window)
        }
    }

    /// Median kernel time over the whole run.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }
}
