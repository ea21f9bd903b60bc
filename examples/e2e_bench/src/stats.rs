//! The arithmetic every reported number goes through, and the fixed-vector
//! self-test that runs before any measurement is trusted.

use crate::spans::{self_times, Span};

/// A tiny deterministic generator (SplitMix64): the workload seed must give
/// the same inputs on every machine, so nothing here may depend on the
/// platform's hasher or clock.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank 95th percentile, and how many samples lie beyond it.
pub fn p95(values: &[f64]) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = (0.95 * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    (v[idx], v.len() - 1 - idx)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Check the arithmetic above, and the span self-time rule, on vectors
/// whose answers are known. Runs before every measurement: a benchmark
/// whose median is wrong reports nothing worth comparing.
pub fn selftest() -> Result<(), String> {
    fn close(what: &str, got: f64, want: f64) -> Result<(), String> {
        if (got - want).abs() <= 1e-9 * want.abs().max(1.0) {
            Ok(())
        } else {
            Err(format!("selftest: {what} = {got}, expected {want}"))
        }
    }
    close("median(odd)", median(&[5.0, 1.0, 3.0]), 3.0)?;
    close("median(even)", median(&[4.0, 1.0, 3.0, 2.0]), 2.5)?;
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&ten);
    close("q1(1..10)", q1, 2.75)?;
    close("q3(1..10)", q3, 8.25)?;
    close("spread(1..10)", spread(&ten), 1.0)?;
    // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
    let (q1, q3) = quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]);
    close("q1(5)", q1, 3.0)?;
    close("q3(5)", q3, 7.0)?;
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let (p, beyond) = p95(&hundred);
    close("p95(1..100)", p, 95.0)?;
    close("p95 beyond", beyond as f64, 5.0)?;
    close("geomean", geomean(&[1.0, 10.0, 100.0]), 10.0)?;

    // A 100 ns parent with children covering [10,30) and [20,50) — which
    // overlap — and a grandchild: self time is the span minus the union of
    // its direct children.
    let span = |start_ns, end_ns, parent| Span {
        name: "t",
        start_ns,
        end_ns,
        parent,
        job: 0,
    };
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(12, 18, Some(1)),
    ];
    let selfs = self_times(&spans);
    close("self(parent)", selfs[0] as f64, 60.0)?;
    close("self(child)", selfs[1] as f64, 14.0)?;
    close("self(leaf)", selfs[3] as f64, 6.0)?;

    let mut a = Rng::new(7);
    let mut b = Rng::new(7);
    if (0..8).any(|_| a.next_u64() != b.next_u64()) {
        return Err("selftest: Rng is not deterministic".to_string());
    }
    let mut order: Vec<usize> = (0..20).collect();
    a.shuffle(&mut order);
    let mut check = order.clone();
    check.sort_unstable();
    if check != (0..20).collect::<Vec<_>>() {
        return Err("selftest: shuffle lost an element".to_string());
    }
    Ok(())
}
