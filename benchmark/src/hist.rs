//! Fixed-size log-bucketed latency histogram (nanoseconds).
//!
//! 128 sub-buckets per power of two bound the relative bucket width at
//! 1/128, and the bucket array never grows, so the harness's memory does
//! not depend on how many operations a run completes. Percentiles
//! interpolate linearly inside the bucket the rank falls in.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^42 ns (~73 min) share the last bucket.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// `(lowest value, width)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, or 0.0 when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bucket_range(i);
                let into = (rank - seen as f64) / c as f64;
                return lo as f64 + width as f64 * into;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count");
    }

    /// Convenience: the `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}
