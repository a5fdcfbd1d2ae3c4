//! Seeded inputs: arrival schedules and request mixes.
//!
//! Everything here is a pure function of the seed, so one seed always
//! yields the same request sequence. The generator is the benchmark's
//! own SplitMix64, independent of the program's RNGs.

/// SplitMix64: small, fast, and good enough for schedules and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (ns from the phase start) of a Poisson arrival process at
/// `rate` per second over `secs` seconds.
pub fn poisson_dues(rng: &mut Rng, rate: f64, secs: f64) -> Vec<u64> {
    let end = secs * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.f64()).ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let w: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        let cdf = w
            .iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// What a churn request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A key never requested before: computed, inserted into L1 and L2.
    Fresh,
    /// One of the most recently inserted keys: an L1 hit.
    Recent,
    /// A key inserted long enough ago to be out of L1: an L2 hit.
    Old,
}

/// The churn request mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnMix {
    /// Share of fresh keys.
    pub fresh: f64,
    /// Share of old repeats.
    pub old: f64,
    /// Recent repeats draw from this many most recent keys.
    pub recent_window: u64,
    /// Old repeats draw only from keys with at least this many keys
    /// inserted after them. With the default 8 × 128-entry L1, 1280
    /// later inserts put about 160 into each shard, so the key is gone
    /// from L1.
    pub old_gap: u64,
}

impl ChurnMix {
    /// The mix the `serve-churn` workload runs.
    pub const DEFAULT: ChurnMix = ChurnMix {
        fresh: 0.10,
        old: 0.10,
        recent_window: 64,
        old_gap: 1280,
    };
}

/// An endless seeded stream of churn keys over a prepopulated set.
///
/// Keys `0..population` exist before the stream starts, inserted in key
/// order. Fresh keys continue from `population`. Old repeats walk the
/// keys in insertion order, each at most once, so every old repeat asks
/// for a key that has been out of L1 since it was last touched. When no
/// key is old enough, the draw becomes a recent repeat.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: Rng,
    mix: ChurnMix,
    next_fresh: u64,
    old_cursor: u64,
}

impl ChurnStream {
    /// The stream for `seed` after `population` prepopulated keys.
    pub fn new(seed: u64, mix: ChurnMix, population: u64) -> ChurnStream {
        ChurnStream {
            rng: Rng::new(seed, 0xC4),
            mix,
            next_fresh: population,
            old_cursor: 0,
        }
    }

    /// The next request's key and kind.
    pub fn next_key(&mut self) -> (u64, Kind) {
        let u = self.rng.f64();
        let pick = self.rng.next_u64();
        if u < self.mix.fresh {
            self.next_fresh += 1;
            return (self.next_fresh - 1, Kind::Fresh);
        }
        if u < self.mix.fresh + self.mix.old && self.old_cursor + self.mix.old_gap < self.next_fresh
        {
            self.old_cursor += 1;
            return (self.old_cursor - 1, Kind::Old);
        }
        let window = self.mix.recent_window.min(self.next_fresh).max(1);
        (self.next_fresh - 1 - pick % window, Kind::Recent)
    }

    /// The mix this stream draws.
    pub fn mix(&self) -> ChurnMix {
        self.mix
    }

    /// Keys issued so far, fresh or prepopulated (`0..issued()`).
    pub fn issued(&self) -> u64 {
        self.next_fresh
    }
}

/// The template a churn key is built from.
pub fn churn_template(seed: u64, key: u64, templates: usize) -> usize {
    (Rng::new(seed ^ key, 0x7E).next_u64() % templates as u64) as usize
}
