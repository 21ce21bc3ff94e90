//! Deterministic randomness for simulations.
//!
//! One seeded generator per engine; nodes draw from it through
//! `opennf_sim::Ctx::rng`. The implementation is SplitMix64 followed by
//! xoshiro256++, written out explicitly so runs are reproducible regardless
//! of `rand`-crate version bumps. [`SimRng`] also implements
//! [`rand::RngCore`] so it can drive `rand` distributions.

use rand::RngCore;

/// A self-contained xoshiro256++ PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed (SplitMix64 expansion).
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> [0,1).
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire-style rejection-free for our purposes: modulo bias is
        // negligible for n << 2^64, but do one widening multiply anyway.
        ((self.next_u64_raw() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normally distributed value with the given parameters of the
    /// underlying normal (`mu`, `sigma`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Pareto-distributed value with scale `xm` and shape `alpha`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        xm / u.powf(1.0 / alpha)
    }

    /// Derives an independent child generator (for per-node streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64_raw())
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64_raw().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.next_u64_raw(), c.next_u64_raw());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_respects_bound_and_is_roughly_uniform() {
        let mut r = SimRng::new(1);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            let v = r.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(9);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_has_heavy_tail() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let vals: Vec<f64> = (0..n).map(|_| r.pareto(1.0, 1.2)).collect();
        let above10 = vals.iter().filter(|v| **v > 10.0).count() as f64 / n as f64;
        // P(X > 10) = 10^-1.2 ≈ 0.063.
        assert!((above10 - 0.063).abs() < 0.01, "tail mass {above10}");
        assert!(vals.iter().all(|v| *v >= 1.0));
    }

    #[test]
    fn fork_streams_diverge() {
        let mut r = SimRng::new(5);
        let mut a = r.fork();
        let mut b = r.fork();
        assert_ne!(a.next_u64_raw(), b.next_u64_raw());
    }

    #[test]
    fn rngcore_fill_bytes() {
        let mut r = SimRng::new(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }
}
