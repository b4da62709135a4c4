//! The deterministic outputs of a pass and the digest over them. Two
//! passes on one seed must agree exactly, traced or not.

use std::fmt::Write as _;

/// 64-bit FNV-1a, folded one `u64` at a time.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bytes of `s` and a terminator.
    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.u64(0);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Named deterministic counters, in insertion order, plus a fold over
/// every individual result (each response, each page).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outputs {
    /// `(name, value)` in the order first added.
    pub counters: Vec<(&'static str, u64)>,
    /// FNV fold over the per-query or per-page results.
    pub fold: u64,
}

impl Outputs {
    /// Adds `v` to counter `key`, creating it at 0 first.
    pub fn add(&mut self, key: &'static str, v: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += v,
            None => self.counters.push((key, v)),
        }
    }

    /// Counter `key`, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Counter `key`, or 0.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key).unwrap_or(0)
    }

    /// The digest over every counter and the fold.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &(k, v) in &self.counters {
            h.str(k);
            h.u64(v);
        }
        h.u64(self.fold);
        h.finish()
    }

    /// The counters and digest as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"digest\": \"{:016x}\", \"counters\": {{",
            self.digest()
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        let _ = write!(out, "}}, \"fold\": \"{:016x}\"}}", self.fold);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_and_digest_sees_every_counter() {
        let mut a = Outputs::default();
        a.add("x", 2);
        a.add("y", 1);
        a.add("x", 3);
        assert_eq!(a.get("x"), Some(5));
        assert_eq!(a.count("z"), 0);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.add("y", 1);
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.fold ^= 1;
        assert_ne!(a.digest(), c.digest());
    }
}
