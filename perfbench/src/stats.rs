//! Order statistics and the output digest.

use std::hash::{Hash, Hasher};

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a: a fixed, platform-independent hash for digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a graph's canonical document (dense node handles, sorted
/// edges): equal digests mean byte-identical `to_json` output.
pub fn graph_digest(g: &grepair_graph::Graph) -> u64 {
    let doc = g.to_doc();
    let mut h = Fnv::default();
    for n in &doc.nodes {
        (n.id, &n.label).hash(&mut h);
        for (k, v) in &n.attrs {
            (k, v).hash(&mut h);
        }
    }
    for e in &doc.edges {
        (e.src, e.dst, &e.label).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 1.0), 20.0);
        assert_eq!(median(&xs), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
