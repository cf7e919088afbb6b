//! Seeded Zipf node popularity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Inverse-CDF Zipf sampler over `n` nodes: rank `r` is drawn with
/// probability proportional to `(r + 1)^-skew`, and ranks map to node ids
/// through a seeded permutation, so popularity is unrelated to id order
/// (and to the generator's community layout).
pub struct Zipf {
    cumulative: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty node set");
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        node_of_rank.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed_2f1f));
        let mut acc = 0.0f64;
        let cumulative = (0..n)
            .map(|rank| {
                acc += ((rank + 1) as f64).powf(-skew);
                acc
            })
            .collect();
        Self {
            cumulative,
            node_of_rank,
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let u = rng.gen_range(0.0..total);
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.node_of_rank[rank.min(self.node_of_rank.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(5_000, 1.25, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..2_000).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn skewed_and_decorrelated_from_node_id() {
        let d = draws(3);
        let mut counts = std::collections::HashMap::new();
        for &node in &d {
            *counts.entry(node).or_insert(0usize) += 1;
        }
        let (&top, &top_count) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        // Rank 0 carries ~1/ζ(1.25) ≈ 22% of the mass at this size.
        assert!(top_count > d.len() / 8, "top node drew only {top_count}");
        assert_ne!(top, 0, "popularity must not follow node id");
        assert!(d.iter().all(|&node| node < 5_000));
    }
}
