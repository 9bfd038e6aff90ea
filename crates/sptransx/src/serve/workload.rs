//! Deterministic Zipf-skewed request generator for the serving benchmarks.
//!
//! Real knowledge-graph query traffic is heavily skewed: a few hot entities
//! (popular people, places, products) receive most lookups. The generator
//! models that with a Zipf(`s`) distribution over entity *ranks* — rank `i`
//! has weight `1 / (i + 1)^s` — composed with a seeded random permutation
//! from rank to entity id, so hot entities are scattered across the id space
//! rather than clustered at id 0. Directions (head vs tail completion) are
//! a fair coin and relations are uniform. Everything is driven by one seeded
//! [`rand::rngs::StdRng`], so a `(num_entities, num_relations, exponent,
//! seed)` tuple replays the identical query stream — which is what lets the
//! cache cross-validation replay the same trace through `simcache`.

use kg::synthetic::ZipfSampler;
use rand::{Rng, SeedableRng};

use super::{Direction, Query};

/// Seeded Zipf query stream over a fixed entity/relation vocabulary.
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    /// Zipf distribution over ranks — the training graphs' sampler.
    ranks: ZipfSampler,
    /// Rank -> entity id permutation.
    perm: Vec<u32>,
    num_relations: u32,
    rng: rand::rngs::StdRng,
}

impl ZipfWorkload {
    /// Creates a generator over `num_entities` entities and `num_relations`
    /// relations with Zipf exponent `exponent` (0 = uniform; ~1 is typical
    /// web-traffic skew).
    ///
    /// # Panics
    ///
    /// Panics if `num_entities == 0`, `num_relations == 0`, or `exponent`
    /// is negative or non-finite.
    pub fn new(num_entities: usize, num_relations: usize, exponent: f64, seed: u64) -> Self {
        assert!(num_entities > 0, "workload needs at least one entity");
        assert!(num_relations > 0, "workload needs at least one relation");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ranks = ZipfSampler::new(num_entities, exponent);
        let mut perm: Vec<u32> = (0..num_entities as u32).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(&mut rng);
        Self {
            ranks,
            perm,
            num_relations: num_relations as u32,
            rng,
        }
    }

    /// Draws the next query: fair-coin direction, Zipf entity, uniform
    /// relation.
    pub fn next_query(&mut self) -> Query {
        let dir = if self.rng.gen_bool(0.5) {
            Direction::Tail
        } else {
            Direction::Head
        };
        let entity = self.perm[self.ranks.sample(&mut self.rng)];
        let rel = self.rng.gen_range(0..self.num_relations);
        Query { dir, entity, rel }
    }

    /// Draws `n` queries.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identically() {
        let a = ZipfWorkload::new(1000, 7, 1.1, 42).take(500);
        let b = ZipfWorkload::new(1000, 7, 1.1, 42).take(500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ZipfWorkload::new(1000, 7, 1.1, 1).take(200);
        let b = ZipfWorkload::new(1000, 7, 1.1, 2).take(200);
        assert_ne!(a, b);
    }

    #[test]
    fn queries_stay_in_range() {
        let mut w = ZipfWorkload::new(50, 3, 1.0, 9);
        for _ in 0..2000 {
            let q = w.next_query();
            assert!(q.entity < 50);
            assert!(q.rel < 3);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_few_entities() {
        // With s = 1.1 over 1000 entities, the top-10 hottest entities
        // should cover a large share of queries; under uniform (s = 0)
        // they should not.
        let count_top10 = |s: f64| {
            let mut w = ZipfWorkload::new(1000, 2, s, 7);
            let mut counts = vec![0usize; 1000];
            for _ in 0..20_000 {
                counts[w.next_query().entity as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..10].iter().sum::<usize>()
        };
        let skewed = count_top10(1.1);
        let uniform = count_top10(0.0);
        assert!(
            skewed > 20_000 / 4,
            "Zipf(1.1) top-10 should cover > 25% of traffic, got {skewed}"
        );
        assert!(
            uniform < 20_000 / 20,
            "uniform top-10 should cover < 5% of traffic, got {uniform}"
        );
    }

    #[test]
    fn both_directions_appear() {
        let qs = ZipfWorkload::new(100, 2, 1.0, 3).take(200);
        assert!(qs.iter().any(|q| q.dir == Direction::Tail));
        assert!(qs.iter().any(|q| q.dir == Direction::Head));
    }
}
