//! Dataset statistics: degree distributions and relation cardinality
//! classes.
//!
//! These are the structural properties the synthetic generator
//! ([`crate::synthetic`]) is calibrated on — heavy-tailed entity degrees
//! (gather/scatter locality) and the 1-1 / 1-N / N-1 / N-N relation mix
//! (ranking difficulty). The benchmark harness prints them so runs on
//! synthetic stand-ins can be sanity-checked against the original datasets'
//! published statistics.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::TripleStore;

/// Cardinality class of a relation, following Bordes et al. (2013): a
/// relation is "1-to-N" in the tail direction if heads average more than 1.5
/// distinct tails, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RelationClass {
    /// ≤ 1.5 tails per head and ≤ 1.5 heads per tail.
    OneToOne,
    /// > 1.5 tails per head, ≤ 1.5 heads per tail.
    OneToMany,
    /// ≤ 1.5 tails per head, > 1.5 heads per tail.
    ManyToOne,
    /// > 1.5 on both sides.
    ManyToMany,
}

/// Aggregate statistics of a triple store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of triples measured.
    pub triples: usize,
    /// Number of distinct entities that actually appear.
    pub active_entities: usize,
    /// Number of distinct relations that actually appear.
    pub active_relations: usize,
    /// Mean entity degree (in + out).
    pub mean_degree: f64,
    /// Maximum entity degree.
    pub max_degree: usize,
    /// Fraction of total degree carried by the top 1% of entities — the
    /// heavy-tail indicator.
    pub top1pct_degree_share: f64,
    /// Relation-class histogram `(1-1, 1-N, N-1, N-N)`.
    pub class_counts: [usize; 4],
}

impl GraphStats {
    /// Computes statistics over `store` for a graph with `num_entities`.
    pub fn compute(store: &TripleStore, num_entities: usize) -> GraphStats {
        let degree = degrees(store, num_entities);
        let active_entities = degree.iter().filter(|&&d| d > 0).count();
        let total_degree: usize = degree.iter().sum();
        let max_degree = degree.iter().copied().max().unwrap_or(0);

        let mut sorted = degree.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top = (num_entities / 100).max(1);
        let top_share = if total_degree == 0 {
            0.0
        } else {
            sorted[..top].iter().sum::<usize>() as f64 / total_degree as f64
        };

        let classes = classify_relations(store);
        let mut class_counts = [0usize; 4];
        for class in classes.values() {
            let idx = match class {
                RelationClass::OneToOne => 0,
                RelationClass::OneToMany => 1,
                RelationClass::ManyToOne => 2,
                RelationClass::ManyToMany => 3,
            };
            class_counts[idx] += 1;
        }

        GraphStats {
            triples: store.len(),
            active_entities,
            active_relations: classes.len(),
            mean_degree: if active_entities == 0 {
                0.0
            } else {
                total_degree as f64 / active_entities as f64
            },
            max_degree,
            top1pct_degree_share: top_share,
            class_counts,
        }
    }
}

/// Degree (in + out) of each of `num_entities` entities over `store`: a
/// self-loop counts twice.
pub fn degrees(store: &TripleStore, num_entities: usize) -> Vec<usize> {
    let mut degree = vec![0usize; num_entities];
    for t in store.iter() {
        degree[t.head as usize] += 1;
        degree[t.tail as usize] += 1;
    }
    degree
}

/// Classifies every relation appearing in `store`.
pub fn classify_relations(store: &TripleStore) -> HashMap<u32, RelationClass> {
    // (rel, head) -> distinct-ish tail count; counting multiplicity is fine
    // for the 1.5 threshold on de-duplicated stores.
    let mut tails_of: HashMap<(u32, u32), u32> = HashMap::new();
    let mut heads_of: HashMap<(u32, u32), u32> = HashMap::new();
    for t in store.iter() {
        *tails_of.entry((t.rel, t.head)).or_insert(0) += 1;
        *heads_of.entry((t.rel, t.tail)).or_insert(0) += 1;
    }
    let mut tph: HashMap<u32, (u64, u64)> = HashMap::new();
    for ((rel, _), c) in &tails_of {
        let e = tph.entry(*rel).or_insert((0, 0));
        e.0 += u64::from(*c);
        e.1 += 1;
    }
    let mut hpt: HashMap<u32, (u64, u64)> = HashMap::new();
    for ((rel, _), c) in &heads_of {
        let e = hpt.entry(*rel).or_insert((0, 0));
        e.0 += u64::from(*c);
        e.1 += 1;
    }
    let mut out = HashMap::new();
    for (rel, (sum, n)) in &tph {
        let t = *sum as f64 / (*n).max(1) as f64;
        let (hs, hn) = hpt.get(rel).copied().unwrap_or((0, 1));
        let h = hs as f64 / hn.max(1) as f64;
        let class = match (t > 1.5, h > 1.5) {
            (false, false) => RelationClass::OneToOne,
            (true, false) => RelationClass::OneToMany,
            (false, true) => RelationClass::ManyToOne,
            (true, true) => RelationClass::ManyToMany,
        };
        out.insert(*rel, class);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticKgBuilder;
    use crate::Triple;

    #[test]
    fn classifies_archetypes() {
        let mut store = TripleStore::new();
        // rel 0: 1-1 chain.
        for i in 0..10u32 {
            store.push(Triple::new(i, 0, i + 20));
        }
        // rel 1: 1-N fan-out from entity 0.
        for t in 1..=10u32 {
            store.push(Triple::new(0, 1, t + 30));
        }
        // rel 2: N-1 fan-in to entity 50.
        for h in 0..10u32 {
            store.push(Triple::new(h, 2, 50));
        }
        // rel 3: N-N bipartite block.
        for h in 0..4u32 {
            for t in 0..4u32 {
                store.push(Triple::new(h, 3, t + 60));
            }
        }
        let classes = classify_relations(&store);
        assert_eq!(classes[&0], RelationClass::OneToOne);
        assert_eq!(classes[&1], RelationClass::OneToMany);
        assert_eq!(classes[&2], RelationClass::ManyToOne);
        assert_eq!(classes[&3], RelationClass::ManyToMany);
    }

    #[test]
    fn stats_on_empty_store() {
        let s = GraphStats::compute(&TripleStore::new(), 10);
        assert_eq!(s.triples, 0);
        assert_eq!(s.active_entities, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn synthetic_graphs_are_heavy_tailed() {
        let ds = SyntheticKgBuilder::new(1_000, 10)
            .triples(8_000)
            .zipf_exponent(1.0)
            .seed(5)
            .build();
        let stats = GraphStats::compute(&ds.train, ds.num_entities);
        // Top 1% of entities must carry well above their uniform 1% share.
        assert!(
            stats.top1pct_degree_share > 0.05,
            "expected heavy tail, got {}",
            stats.top1pct_degree_share
        );
        assert!(stats.mean_degree > 1.0);
        assert!(stats.max_degree > 20);
        // Dense synthetic graphs tend toward N-N; the histogram must at
        // least be populated and consistent.
        assert_eq!(
            stats.class_counts.iter().sum::<usize>(),
            stats.active_relations,
            "class histogram {:?}",
            stats.class_counts
        );
    }

    #[test]
    fn uniform_graphs_are_flatter_than_zipf() {
        let zipf = SyntheticKgBuilder::new(1_000, 5)
            .triples(6_000)
            .zipf_exponent(1.1)
            .seed(6)
            .build();
        let flat = SyntheticKgBuilder::new(1_000, 5)
            .triples(6_000)
            .zipf_exponent(0.0)
            .seed(6)
            .build();
        let sz = GraphStats::compute(&zipf.train, 1_000);
        let sf = GraphStats::compute(&flat.train, 1_000);
        assert!(
            sz.top1pct_degree_share > sf.top1pct_degree_share,
            "zipf {} vs flat {}",
            sz.top1pct_degree_share,
            sf.top1pct_degree_share
        );
    }
}
