//! Synthetic knowledge-graph generation calibrated to the paper's datasets.
//!
//! The seven benchmark graphs in Table 3 (plus the COVID-19 graph of
//! Appendix F) cannot be downloaded offline, so experiments run on synthetic
//! graphs that match each dataset's **entity count, relation count and triple
//! count**, with two structural properties that drive the behaviours the
//! paper measures:
//!
//! * **Zipf-distributed entity popularity** — real KGs have heavy-tailed
//!   degree distributions; gather/scatter locality (the paper's bottleneck)
//!   depends on how often hot rows are touched.
//! * **Relation cardinality mix** — relations are assigned 1-1 / 1-N / N-1 /
//!   N-N behaviour in the proportions reported for FB15K, which determines
//!   ranking difficulty (TransE struggles with 1-N, the motivation for
//!   TransH/TransR).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Dataset, Triple, TripleStore};

/// Relation cardinality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// One head maps to one tail.
    OneToOne,
    /// One head maps to many tails.
    OneToMany,
    /// Many heads map to one tail.
    ManyToOne,
    /// Many heads map to many tails.
    ManyToMany,
}

/// A Zipf sampler over `0..n` with exponent `s` (cumulative-table based).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Builder for synthetic KG datasets.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
///
/// let ds = SyntheticKgBuilder::new(50, 4)
///     .triples(200)
///     .zipf_exponent(0.8)
///     .valid_frac(0.1)
///     .test_frac(0.1)
///     .seed(13)
///     .build();
/// assert_eq!(ds.num_relations, 4);
/// assert!(ds.test.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticKgBuilder {
    name: String,
    num_entities: usize,
    num_relations: usize,
    num_triples: usize,
    zipf_exponent: f64,
    valid_frac: f64,
    test_frac: f64,
    seed: u64,
}

impl SyntheticKgBuilder {
    /// Starts a builder for a graph over `num_entities` and `num_relations`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(num_entities: usize, num_relations: usize) -> Self {
        assert!(num_entities > 1, "need at least two entities");
        assert!(num_relations > 0, "need at least one relation");
        Self {
            name: format!("synth-{num_entities}e-{num_relations}r"),
            num_entities,
            num_relations,
            num_triples: num_entities * 4,
            zipf_exponent: 0.9,
            valid_frac: 0.05,
            test_frac: 0.05,
            seed: 0,
        }
    }

    /// Sets the dataset name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the total triple count (across all splits).
    pub fn triples(mut self, n: usize) -> Self {
        self.num_triples = n;
        self
    }

    /// Sets the Zipf exponent for entity popularity (0 = uniform).
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Sets the validation fraction.
    pub fn valid_frac(mut self, f: f64) -> Self {
        self.valid_frac = f;
        self
    }

    /// Sets the test fraction.
    pub fn test_frac(mut self, f: f64) -> Self {
        self.test_frac = f;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// Duplicate triples are rejected during generation, so the result may
    /// contain slightly fewer triples than requested on tiny graphs where
    /// the space is nearly exhausted.
    pub fn build(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let head_sampler = ZipfSampler::new(self.num_entities, self.zipf_exponent);
        // Different permutation for tails so heads and tails are not
        // correlated hot rows.
        let tail_offset = self.num_entities / 2 + 1;
        let rel_sampler = ZipfSampler::new(self.num_relations, 0.6);

        // Assign cardinalities in FB15K-like proportions:
        // ~24% 1-1, ~23% 1-N, ~29% N-1, ~24% N-N.
        let cardinality: Vec<Cardinality> = (0..self.num_relations)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=23 => Cardinality::OneToOne,
                24..=46 => Cardinality::OneToMany,
                47..=75 => Cardinality::ManyToOne,
                _ => Cardinality::ManyToMany,
            })
            .collect();

        let mut seen: HashSet<Triple> = HashSet::with_capacity(self.num_triples * 2);
        let mut store = TripleStore::with_capacity(self.num_triples);
        let max_attempts = self.num_triples.saturating_mul(20).max(1000);
        let mut attempts = 0;
        // Per-relation anchor entities give 1-N / N-1 relations their shape:
        // a small pool on the "one" side.
        let anchors: Vec<u32> = (0..self.num_relations)
            .map(|_| rng.gen_range(0..self.num_entities as u32))
            .collect();
        while store.len() < self.num_triples && attempts < max_attempts {
            attempts += 1;
            let r = rel_sampler.sample(&mut rng) as u32;
            let (h, t) = match cardinality[r as usize] {
                Cardinality::OneToOne => {
                    let h = head_sampler.sample(&mut rng) as u32;
                    let t =
                        ((head_sampler.sample(&mut rng) + tail_offset) % self.num_entities) as u32;
                    (h, t)
                }
                Cardinality::OneToMany => {
                    // Few heads (anchor neighborhood), many tails.
                    let h = (anchors[r as usize] as usize
                        + rng.gen_range(0..8).min(self.num_entities - 1))
                        as u32
                        % self.num_entities as u32;
                    let t =
                        ((head_sampler.sample(&mut rng) + tail_offset) % self.num_entities) as u32;
                    (h, t)
                }
                Cardinality::ManyToOne => {
                    let h = head_sampler.sample(&mut rng) as u32;
                    let t = (anchors[r as usize] as usize
                        + rng.gen_range(0..8).min(self.num_entities - 1))
                        as u32
                        % self.num_entities as u32;
                    (h, t)
                }
                Cardinality::ManyToMany => {
                    let h = head_sampler.sample(&mut rng) as u32;
                    let t =
                        ((head_sampler.sample(&mut rng) + tail_offset) % self.num_entities) as u32;
                    (h, t)
                }
            };
            if h == t {
                continue;
            }
            let triple = Triple::new(h, r, t);
            if seen.insert(triple) {
                store.push(triple);
            }
        }
        Dataset::from_single_store(
            self.name.clone(),
            self.num_entities,
            self.num_relations,
            store,
            self.valid_frac,
            self.test_frac,
            self.seed.wrapping_add(1),
        )
        .expect("in-range indices and a valid split")
    }
}

/// Shape specification of one of the paper's benchmark graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperDatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Entity count (Table 3).
    pub entities: usize,
    /// Relation count (Table 3).
    pub relations: usize,
    /// Training-triple count (Table 3).
    pub triples: usize,
}

/// The seven benchmark datasets of paper Table 3.
pub const PAPER_DATASETS: [PaperDatasetSpec; 7] = [
    PaperDatasetSpec {
        name: "FB15K",
        entities: 14_951,
        relations: 1_345,
        triples: 483_142,
    },
    PaperDatasetSpec {
        name: "FB15K237",
        entities: 14_541,
        relations: 237,
        triples: 272_115,
    },
    PaperDatasetSpec {
        name: "WN18",
        entities: 40_943,
        relations: 18,
        triples: 141_442,
    },
    PaperDatasetSpec {
        name: "WN18RR",
        entities: 40_943,
        relations: 11,
        triples: 86_835,
    },
    PaperDatasetSpec {
        name: "FB13",
        entities: 67_399,
        relations: 15_342,
        triples: 316_232,
    },
    PaperDatasetSpec {
        name: "YAGO3-10",
        entities: 123_182,
        relations: 37,
        triples: 1_079_040,
    },
    PaperDatasetSpec {
        name: "BioKG",
        entities: 93_773,
        relations: 51,
        triples: 4_762_678,
    },
];

/// The COVID-19 graph of Appendix F (Table 9).
pub const COVID19_SPEC: PaperDatasetSpec = PaperDatasetSpec {
    name: "COVID-19",
    entities: 60_820,
    relations: 62,
    triples: 1_032_939,
};

impl PaperDatasetSpec {
    /// Looks a spec up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<PaperDatasetSpec> {
        PAPER_DATASETS
            .iter()
            .chain(std::iter::once(&COVID19_SPEC))
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .copied()
    }

    /// Generates a synthetic stand-in for this dataset.
    ///
    /// `scale` divides the triple **and entity** counts (keeping density
    /// roughly constant) so CI-speed runs are possible; `scale = 1` matches
    /// the paper's sizes exactly.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn generate(&self, scale: usize, seed: u64) -> Dataset {
        assert!(scale > 0, "scale must be at least 1");
        let entities = (self.entities / scale).max(16);
        let relations = (self.relations / scale).max(2);
        let triples = (self.triples / scale).max(64);
        SyntheticKgBuilder::new(entities, relations)
            .name(if scale == 1 {
                format!("synth-{}", self.name)
            } else {
                format!("synth-{}-s{scale}", self.name)
            })
            .triples(triples)
            .seed(seed)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_small_indices() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head_hits = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head_hits += 1;
            }
        }
        // Under Zipf(1.0) the top-10 of 1000 items carry ~39% of the mass.
        assert!(head_hits > n / 5, "got {head_hits}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 3, "uniform-ish expected: {min}..{max}");
    }

    #[test]
    fn builder_produces_requested_shape() {
        let ds = SyntheticKgBuilder::new(200, 10)
            .triples(1000)
            .seed(3)
            .build();
        assert_eq!(ds.num_entities, 200);
        assert_eq!(ds.num_relations, 10);
        assert_eq!(ds.total_triples(), 1000);
        ds.train.validate(200, 10).unwrap();
    }

    #[test]
    fn triples_are_distinct() {
        let ds = SyntheticKgBuilder::new(100, 4).triples(400).seed(4).build();
        let mut seen = std::collections::HashSet::new();
        for t in ds.train.iter().chain(ds.valid.iter()).chain(ds.test.iter()) {
            assert!(seen.insert(t), "duplicate triple {t:?}");
            assert_ne!(t.head, t.tail, "self-loops excluded");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticKgBuilder::new(80, 3).triples(200).seed(9).build();
        let b = SyntheticKgBuilder::new(80, 3).triples(200).seed(9).build();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn paper_specs_lookup_and_scale() {
        let spec = PaperDatasetSpec::by_name("fb15k").unwrap();
        assert_eq!(spec.entities, 14_951);
        assert!(PaperDatasetSpec::by_name("nope").is_none());
        let ds = spec.generate(100, 5);
        assert_eq!(ds.num_entities, 149);
        assert!(ds.total_triples() >= 4000); // 483142/100 rounded by dedup
    }

    #[test]
    fn covid_spec_matches_appendix_f() {
        assert_eq!(COVID19_SPEC.entities, 60_820);
        assert_eq!(COVID19_SPEC.relations, 62);
        assert_eq!(COVID19_SPEC.triples, 1_032_939);
    }
}
