//! A complete dataset: entity/relation counts plus train/valid/test splits.

use crate::{Result, TripleSet, TripleStore};

/// A knowledge-graph dataset with standard splits.
///
/// # Examples
///
/// ```
/// use kg::{Dataset, Triple, TripleStore};
///
/// let train: TripleStore = [Triple::new(0, 0, 1)].into_iter().collect();
/// let ds = Dataset::new("toy", 2, 1, train, TripleStore::new(), TripleStore::new())?;
/// assert_eq!(ds.total_triples(), 1);
/// # Ok::<(), kg::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"FB15K"` or `"synth-fb15k"`).
    pub name: String,
    /// Number of distinct entities.
    pub num_entities: usize,
    /// Number of distinct relations.
    pub num_relations: usize,
    /// Training triples.
    pub train: TripleStore,
    /// Validation triples.
    pub valid: TripleStore,
    /// Test triples.
    pub test: TripleStore,
}

impl Dataset {
    /// Assembles and validates a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::IndexOutOfBounds`] if any split references an
    /// entity or relation outside the declared counts.
    pub fn new(
        name: impl Into<String>,
        num_entities: usize,
        num_relations: usize,
        train: TripleStore,
        valid: TripleStore,
        test: TripleStore,
    ) -> Result<Self> {
        train.validate(num_entities, num_relations)?;
        valid.validate(num_entities, num_relations)?;
        test.validate(num_entities, num_relations)?;
        Ok(Self {
            name: name.into(),
            num_entities,
            num_relations,
            train,
            valid,
            test,
        })
    }

    /// Total triples across all splits.
    pub fn total_triples(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// The set of all known triples (for the filtered evaluation protocol).
    pub fn all_known(&self) -> TripleSet {
        TripleSet::from_stores([&self.train, &self.valid, &self.test])
    }

    /// Splits a single store into train/valid/test by the given fractions
    /// (deterministic shuffle with `seed`); remainder goes to train.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidSplit`] unless both fractions are
    /// non-negative numbers summing below `1.0`, and
    /// [`crate::Error::IndexOutOfBounds`] as [`Dataset::new`] does.
    pub fn from_single_store(
        name: impl Into<String>,
        num_entities: usize,
        num_relations: usize,
        all: TripleStore,
        valid_frac: f64,
        test_frac: f64,
        seed: u64,
    ) -> Result<Self> {
        // Written so that a NaN fraction fails every comparison.
        if !(valid_frac >= 0.0 && test_frac >= 0.0 && valid_frac + test_frac < 1.0) {
            return Err(crate::Error::InvalidSplit {
                context: format!(
                    "valid {valid_frac} and test {test_frac} must be non-negative fractions \
                     summing below 1 (train gets the rest)"
                ),
            });
        }
        let shuffled = all.shuffled(seed);
        let n = shuffled.len();
        let n_valid = (n as f64 * valid_frac) as usize;
        let n_test = (n as f64 * test_frac) as usize;
        let valid = shuffled.slice(0..n_valid);
        let test = shuffled.slice(n_valid..n_valid + n_test);
        let train = shuffled.slice(n_valid + n_test..n);
        Self::new(name, num_entities, num_relations, train, valid, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triple;

    fn store(n: u32) -> TripleStore {
        (0..n)
            .map(|i| Triple::new(i % 5, i % 2, (i + 1) % 5))
            .collect()
    }

    #[test]
    fn new_validates_all_splits() {
        let bad = Dataset::new("x", 3, 2, store(20), TripleStore::new(), TripleStore::new());
        assert!(bad.is_err());
        let ok = Dataset::new("x", 5, 2, store(20), TripleStore::new(), TripleStore::new());
        assert!(ok.is_ok());
    }

    #[test]
    fn single_store_split_fractions() {
        let ds = Dataset::from_single_store("x", 5, 2, store(100), 0.1, 0.2, 7).unwrap();
        assert_eq!(ds.valid.len(), 10);
        assert_eq!(ds.test.len(), 20);
        assert_eq!(ds.train.len(), 70);
        assert_eq!(ds.total_triples(), 100);
    }

    #[test]
    fn all_known_unions_splits() {
        let ds = Dataset::from_single_store("x", 5, 2, store(50), 0.2, 0.2, 7).unwrap();
        let known = ds.all_known();
        for t in ds.test.iter() {
            assert!(known.contains(&t));
        }
    }

    #[test]
    #[should_panic(expected = "InvalidSplit")]
    fn rejects_degenerate_split() {
        Dataset::from_single_store("x", 5, 2, store(10), 0.5, 0.5, 7).unwrap();
    }

    #[test]
    fn rejects_negative_and_nan_fractions() {
        for (valid, test) in [
            (-0.1, 0.1),
            (0.1, -0.1),
            (0.0, f64::NAN),
            (f64::NAN, 0.0),
            (0.0, 1.5),
        ] {
            let split = Dataset::from_single_store("x", 5, 2, store(10), valid, test, 7);
            assert!(
                matches!(split, Err(crate::Error::InvalidSplit { .. })),
                "{valid} / {test}"
            );
        }
    }
}
