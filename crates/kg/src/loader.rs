//! Loading and saving triples in tab/comma-separated text formats.
//!
//! The paper's framework accepts CSV, TTL and RDF inputs and interns entity
//! and relation labels into dense indices (stored in SQLite in the original;
//! an in-memory [`Vocab`] here). We support the common
//! `head<TAB>relation<TAB>tail` layout used by FB15K/WN18 distributions.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

use crate::{Error, Result, Triple, TripleStore};

/// A bidirectional label ⇄ index mapping for entities and relations.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    entity_to_id: HashMap<String, u32>,
    entities: Vec<String>,
    relation_to_id: HashMap<String, u32>,
    relations: Vec<String>,
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an entity label, returning its dense index.
    pub fn intern_entity(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.entity_to_id.get(label) {
            return id;
        }
        let id = self.entities.len() as u32;
        self.entities.push(label.to_string());
        self.entity_to_id.insert(label.to_string(), id);
        id
    }

    /// Interns a relation label, returning its dense index.
    pub fn intern_relation(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.relation_to_id.get(label) {
            return id;
        }
        let id = self.relations.len() as u32;
        self.relations.push(label.to_string());
        self.relation_to_id.insert(label.to_string(), id);
        id
    }

    /// Label of entity `id`, if known.
    pub fn entity(&self, id: u32) -> Option<&str> {
        self.entities.get(id as usize).map(String::as_str)
    }

    /// Label of relation `id`, if known.
    pub fn relation(&self, id: u32) -> Option<&str> {
        self.relations.get(id as usize).map(String::as_str)
    }

    /// Index of an entity label, if interned.
    pub fn entity_id(&self, label: &str) -> Option<u32> {
        self.entity_to_id.get(label).copied()
    }

    /// Index of a relation label, if interned.
    pub fn relation_id(&self, label: &str) -> Option<u32> {
        self.relation_to_id.get(label).copied()
    }

    /// Number of interned entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of interned relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }
}

/// Parses `head<sep>relation<sep>tail` lines from a reader, interning labels
/// into `vocab`. Pass `&mut reader` to keep using the reader afterwards.
///
/// Empty lines and lines starting with `#` are skipped. The separator is
/// auto-detected per line: tab if present, otherwise comma.
///
/// # Errors
///
/// Returns [`Error::Parse`] (with line number) for malformed rows and
/// [`Error::Io`] for read failures.
///
/// # Examples
///
/// ```
/// let data = "alice\tknows\tbob\nbob\tknows\tcarol\n";
/// let mut vocab = kg::Vocab::new();
/// let store = kg::load_tsv(data.as_bytes(), &mut vocab)?;
/// assert_eq!(store.len(), 2);
/// assert_eq!(vocab.num_entities(), 3);
/// # Ok::<(), kg::Error>(())
/// ```
pub fn load_tsv<R: Read>(reader: R, vocab: &mut Vocab) -> Result<TripleStore> {
    let mut store = TripleStore::new();
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let sep = if trimmed.contains('\t') { '\t' } else { ',' };
        // Fields are trimmed before the emptiness check: a whitespace-only
        // label would not survive `write_tsv`.
        let mut parts = trimmed.split(sep).map(str::trim);
        let (h, r, t) = match (parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(r), Some(t)) if !h.is_empty() && !r.is_empty() && !t.is_empty() => {
                (h, r, t)
            }
            _ => {
                return Err(Error::Parse {
                    line: lineno + 1,
                    context: format!("expected 3 fields, got {trimmed:?}"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(Error::Parse {
                line: lineno + 1,
                context: format!("expected exactly 3 fields, got extra in {trimmed:?}"),
            });
        }
        let head = vocab.intern_entity(h);
        let rel = vocab.intern_relation(r);
        let tail = vocab.intern_entity(t);
        store.push(Triple::new(head, rel, tail));
    }
    Ok(store)
}

/// Writes triples as `head<TAB>relation<TAB>tail` lines using vocabulary
/// labels (falling back to the numeric index for unknown ids).
///
/// # Errors
///
/// Returns [`Error::Io`] on write failure.
pub fn write_tsv<W: Write>(mut writer: W, store: &TripleStore, vocab: &Vocab) -> Result<()> {
    for t in store.iter() {
        let h = vocab
            .entity(t.head)
            .map(str::to_string)
            .unwrap_or_else(|| t.head.to_string());
        let r = vocab
            .relation(t.rel)
            .map(str::to_string)
            .unwrap_or_else(|| t.rel.to_string());
        let tl = vocab
            .entity(t.tail)
            .map(str::to_string)
            .unwrap_or_else(|| t.tail.to_string());
        writeln!(writer, "{h}\t{r}\t{tl}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_text() {
        let input = "a\tr1\tb\nb\tr2\tc\na\tr2\tc\n";
        let mut vocab = Vocab::new();
        let store = load_tsv(input.as_bytes(), &mut vocab).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(vocab.num_entities(), 3);
        assert_eq!(vocab.num_relations(), 2);

        let mut out = Vec::new();
        write_tsv(&mut out, &store, &vocab).unwrap();
        let mut vocab2 = Vocab::new();
        let store2 = load_tsv(out.as_slice(), &mut vocab2).unwrap();
        assert_eq!(store, store2);
    }

    #[test]
    fn csv_detection_and_comments() {
        let input = "# a comment\n\na,r,b\nc , r , d\n";
        let mut vocab = Vocab::new();
        let store = load_tsv(input.as_bytes(), &mut vocab).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(vocab.entity(0), Some("a"));
        assert_eq!(vocab.entity_id("c"), Some(2));
    }

    #[test]
    fn repeated_labels_share_ids() {
        let input = "a\tr\tb\na\tr\tb\n";
        let mut vocab = Vocab::new();
        let store = load_tsv(input.as_bytes(), &mut vocab).unwrap();
        assert_eq!(store.get(0), store.get(1));
        assert_eq!(vocab.num_entities(), 2);
    }

    #[test]
    fn malformed_lines_report_position() {
        // A whitespace-only field is empty: `write_tsv` could not round-trip
        // it.
        for input in ["a\tr\tb\nbroken line\n", "a\tr\tb\na\t \tb\n"] {
            let mut vocab = Vocab::new();
            let err = load_tsv(input.as_bytes(), &mut vocab).unwrap_err();
            match err {
                Error::Parse { line, .. } => assert_eq!(line, 2),
                other => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn too_many_fields_rejected() {
        let input = "a\tr\tb\textra\n";
        let mut vocab = Vocab::new();
        assert!(load_tsv(input.as_bytes(), &mut vocab).is_err());
    }

    #[test]
    fn vocab_lookup_api() {
        let mut v = Vocab::new();
        let a = v.intern_entity("a");
        assert_eq!(v.intern_entity("a"), a);
        assert_eq!(v.relation("?".len() as u32), None);
        assert_eq!(v.relation_id("nope"), None);
    }
}
