//! TSV loader properties (ROADMAP 7(e)): whatever bytes it is given,
//! `load_tsv` returns `Ok` or a typed error — never a panic — and whatever it
//! accepts survives `write_tsv` → `load_tsv` with the same triples and the
//! same labels.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use kg::{load_tsv, write_tsv, TripleStore, Vocab};

/// The text the loader's decisions turn on — both separators, whitespace
/// (one of it multi-byte), the comment marker and line ends — plus two label
/// letters. Invalid UTF-8 is the arbitrary-bytes property's to find.
const TOKENS: [&str; 9] = ["a", "b", "\t", " ", ",", "#", "\n", "\r", "\u{a0}"];

fn load(bytes: &[u8]) -> Result<(TripleStore, Vocab), kg::Error> {
    let mut vocab = Vocab::new();
    let store = catch_unwind(AssertUnwindSafe(|| load_tsv(bytes, &mut vocab)))
        .unwrap_or_else(|_| panic!("load_tsv panicked on {:?}", show(bytes)))?;
    Ok((store, vocab))
}

fn show(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

fn labels(store: &TripleStore, vocab: &Vocab) -> Vec<[String; 3]> {
    let label = |l: Option<&str>| l.expect("every id has a label").to_string();
    (store.iter())
        .map(|t| {
            let (h, r, tl) = (
                vocab.entity(t.head),
                vocab.relation(t.rel),
                vocab.entity(t.tail),
            );
            [label(h), label(r), label(tl)]
        })
        .collect()
}

/// Loads `bytes`; if they load, writes them back and loads the result.
fn check(bytes: &[u8]) {
    let Ok((store, vocab)) = load(bytes) else {
        return;
    };
    let mut written = Vec::new();
    write_tsv(&mut written, &store, &vocab).unwrap();
    let (input, output) = (show(bytes), show(&written));
    let (again, vocab_again) = load(&written)
        .unwrap_or_else(|e| panic!("{input:?} loaded, but its rewrite {output:?} did not: {e}"));
    assert_eq!(again, store, "triples of {input:?}");
    assert_eq!(
        labels(&again, &vocab_again),
        labels(&store, &vocab),
        "labels of {input:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_load_or_fail_typed(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        check(&bytes);
    }

    #[test]
    fn loaded_triples_round_trip(picks in prop::collection::vec(0..TOKENS.len(), 0..32)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check(text.as_bytes());
    }
}
