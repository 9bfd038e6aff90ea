//! Integration tests of the data pipeline: text loading → dataset →
//! training, and the streaming embedding store under a real model.

use kg::stream::RowFile;
use kg::{load_tsv, write_tsv, Dataset, Vocab};
use sptransx::{KgeModel, SpTransE, TrainConfig, Trainer};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sptx-integration-io");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn train_from_tsv_file() {
    // Write a small KG as TSV, load it back through the standard loader,
    // and train a model on it.
    let path = temp_dir().join("toy.tsv");
    let mut text = String::new();
    for i in 0..40 {
        text.push_str(&format!("person{}\tknows\tperson{}\n", i, (i + 1) % 40));
        text.push_str(&format!("person{}\tworks_at\tcompany{}\n", i, i % 5));
    }
    std::fs::write(&path, &text).unwrap();

    let mut vocab = Vocab::new();
    let triples = load_tsv(std::fs::File::open(&path).unwrap(), &mut vocab).unwrap();
    assert_eq!(triples.len(), 80);
    assert_eq!(vocab.num_relations(), 2);

    let ds = Dataset::from_single_store(
        "toy-tsv",
        vocab.num_entities(),
        vocab.num_relations(),
        triples,
        0.1,
        0.1,
        1,
    )
    .unwrap();

    let cfg = TrainConfig {
        epochs: 20,
        batch_size: 32,
        dim: 8,
        lr: 0.2,
        ..Default::default()
    };
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let report = trainer.run().unwrap();
    assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
}

#[test]
fn tsv_round_trip_preserves_triples() {
    let mut vocab = Vocab::new();
    let original = load_tsv("a\tr1\tb\nb\tr2\tc\nc\tr1\ta\n".as_bytes(), &mut vocab).unwrap();
    let mut buf = Vec::new();
    write_tsv(&mut buf, &original, &vocab).unwrap();
    let mut vocab2 = Vocab::new();
    let reloaded = load_tsv(buf.as_slice(), &mut vocab2).unwrap();
    assert_eq!(original, reloaded);
}

#[test]
fn model_embeddings_round_trip_through_store() {
    let ds = kg::synthetic::SyntheticKgBuilder::new(100, 5)
        .triples(600)
        .seed(3)
        .build();
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 128,
        dim: 16,
        lr: 0.1,
        ..Default::default()
    };
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    trainer.run().unwrap();
    let model = trainer.into_model();
    let emb = model.store().value(model.embedding_param());

    // Save.
    let path = temp_dir().join("trained_emb.bin");
    RowFile::write(&path, emb.rows(), emb.cols(), |r, out| {
        out.copy_from_slice(emb.row(r));
    })
    .unwrap();

    // Reload in chunks and compare exactly.
    let mut store = RowFile::open(&path).unwrap();
    assert_eq!((store.rows(), store.cols()), emb.shape());
    let mut mismatch = 0usize;
    store
        .for_each_chunk(17, |first, chunk| {
            let d = emb.cols();
            for (k, row) in chunk.chunks_exact(d).enumerate() {
                if row != emb.row(first + k) {
                    mismatch += 1;
                }
            }
        })
        .unwrap();
    assert_eq!(mismatch, 0);
}

#[test]
fn streamed_init_matches_in_memory_init() {
    // Seeding a model through the disk store must be equivalent to copying
    // the tensor directly.
    let ds = kg::synthetic::SyntheticKgBuilder::new(60, 3)
        .triples(300)
        .seed(4)
        .build();
    let cfg = TrainConfig {
        dim: 8,
        ..Default::default()
    };
    let rows = ds.num_entities + ds.num_relations;
    let pretrained = tensor::init::uniform(rows, cfg.dim, 1.0, 9);

    let path = temp_dir().join("seed_emb.bin");
    RowFile::write(&path, rows, cfg.dim, |r, out| {
        out.copy_from_slice(pretrained.row(r));
    })
    .unwrap();

    let mut model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb_id = model.embedding_param();
    {
        let mut store = RowFile::open(&path).unwrap();
        let target = model.store_mut().value_mut(emb_id);
        store
            .for_each_chunk(13, |first, chunk| {
                let d = target.cols();
                target.as_mut_slice()[first * d..first * d + chunk.len()].copy_from_slice(chunk);
            })
            .unwrap();
    }
    assert_eq!(
        model.store().value(emb_id).as_slice(),
        pretrained.as_slice()
    );
}
