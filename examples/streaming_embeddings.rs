//! The §4.7.1 streaming path: embeddings too large for memory live in an
//! on-disk store (the paper uses memory-mapped tensors for pre-trained LLM
//! embeddings) and are visited window by window.
//!
//! This example writes a "pre-trained" embedding file, streams it back in
//! bounded-memory chunks to seed a model, trains briefly, and saves the
//! fine-tuned embeddings.
//!
//! ```sh
//! cargo run --release --example streaming_embeddings
//! ```

use kg::stream::RowFile;
use kg::synthetic::SyntheticKgBuilder;
use sptransx::{KgeModel, SpTransE, TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticKgBuilder::new(800, 10)
        .triples(6_000)
        .seed(77)
        .build();
    let config = TrainConfig {
        epochs: 10,
        batch_size: 512,
        dim: 48,
        lr: 0.05,
        ..Default::default()
    };
    let rows = dataset.num_entities + dataset.num_relations;

    let dir = std::env::temp_dir().join("sptx-streaming-example");
    std::fs::create_dir_all(&dir)?;
    let pretrained = dir.join("pretrained.bin");
    let finetuned = dir.join("finetuned.bin");

    // 1. Simulate pre-trained (e.g. LLM-derived) embeddings on disk, written
    //    row-by-row with O(dim) memory.
    let seed_emb = tensor::init::xavier_translational(rows, config.dim, 123);
    RowFile::write(&pretrained, rows, config.dim, |r, out| {
        out.copy_from_slice(seed_emb.row(r));
    })?;
    println!(
        "wrote {} rows x {} dims to {}",
        rows,
        config.dim,
        pretrained.display()
    );

    // 2. Stream them back in 256-row windows into a fresh model.
    let mut model = SpTransE::from_config(&dataset, &config)?;
    let emb_id = model.embedding_param();
    {
        let mut store = RowFile::open(&pretrained)?;
        let target = model.store_mut().value_mut(emb_id);
        let mut max_window = 0usize;
        store.for_each_chunk(256, |first, chunk| {
            max_window = max_window.max(chunk.len());
            let d = target.cols();
            target.as_mut_slice()[first * d..first * d + chunk.len()].copy_from_slice(chunk);
        })?;
        println!(
            "streamed embeddings in windows of <= {} floats ({} KiB resident)",
            max_window,
            max_window * 4 / 1024
        );
    }

    // 3. Fine-tune.
    let mut trainer = Trainer::new(model, &dataset, &config)?;
    let report = trainer.run()?;
    println!(
        "fine-tuned: loss {:.4} -> {:.4}",
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap()
    );

    // 4. Persist the result, again row-streamed.
    let trained = trainer.into_model();
    let emb = trained.store().value(trained.embedding_param());
    RowFile::write(&finetuned, rows, config.dim, |r, out| {
        out.copy_from_slice(emb.row(r));
    })?;
    println!("saved fine-tuned embeddings to {}", finetuned.display());
    Ok(())
}
