//! Smoke test of the facade crate's `prelude` re-exports: if a future PR
//! breaks the workspace wiring (a crate rename, a dropped re-export, a
//! signature change in the happy path), this catches it with one cheap
//! end-to-end run instead of a downstream compile error in user code.

use sptransx_repro::prelude::*;

#[test]
fn prelude_supports_the_quickstart_flow() {
    // Synthetic dataset via the re-exported `kg` module.
    let dataset = kg::synthetic::SyntheticKgBuilder::new(80, 4)
        .triples(400)
        .seed(11)
        .build();
    assert_eq!(dataset.num_entities, 80);
    assert!(!dataset.train.is_empty());

    // One epoch of the paper's flagship model through the re-exported types.
    let config = TrainConfig {
        epochs: 1,
        batch_size: 64,
        dim: 8,
        ..Default::default()
    };
    let model = SpTransE::from_config(&dataset, &config).expect("model construction");
    let mut trainer = Trainer::new(model, &dataset, &config).expect("trainer construction");
    let report = trainer.run().expect("training run");

    assert_eq!(report.epoch_losses.len(), 1);
    let loss = report.epoch_losses[0];
    assert!(loss.is_finite(), "loss should be finite, got {loss}");
    assert!(
        loss > 0.0,
        "margin loss on random embeddings should be positive, got {loss}"
    );
}

#[test]
fn prelude_exposes_sparse_and_tensor_types() {
    // The sparse re-export builds.
    let csr = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]).expect("csr");
    assert_eq!(csr.nnz(), 2);

    // The tensor re-export constructs and reads back.
    let t = Tensor::from_rows(&[[1.0f32, 2.0], [3.0, 4.0]]);
    assert_eq!(t.rows(), 2);

    // Dataset/TripleStore types are nameable through the prelude.
    fn takes_dataset(_: &Dataset) {}
    fn takes_store(_: &TripleStore) {}
    let ds = kg::synthetic::SyntheticKgBuilder::new(10, 2)
        .triples(30)
        .seed(1)
        .build();
    takes_dataset(&ds);
    takes_store(&ds.train);
}
