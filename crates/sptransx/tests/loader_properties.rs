//! Loader properties (ROADMAP 7(e)): every on-disk loader of a row table or
//! an index returns `Ok` or a typed error on a damaged file — never a panic,
//! then or later.
//!
//! Both formats go through `kg::stream`'s one header codec, so both get the
//! same inputs: every truncation of a small valid file, every single-bit
//! flip of its header, and a stride of bit flips through its body. A row
//! file that opens must read back whole; an index that loads must probe
//! every cluster through the resident and the paged `ServeEngine` arm.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use kg::stream::RowFile;
use sptransx::serve::{Direction, IvfConfig, IvfIndex, PagedRows, Query, ServeEngine, ServeModel};
use sptransx::{Error, FileRowStorage, Norm};
use tensor::{RowStorage, VecStorage};

const ENTITIES: usize = 40;
const RELATIONS: usize = 3;
const DIM: usize = 4;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sptx-loader-properties");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}", std::process::id()))
}

/// A fixed stacked `(ENTITIES + RELATIONS) × DIM` table of exact binary
/// fractions.
fn stack() -> Vec<f32> {
    (0..((ENTITIES + RELATIONS) * DIM) as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 12) as f32 / 1_048_576.0 - 2.0)
        .collect()
}

/// Every truncation of `valid`, every bit flip of its first `header_len`
/// bytes, and every `stride`-th bit flip after them.
fn damaged(valid: &[u8], header_len: usize, stride: usize) -> Vec<(String, Vec<u8>)> {
    let flip = |bit: usize| {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), bytes)
    };
    (0..valid.len())
        .map(|cut| (format!("cut to {cut} bytes"), valid[..cut].to_vec()))
        .chain((0..header_len * 8).map(flip))
        .chain((header_len * 8..valid.len() * 8).step_by(stride).map(flip))
        .collect()
}

/// Writes each input to `path` and runs `load` on it. Returns the inputs
/// that panicked, and how many `load` accepted.
fn run_all(
    path: &Path,
    inputs: Vec<(String, Vec<u8>)>,
    load: impl Fn(&Path) -> bool,
) -> (Vec<String>, usize) {
    let mut panicked = Vec::new();
    let mut accepted = 0;
    for (what, bytes) in inputs {
        std::fs::write(path, &bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| load(path))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panicked.push(what),
        }
    }
    (panicked, accepted)
}

#[test]
fn damaged_row_files_are_errors_not_panics() {
    let path = temp_path("dump.bin");
    let table = stack();
    RowFile::write(&path, ENTITIES + RELATIONS, DIM, |r, out| {
        out.copy_from_slice(&table[r * DIM..(r + 1) * DIM]);
    })
    .unwrap();
    let valid = std::fs::read(&path).unwrap();
    let (panicked, accepted) = run_all(&path, damaged(&valid, 24, 7), |p| {
        // The three ways a dump is opened: the handle, the serving model and
        // the serving store.
        let model = ServeModel::load(p, ENTITIES, Norm::L2);
        let storage = FileRowStorage::open(p);
        assert_eq!(model.is_ok(), storage.is_ok());
        let Ok(mut f) = RowFile::open(p) else {
            return false;
        };
        let rows = f.rows();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let all = f.read_rows(0, rows).expect("an opened file reads whole");
        let mut chunks = Vec::new();
        f.for_each_chunk(5, |_, chunk| chunks.extend(bits(chunk)))
            .unwrap();
        assert_eq!(chunks, bits(&all));
        assert!(f.read_rows(rows, 1).is_err());
        let mut storage = storage.unwrap();
        let mut row = vec![0.0; storage.cols()];
        storage.read_rows_into(rows - 1, 1, &mut row).unwrap();
        true
    });
    std::fs::remove_file(&path).ok();
    assert!(
        panicked.is_empty(),
        "a row-file loader panicked on: {panicked:?}"
    );
    // Every body flip opens (it only changes a value); nothing else does.
    assert_eq!(accepted, ((valid.len() - 24) * 8).div_ceil(7));
}

#[test]
fn damaged_indexes_are_errors_not_panics() {
    let table = stack();
    let cfg = IvfConfig {
        clusters: 5,
        iters: 3,
        seed: 9,
    };
    let index = IvfIndex::build(
        &table,
        ENTITIES,
        DIM,
        &cfg,
        &xparallel::PoolHandle::global(),
    )
    .unwrap();
    let path = temp_path("index.ivf");
    index.save(&path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let model =
        ServeModel::from_stacked(table.clone(), ENTITIES, RELATIONS, DIM, Norm::L2).unwrap();
    let mut storage = VecStorage::new(ENTITIES + RELATIONS, DIM);
    storage.write_rows(0, ENTITIES + RELATIONS, &table).unwrap();
    let queries = [(Direction::Tail, 0, 0), (Direction::Head, 39, 2)]
        .map(|(dir, entity, rel)| Query { dir, entity, rel });

    let (panicked, accepted) = run_all(&path, damaged(&valid, 32, 3), |p| {
        let Ok(index) = IvfIndex::load(p) else {
            return false;
        };
        let k = index.num_clusters();
        let Ok(mut engine) = ServeEngine::new(model.clone(), index) else {
            return true;
        };
        let storage = Box::new(storage.clone());
        let mut rows = PagedRows::new(storage, ENTITIES + RELATIONS).unwrap();
        for q in &queries {
            let ann = engine.answer_ann(q, 10, k);
            assert_eq!(
                ann.scored, ENTITIES,
                "probing every cluster scans every entity"
            );
            let paged = engine.answer_ann_paged(&mut rows, q, 10, k).unwrap();
            assert_eq!(paged.scored, ENTITIES);
        }
        true
    });
    assert!(
        panicked.is_empty(),
        "an index loader panicked on: {panicked:?}"
    );
    // Centroid flips only change values, so some damaged indexes load.
    assert!(accepted > 1, "only {accepted} inputs loaded");

    // Entity ids outside `0..n` (the `sptx serve` crash of 0c0bd16), and a
    // duplicate: each list of the partition is checked, not just `indptr`.
    let lists = 32 + 4 * index.num_clusters() * DIM + 4 * (index.num_clusters() + 1);
    let first = u32::from_le_bytes(valid[lists..lists + 4].try_into().unwrap());
    for (at, id) in [
        (lists, 0x7fff_0000),
        (lists, ENTITIES as u32),
        (lists + 4, first),
    ] {
        let mut bytes = valid.clone();
        bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(IvfIndex::load(&path), Err(Error::Serve { .. })),
            "id {id:#x} at byte {at} must be rejected"
        );
    }

    // `dim = clusters = 2³³`: the body length overflows `u64`.
    let mut bytes = valid.clone();
    for word in [8, 16] {
        bytes[word..word + 8].copy_from_slice(&(1u64 << 33).to_le_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(IvfIndex::load(&path), Err(Error::Serve { .. })));
    std::fs::remove_file(&path).ok();
}
