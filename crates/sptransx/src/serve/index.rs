//! IVF-style (inverted-file) ANN candidate index over entity embeddings.
//!
//! The serving engine must not score all `N` entities per query. Following
//! the clustering/IVF recipe Helmsman applies at billion scale, the entity
//! embeddings are partitioned by k-means into `K` clusters; a query probes
//! the `nprobe` nearest cluster centroids and rescores only the entities in
//! those clusters — `nprobe` is the cost/recall knob (`nprobe == K` degrades
//! to an exact full scan).
//!
//! **One distance kernel.** Every centroid distance — the k-means
//! assignment of the build and the cluster ranking of every probe — is
//! [`tensor::RowScore::panel_distances`] under `SquaredL2` over a *panel*:
//! the centroids transposed into blocks of [`PANEL_LANES`] = 16, column `j`
//! of a block's centroids stored together. One entity (or query) row
//! advances its 16 distances at once, and each lane is bit-equal to
//! `RowScore::SquaredL2.distance` on its pair, so the argmin walks the lanes
//! in ascending cluster order with a strict `<` and picks what the
//! row-at-a-time scan picked. The serving engine's resident walk folds its
//! entity panels with the same terms and adds, through the kernel's
//! early-exit form (`panel_distances_within`). The index bytes are those of the
//! row-major scan the panel replaced; `kernel_golden` pins them. The panel is
//! derived from the row-major centroids at build and at load, and only the
//! row-major centroids are written to disk.
//!
//! **Eight lanes where the CPU has them.** The assignment (one dispatch per
//! pool chunk) and each probe's block scan run through
//! [`xparallel::Isa::run`]: on a CPU with AVX2 the same loop is compiled
//! 8 lanes wide (two registers per 16-lane accumulator instead of four),
//! with the same IEEE operations in the same order per lane and no FMA, so
//! the assignments, the index bytes and every probe order are the baseline
//! loop's. At 8 lanes one entity's 16 sums are two dependent add chains,
//! so the assignment walks each block with two entities at once
//! ([`tensor::RowScore::panel_distances_rows`], each entity's lanes bit-equal
//! to its own pass): four chains, bound by the adder ports instead of the
//! add latency. The k-means is ≈ 98 % of building an index; its assignment
//! costs about `(iters + 1) × N × ⌈K/16⌉` entity × block passes, which
//! `benches/serve.rs` times at each instruction set.
//!
//! **Determinism contract:** [`IvfIndex::build`] produces a bit-identical
//! index at any [`PoolHandle`] width (and therefore any `SPTX_NUM_THREADS`):
//! the parallel assignment step computes each entity's nearest centroid
//! independently (per-element work, destination-sharded writes), and the
//! centroid update folds entities serially in index order into `f64`
//! accumulators. Ties (equidistant centroids) resolve to the lowest cluster
//! index; empty clusters are re-seeded on the farthest entity, lowest index
//! first.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use kg::stream;
use tensor::{RowScore, PANEL_LANES};
use xparallel::{Isa, PoolHandle};

use crate::{Error, Result};

/// On-disk magic of a serialized [`IvfIndex`].
const MAGIC: &[u8; 8] = b"SPTXIVF1";

/// K-means build parameters for [`IvfIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of clusters `K` (clamped to the entity count).
    pub clusters: usize,
    /// Lloyd iterations (assignment + centroid update rounds); at least 1.
    pub iters: usize,
    /// Seed for the initial centroid draw.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            clusters: 64,
            iters: 8,
            seed: 0x1DF,
        }
    }
}

impl IvfConfig {
    /// A square-root-of-`N` cluster count — the usual IVF starting point —
    /// with the default iteration count and seed.
    pub fn sqrt_clusters(num_entities: usize) -> Self {
        let clusters = ((num_entities as f64).sqrt().round() as usize).max(1);
        Self {
            clusters,
            ..Default::default()
        }
    }
}

/// A k-means inverted-file index over the first `N` rows of an embedding
/// matrix.
///
/// Inverted lists are stored CSR-style (`indptr` / `entities`), entities
/// ascending within each cluster, so serialization is canonical: two builds
/// that agree on assignments produce byte-identical files.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    dim: usize,
    /// `K × dim`, row-major: what [`IvfIndex::save`] writes.
    centroids: Vec<f32>,
    /// The same centroids as the distance kernel reads them.
    panel: Panel,
    /// `K + 1` offsets into `entities`.
    indptr: Vec<u32>,
    /// Concatenated per-cluster entity ids, ascending within each cluster.
    entities: Vec<u32>,
}

impl IvfIndex {
    /// Builds the index by k-means over rows `0..num_entities` of the
    /// row-major `emb` buffer (row width `dim`).
    ///
    /// `emb` may be the stacked `(N + R) × d` serving matrix; only the
    /// leading entity rows are clustered. Results are bit-identical at any
    /// `handle` width — see the module docs for the mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `num_entities == 0`, `dim == 0`,
    /// `cfg.clusters == 0`, `cfg.iters == 0`, `emb` is shorter than
    /// `num_entities * dim`, or an entity row holds a NaN or an infinity
    /// (the message names the first one's row and column).
    pub fn build(
        emb: &[f32],
        num_entities: usize,
        dim: usize,
        cfg: &IvfConfig,
        handle: &PoolHandle,
    ) -> Result<Self> {
        if num_entities == 0 || dim == 0 {
            return Err(Error::config("IVF index needs entities and a dimension"));
        }
        if cfg.clusters == 0 {
            return Err(Error::config("IVF cluster count must be positive"));
        }
        if cfg.iters == 0 {
            return Err(Error::config(
                "IVF k-means iteration count must be positive",
            ));
        }
        if emb.len() < num_entities * dim {
            return Err(Error::config(format!(
                "embedding buffer holds {} values, need {} for {num_entities} x {dim}",
                emb.len(),
                num_entities * dim
            )));
        }
        let k = cfg.clusters.min(num_entities);
        let ent = &emb[..num_entities * dim];
        // One NaN would become a NaN centroid that no distance is below,
        // holding only its own row while another cluster empties.
        if let Some(i) = ent.iter().position(|x| !x.is_finite()) {
            return Err(Error::config(format!(
                "entity row {} column {} is {}: an IVF index needs finite embeddings",
                i / dim,
                i % dim,
                ent[i]
            )));
        }

        // Initial centroids: k distinct seeded-random entities (partial
        // Fisher–Yates over the id range).
        let mut centroids = vec![0f32; k * dim];
        {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
            let mut pool: Vec<u32> = (0..num_entities as u32).collect();
            for (c, centroid) in centroids.chunks_exact_mut(dim).enumerate() {
                let j = rng.gen_range(c..num_entities);
                pool.swap(c, j);
                let e = pool[c] as usize;
                centroid.copy_from_slice(&ent[e * dim..(e + 1) * dim]);
            }
        }

        // Per-entity (nearest cluster, squared distance) pairs; one slice so
        // the parallel pass needs a single destination-sharded loop.
        let mut assign: Vec<(u32, f32)> = vec![(0, 0.0); num_entities];
        let isa = Isa::detected();
        for _ in 0..cfg.iters {
            let panel = Panel::new(&centroids, dim);
            assign_nearest(isa, ent, &panel, handle, &mut assign);
            update_centroids(ent, dim, k, &assign, &mut centroids);
        }
        // Final assignment against the final centroids, so the inverted
        // lists match what `probe` will compute at query time.
        let panel = Panel::new(&centroids, dim);
        assign_nearest(isa, ent, &panel, handle, &mut assign);

        // Inverted lists: one counting pass, one placement pass in entity
        // order — ascending ids within each cluster by construction.
        let mut counts = vec![0u32; k];
        for &(c, _) in &assign {
            counts[c as usize] += 1;
        }
        let mut indptr = vec![0u32; k + 1];
        for c in 0..k {
            indptr[c + 1] = indptr[c] + counts[c];
        }
        let mut cursor = indptr[..k].to_vec();
        let mut entities = vec![0u32; num_entities];
        for (e, &(c, _)) in assign.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            entities[*slot as usize] = e as u32;
            *slot += 1;
        }
        Ok(Self {
            dim,
            centroids,
            panel,
            indptr,
            entities,
        })
    }

    /// Embedding dimension the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Total number of indexed entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// The entity ids assigned to cluster `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_clusters()`.
    pub fn cluster(&self, c: usize) -> &[u32] {
        &self.entities[self.range(c)]
    }

    /// Centroid `c` as a `dim`-length row — what the panel is derived from
    /// and what [`IvfIndex::save`] writes.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_clusters()`.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// The list positions of cluster `c`: `entities[range(c)]` is
    /// [`IvfIndex::cluster`]`(c)`, and a table stored in list order holds
    /// those entities' rows at exactly these rows.
    pub(crate) fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.indptr[c] as usize..self.indptr[c + 1] as usize
    }

    /// The concatenated lists: position `p` holds entity `list_order()[p]`.
    /// A permutation of `0..num_entities()`.
    pub(crate) fn list_order(&self) -> &[u32] {
        &self.entities
    }

    /// The `nprobe` clusters nearest to `q` under squared L2 distance,
    /// nearest first; equidistant centroids resolve to the lower index.
    /// `nprobe` is clamped to `1..=num_clusters()`.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != dim()`.
    pub fn nearest_clusters(&self, q: &[f32], nprobe: usize) -> Vec<u32> {
        let mut order = Vec::new();
        self.nearest_clusters_into(q, nprobe, &mut order);
        order.into_iter().map(|(c, _)| c).collect()
    }

    /// [`IvfIndex::nearest_clusters`] into `order`, each cluster with its
    /// squared distance to `q`. The buffer is reused: a caller that keeps it
    /// allocates nothing here once it holds every cluster.
    pub(crate) fn nearest_clusters_into(
        &self,
        q: &[f32],
        nprobe: usize,
        order: &mut Vec<(u32, f32)>,
    ) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        order.clear();
        Isa::detected().run(
            #[inline(always)]
            || {
                self.panel.for_each_block(q, |first, dists| {
                    order.extend((first as u32..).zip(dists.iter().copied()));
                })
            },
        );
        // Selection, then a sort of the kept prefix: `(distance, id)` is a
        // strict total order, so this is the full sort's prefix.
        super::keep_top_k(order, nprobe.clamp(1, self.num_clusters()));
    }

    /// Appends the candidate entities of the `nprobe` clusters nearest to
    /// `q` onto `out` (cleared first). Candidate count is the per-query
    /// scan cost the `nprobe` knob trades against recall.
    pub fn probe(&self, q: &[f32], nprobe: usize, out: &mut Vec<u32>) {
        out.clear();
        for c in self.nearest_clusters(q, nprobe) {
            out.extend_from_slice(self.cluster(c as usize));
        }
    }

    /// Serializes the index through the row file's codecs: magic, `u64`
    /// dim / clusters / entity count, centroids (`f32` LE), indptr and
    /// entity lists (`u32` LE).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on any I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let write = || {
            let mut w = BufWriter::new(File::create(path)?);
            let words = [self.dim, self.num_clusters(), self.entities.len()];
            stream::write_header(&mut w, MAGIC, &words.map(|v| v as u64))?;
            let mut buf = Vec::new();
            stream::write_le(&mut w, &mut buf, &self.centroids)?;
            stream::write_le(&mut w, &mut buf, &self.indptr)?;
            stream::write_le(&mut w, &mut buf, &self.entities)?;
            w.flush()
        };
        write().map_err(|e| Error::serve(format!("writing IVF index: {e}")))
    }

    /// Deserializes an index written by [`IvfIndex::save`], validating the
    /// magic, the exact file length and that the lists partition `0..n`: a
    /// corrupt file is an error, never a panic here or in a later probe.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on I/O failure or any consistency violation.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let read = || -> kg::Result<Self> {
            let mut file = File::open(path)?;
            let [dim, k, n] = stream::read_header(&mut file, MAGIC, |[dim, k, n]| {
                (dim > 0 && k > 0).then_some(())?;
                let words = k.checked_mul(dim)?.checked_add(k)?.checked_add(1)?;
                words.checked_add(n)?.checked_mul(4)
            })?
            .map(|w| w as usize); // the codec checked each fits
            let (mut centroids, mut indptr, mut entities) =
                (vec![0.0; k * dim], vec![0; k + 1], vec![0; n]);
            let mut buf = Vec::new();
            stream::read_le(&mut file, &mut buf, &mut centroids)?;
            stream::read_le(&mut file, &mut buf, &mut indptr)?;
            stream::read_le(&mut file, &mut buf, &mut entities)?;
            Ok(Self {
                dim,
                panel: Panel::new(&centroids, dim),
                centroids,
                indptr,
                entities,
            })
        };
        let index = read().map_err(|e| Error::serve(format!("reading IVF index: {e}")))?;
        // `probe` hands the ids to table rows: each of `0..n` exactly once.
        let (ptr, mut ids) = (&index.indptr, index.entities.clone());
        ids.sort_unstable();
        let partition = ptr[0] == 0
            && ptr[ptr.len() - 1] as usize == ids.len()
            && ptr.windows(2).all(|w| w[0] <= w[1])
            && ids.iter().enumerate().all(|(i, &e)| e as usize == i);
        if !partition {
            let msg = "IVF index inverted lists are not a partition of the entities";
            return Err(Error::serve(msg));
        }
        Ok(index)
    }
}

/// The centroids transposed for the distance kernel: block `b` holds
/// centroids `16b .. 16b + 16`, column by column —
/// `data[(b·dim + j)·PANEL_LANES + l]` is column `j` of centroid
/// `b·PANEL_LANES + l`.
/// The last block's lanes past `K` hold `0.0`; their distances are computed
/// and never reported.
#[derive(Debug, Clone, PartialEq)]
struct Panel {
    k: usize,
    dim: usize,
    data: Vec<f32>,
}

impl Panel {
    /// Transposes `K × dim` row-major centroids.
    fn new(centroids: &[f32], dim: usize) -> Self {
        let k = centroids.len() / dim;
        let mut data = vec![0.0; k.div_ceil(PANEL_LANES) * dim * PANEL_LANES];
        for (c, row) in centroids.chunks_exact(dim).enumerate() {
            let block = &mut data[c / PANEL_LANES * dim * PANEL_LANES..];
            for (j, &v) in row.iter().enumerate() {
                block[j * PANEL_LANES + c % PANEL_LANES] = v;
            }
        }
        Self { k, dim, data }
    }

    /// Calls `f(first, distances)` for every block in ascending cluster
    /// order: the squared L2 distances from `x` to centroids `first ..
    /// first + distances.len()`, each bit-equal to
    /// `RowScore::SquaredL2.distance(x, centroid)`. Always inlined, so it is
    /// compiled into whichever [`Isa::run`] trampoline its caller runs.
    #[inline(always)]
    fn for_each_block(&self, x: &[f32], mut f: impl FnMut(usize, &[f32])) {
        let mut dists = [0.0f32; PANEL_LANES];
        for (b, block) in self.data.chunks_exact(self.dim * PANEL_LANES).enumerate() {
            RowScore::SquaredL2.panel_distances(x, block, &mut dists);
            let first = b * PANEL_LANES;
            f(first, &dists[..PANEL_LANES.min(self.k - first)]);
        }
    }

    /// The nearest centroid to each of the rows `x` and its squared
    /// distance; ties resolve to the lowest cluster index. One pass over a
    /// block's columns advances all `R` rows' 16 distances, each bit-equal to
    /// `RowScore::SquaredL2.distance(x[r], centroid)`.
    #[inline(always)]
    fn nearest<const R: usize>(&self, x: [&[f32]; R]) -> [(u32, f32); R] {
        let mut best = [(0u32, f32::INFINITY); R];
        let mut dists = [[0.0f32; PANEL_LANES]; R];
        for (b, block) in self.data.chunks_exact(self.dim * PANEL_LANES).enumerate() {
            RowScore::SquaredL2.panel_distances_rows(x, block, &mut dists);
            let first = b * PANEL_LANES;
            let lanes = PANEL_LANES.min(self.k - first);
            for (best, dists) in best.iter_mut().zip(&dists) {
                for (c, &d) in (first as u32..).zip(&dists[..lanes]) {
                    if d < best.1 {
                        *best = (c, d);
                    }
                }
            }
        }
        best
    }
}

/// Parallel nearest-centroid assignment. Each entity's argmin is computed
/// independently (ties → lowest cluster index) and written to exactly one
/// destination slot, so the result is identical at any handle width. Each
/// pool chunk's loop runs through one `isa` dispatch; either twin gives the
/// same bits.
fn assign_nearest(
    isa: Isa,
    ent: &[f32],
    panel: &Panel,
    handle: &PoolHandle,
    assign: &mut [(u32, f32)],
) {
    let dim = panel.dim;
    handle.for_mut(assign, 64, |offset, chunk| {
        isa.run(
            #[inline(always)]
            || {
                // Two entities per pass over a block: at 8 lanes one
                // entity's 16 sums are only two dependent add chains.
                let row = |e: usize| &ent[e * dim..(e + 1) * dim];
                let end = offset + chunk.len();
                let mut pairs = chunk.chunks_exact_mut(2);
                for (e, slots) in (offset..).step_by(2).zip(&mut pairs) {
                    [slots[0], slots[1]] = panel.nearest([row(e), row(e + 1)]);
                }
                if let [slot] = pairs.into_remainder() {
                    [*slot] = panel.nearest([row(end - 1)]);
                }
            },
        )
    });
}

/// Serial centroid update in entity order (`f64` accumulators), then
/// deterministic re-seeding of empty clusters on the farthest entities.
fn update_centroids(
    ent: &[f32],
    dim: usize,
    k: usize,
    assign: &[(u32, f32)],
    centroids: &mut [f32],
) {
    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0u64; k];
    for (e, &(c, _)) in assign.iter().enumerate() {
        let c = c as usize;
        counts[c] += 1;
        let row = &ent[e * dim..(e + 1) * dim];
        for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
            *s += f64::from(x);
        }
    }
    let mut reseeded: Vec<u32> = Vec::new();
    for c in 0..k {
        if counts[c] == 0 {
            // Farthest entity not already used for another empty cluster,
            // lowest id on ties — deterministic.
            let mut best_e = 0usize;
            let mut best_d = f32::NEG_INFINITY;
            for (e, &(_, d)) in assign.iter().enumerate() {
                if d > best_d && !reseeded.contains(&(e as u32)) {
                    best_d = d;
                    best_e = e;
                }
            }
            reseeded.push(best_e as u32);
            centroids[c * dim..(c + 1) * dim]
                .copy_from_slice(&ent[best_e * dim..(best_e + 1) * dim]);
        } else {
            let inv = 1.0 / counts[c] as f64;
            for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *dst = (s * inv) as f32;
            }
        }
    }
}
