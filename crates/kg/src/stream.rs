//! File-backed embedding storage with chunked streaming reads.
//!
//! The paper's framework supports "streaming embeddings from disc storage
//! when the embeddings are too large to fit in CPU memory" via PyTorch
//! memory-mapped tensors (§4.7.1) — the use case is starting from pre-trained
//! LLM embeddings. [`EmbeddingStore`] is the Rust analog: a flat binary file
//! of little-endian `f32` rows with a header, read back row-range by
//! row-range so only the active window is resident.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::{Error, Result};

const MAGIC: &[u8; 8] = b"SPTXEMB1";

/// Byte offset of row 0: the 8-byte magic plus two `u64` shape fields.
const HEADER_LEN: u64 = 24;

fn check_row_range(rows: usize, first: usize, count: usize) -> Result<()> {
    if first + count > rows {
        return Err(Error::IndexOutOfBounds {
            context: format!("rows {first}..{} of a {rows}-row store", first + count),
        });
    }
    Ok(())
}

fn check_buffer(first: usize, count: usize, cols: usize, len: usize) -> Result<()> {
    if len != count * cols {
        return Err(Error::IndexOutOfBounds {
            context: format!(
                "buffer holds {len} floats but rows {first}..{} span {}",
                first + count,
                count * cols
            ),
        });
    }
    Ok(())
}

/// Seeks to `first` and decodes `out.len()` little-endian `f32`s through a
/// reusable byte scratch, so steady-state readers allocate nothing once the
/// scratch has grown to the largest request.
fn read_floats_at<R: Read + Seek>(
    src: &mut R,
    scratch: &mut Vec<u8>,
    first: usize,
    cols: usize,
    out: &mut [f32],
) -> Result<()> {
    let offset = HEADER_LEN + (first * cols * 4) as u64;
    src.seek(SeekFrom::Start(offset))?;
    let nbytes = out.len() * 4;
    if scratch.len() < nbytes {
        scratch.resize(nbytes, 0);
    }
    src.read_exact(&mut scratch[..nbytes])?;
    let mut cursor = &scratch[..nbytes];
    for v in out.iter_mut() {
        *v = cursor.get_f32_le();
    }
    Ok(())
}

fn encode_header(rows: usize, cols: usize) -> BytesMut {
    let mut header = BytesMut::with_capacity(HEADER_LEN as usize);
    header.put_slice(MAGIC);
    header.put_u64_le(rows as u64);
    header.put_u64_le(cols as u64);
    header
}

/// Validates the `SPTXEMB1` header and that `file_len` matches the declared
/// shape exactly, returning `(rows, cols)`.
fn decode_header(header: &[u8; 24], file_len: u64) -> Result<(usize, usize)> {
    if &header[..8] != MAGIC {
        return Err(Error::Parse {
            line: 0,
            context: "not an SPTXEMB1 embedding file".to_string(),
        });
    }
    let mut rest = &header[8..];
    let rows = rest.get_u64_le() as usize;
    let cols = rest.get_u64_le() as usize;
    let expected = (rows as u64)
        .checked_mul(cols as u64)
        .and_then(|cells| cells.checked_mul(4))
        .and_then(|body| body.checked_add(HEADER_LEN));
    match expected {
        Some(expected) if expected == file_len => Ok((rows, cols)),
        _ => Err(Error::Parse {
            line: 0,
            context: format!(
                "embedding file is {file_len} bytes but the header declares {rows} x {cols} \
                 rows (corrupt or truncated)"
            ),
        }),
    }
}

/// Writer/reader for an on-disk embedding matrix.
///
/// Layout: 8-byte magic, `u64` rows, `u64` cols, then `rows × cols`
/// little-endian `f32`s.
///
/// # Examples
///
/// ```
/// use kg::stream::EmbeddingStore;
///
/// let dir = std::env::temp_dir().join("sptx-doc-embstore");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("emb.bin");
/// EmbeddingStore::write(&path, 4, 2, |row, out| {
///     out[0] = row as f32;
///     out[1] = -(row as f32);
/// })?;
/// let mut store = EmbeddingStore::open(&path)?;
/// assert_eq!(store.rows(), 4);
/// let window = store.read_rows(1, 2)?;
/// assert_eq!(window, vec![1.0, -1.0, 2.0, -2.0]);
/// # Ok::<(), kg::Error>(())
/// ```
#[derive(Debug)]
pub struct EmbeddingStore {
    file: BufReader<File>,
    rows: usize,
    cols: usize,
    scratch: Vec<u8>,
}

impl EmbeddingStore {
    /// Writes an embedding file by invoking `fill(row, out_row)` per row.
    ///
    /// Rows are produced one at a time, so arbitrarily large matrices can be
    /// written with `O(cols)` memory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on any write failure.
    pub fn write(
        path: impl AsRef<Path>,
        rows: usize,
        cols: usize,
        mut fill: impl FnMut(usize, &mut [f32]),
    ) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&encode_header(rows, cols))?;
        let mut row_buf = vec![0f32; cols];
        let mut byte_buf = BytesMut::with_capacity(cols * 4);
        for r in 0..rows {
            fill(r, &mut row_buf);
            byte_buf.clear();
            for &v in &row_buf {
                byte_buf.put_f32_le(v);
            }
            w.write_all(&byte_buf)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Opens an embedding file, validating the header **and** the file
    /// length: a truncated or padded file is rejected here rather than
    /// surfacing as a confusing short-read error (or stale data) later.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on read failure and [`Error::Parse`] on a bad
    /// magic number or when the file size disagrees with the declared
    /// `rows × cols` shape.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let mut header = [0u8; 24];
        file.read_exact(&mut header)?;
        let (rows, cols) = decode_header(&header, file_len)?;
        Ok(Self {
            file,
            rows,
            cols,
            scratch: Vec::new(),
        })
    }

    /// Number of embedding rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads `count` rows starting at `first`, returning a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if the range exceeds the stored
    /// rows, or [`Error::Io`] on read failure.
    pub fn read_rows(&mut self, first: usize, count: usize) -> Result<Vec<f32>> {
        let mut out = vec![0f32; count * self.cols];
        self.read_rows_into(first, count, &mut out)?;
        Ok(out)
    }

    /// Reads `count` rows starting at `first` into `out`, which must hold
    /// exactly `count × cols` floats. Unlike [`Self::read_rows`] this
    /// allocates nothing once the internal byte scratch has warmed up — the
    /// hot path for demand paging, where the destination is a cache slot
    /// that outlives the call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if the range exceeds the stored
    /// rows or `out` has the wrong length, and [`Error::Io`] on read failure.
    pub fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> Result<()> {
        check_row_range(self.rows, first, count)?;
        check_buffer(first, count, self.cols, out.len())?;
        read_floats_at(&mut self.file, &mut self.scratch, first, self.cols, out)
    }

    /// Iterates the store in windows of `rows_per_chunk` rows, calling
    /// `visit(first_row, chunk)` for each — the streaming-training access
    /// pattern.
    ///
    /// # Errors
    ///
    /// Propagates any read error.
    pub fn for_each_chunk(
        &mut self,
        rows_per_chunk: usize,
        mut visit: impl FnMut(usize, &[f32]),
    ) -> Result<()> {
        let step = rows_per_chunk.max(1);
        let mut first = 0;
        while first < self.rows {
            let count = step.min(self.rows - first);
            let chunk = self.read_rows(first, count)?;
            visit(first, &chunk);
            first += count;
        }
        Ok(())
    }
}

/// Read-**write** random access to an on-disk embedding matrix, in the same
/// `SPTXEMB1` format as [`EmbeddingStore`].
///
/// This is the backing half of demand paging: the trainer's pager reads rows
/// into cache slots with [`RowFile::read_rows_into`] and writes dirty rows
/// back with [`RowFile::write_rows`]. The handle is unbuffered (reads and
/// writes interleave, so a `BufReader`'s read-ahead would go stale) and both
/// directions reuse one byte scratch, keeping steady-state paging
/// allocation-free. The scratch is **retained at the largest request** for
/// the life of the handle, so a caller that keeps the handle moves a table
/// in bounded chunks (as the pager's page-out and page-back do): a
/// whole-table `write_rows(0, rows, ..)` is for one-shot tools, since it
/// pins a second copy of the table's bytes until the file is closed.
///
/// # Examples
///
/// ```
/// use kg::stream::{EmbeddingStore, RowFile};
///
/// let dir = std::env::temp_dir().join("sptx-doc-rowfile");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("table.bin");
/// let mut f = RowFile::create(&path, 3, 2)?;
/// f.write_rows(1, 1, &[5.0, 6.0])?;
/// f.flush()?;
/// let mut row = [0.0f32; 2];
/// f.read_rows_into(1, 1, &mut row)?;
/// assert_eq!(row, [5.0, 6.0]);
/// // The file round-trips through the read-only store.
/// assert_eq!(EmbeddingStore::open(&path)?.rows(), 3);
/// # Ok::<(), kg::Error>(())
/// ```
#[derive(Debug)]
pub struct RowFile {
    file: File,
    rows: usize,
    cols: usize,
    scratch: Vec<u8>,
    /// Syscall-level transfer counters: each successful `read_rows_into` /
    /// `write_rows` call is one seek + one contiguous transfer, however
    /// many rows it covers — the observable a pager's run-coalescing
    /// improves.
    read_ops: u64,
    write_ops: u64,
}

impl RowFile {
    /// Creates (or truncates) `path` as a `rows × cols` store with an
    /// all-zero body, sized up front so every later `write_rows` is an
    /// in-place overwrite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on any filesystem failure.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&encode_header(rows, cols))?;
        file.set_len(HEADER_LEN + (rows as u64) * (cols as u64) * 4)?;
        Ok(Self {
            file,
            rows,
            cols,
            scratch: Vec::new(),
            read_ops: 0,
            write_ops: 0,
        })
    }

    /// Opens an existing store for read-write access, with the same header
    /// and exact-length validation as [`EmbeddingStore::open`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on read failure and [`Error::Parse`] on a bad
    /// magic number or a file length that disagrees with the header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; 24];
        file.read_exact(&mut header)?;
        let (rows, cols) = decode_header(&header, file_len)?;
        Ok(Self {
            file,
            rows,
            cols,
            scratch: Vec::new(),
            read_ops: 0,
            write_ops: 0,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads `count` rows starting at `first` into `out` (exactly
    /// `count × cols` floats), allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] on a bad range or buffer length,
    /// [`Error::Io`] on read failure.
    pub fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> Result<()> {
        check_row_range(self.rows, first, count)?;
        check_buffer(first, count, self.cols, out.len())?;
        self.read_ops += 1;
        read_floats_at(&mut self.file, &mut self.scratch, first, self.cols, out)
    }

    /// Overwrites `count` rows starting at `first` with `data` (exactly
    /// `count × cols` floats).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] on a bad range or buffer length,
    /// [`Error::Io`] on write failure.
    pub fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> Result<()> {
        check_row_range(self.rows, first, count)?;
        check_buffer(first, count, self.cols, data.len())?;
        self.write_ops += 1;
        let offset = HEADER_LEN + (first * self.cols * 4) as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let nbytes = data.len() * 4;
        if self.scratch.len() < nbytes {
            self.scratch.resize(nbytes, 0);
        }
        for (chunk, &v) in self.scratch.chunks_exact_mut(4).zip(data) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        self.file.write_all(&self.scratch[..nbytes])?;
        Ok(())
    }

    /// Pushes written rows down to the storage device (`fsync` on data).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the sync fails.
    pub fn flush(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Syscall-level transfer counters `(read_calls, write_calls)` since
    /// this handle was opened. Each counted call is one seek + one
    /// contiguous transfer regardless of how many rows it covers, so a
    /// caller that coalesces an `n`-row run into one call shows up as `1`
    /// here instead of `n`.
    pub fn io_ops(&self) -> (u64, u64) {
        (self.read_ops, self.write_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sptx-kg-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_open_read_round_trip() {
        let path = temp_path("round_trip.bin");
        EmbeddingStore::write(&path, 10, 3, |r, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (r * 10 + j) as f32;
            }
        })
        .unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        assert_eq!((store.rows(), store.cols()), (10, 3));
        let rows = store.read_rows(2, 2).unwrap();
        assert_eq!(rows, vec![20.0, 21.0, 22.0, 30.0, 31.0, 32.0]);
        // Seeks are independent: read an earlier range afterwards.
        let rows = store.read_rows(0, 1).unwrap();
        assert_eq!(rows, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn chunked_iteration_covers_all_rows() {
        let path = temp_path("chunks.bin");
        EmbeddingStore::write(&path, 25, 2, |r, out| {
            out[0] = r as f32;
            out[1] = 0.0;
        })
        .unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        let mut seen = Vec::new();
        store
            .for_each_chunk(8, |first, chunk| {
                assert!(chunk.len() % 2 == 0);
                for (k, pair) in chunk.chunks_exact(2).enumerate() {
                    seen.push((first + k, pair[0] as usize));
                }
            })
            .unwrap();
        assert_eq!(seen.len(), 25);
        assert!(seen.iter().all(|&(i, v)| i == v));
    }

    #[test]
    fn out_of_range_read_rejected() {
        let path = temp_path("oob.bin");
        EmbeddingStore::write(&path, 4, 2, |_, out| out.fill(0.0)).unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        assert!(matches!(
            store.read_rows(3, 2),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("bad_magic.bin");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(matches!(
            EmbeddingStore::open(&path),
            Err(Error::Parse { .. })
        ));
    }

    #[test]
    fn truncated_body_rejected_at_open() {
        let path = temp_path("truncated.bin");
        EmbeddingStore::write(&path, 6, 4, |r, out| out.fill(r as f32)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop half the body off; the header still claims 6 x 4.
        std::fs::write(&path, &full[..full.len() - 48]).unwrap();
        assert!(matches!(
            EmbeddingStore::open(&path),
            Err(Error::Parse { .. })
        ));
        // A header-only file is equally rejected.
        std::fs::write(&path, &full[..24]).unwrap();
        assert!(matches!(
            EmbeddingStore::open(&path),
            Err(Error::Parse { .. })
        ));
    }

    #[test]
    fn zero_row_store_round_trips() {
        let path = temp_path("zero_rows.bin");
        EmbeddingStore::write(&path, 0, 8, |_, _| unreachable!("no rows to fill")).unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        assert_eq!((store.rows(), store.cols()), (0, 8));
        assert_eq!(store.read_rows(0, 0).unwrap(), Vec::<f32>::new());
        let mut chunks = 0;
        store.for_each_chunk(4, |_, _| chunks += 1).unwrap();
        assert_eq!(chunks, 0, "a zero-row store visits no chunks");
        // Reading any actual row is out of bounds.
        assert!(matches!(
            store.read_rows(0, 1),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn read_past_eof_rejected_with_buffer_intact() {
        let path = temp_path("past_eof.bin");
        EmbeddingStore::write(&path, 5, 2, |r, out| out.fill(r as f32)).unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        let mut buf = [7.0f32; 4];
        // Starts in range, ends past EOF.
        assert!(matches!(
            store.read_rows_into(4, 2, &mut buf),
            Err(Error::IndexOutOfBounds { .. })
        ));
        // Starts past EOF outright.
        assert!(matches!(
            store.read_rows_into(5, 1, &mut buf[..2]),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert_eq!(buf, [7.0; 4], "failed reads must not touch the buffer");
        // A buffer that disagrees with the requested range is rejected too.
        assert!(matches!(
            store.read_rows_into(0, 2, &mut buf[..3]),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn reads_straddling_chunk_boundaries_match_contiguous_read() {
        let path = temp_path("straddle.bin");
        EmbeddingStore::write(&path, 10, 3, |r, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (r * 100 + j) as f32;
            }
        })
        .unwrap();
        let mut store = EmbeddingStore::open(&path).unwrap();
        let full = store.read_rows(0, 10).unwrap();
        // A windowed read crossing the 4-row chunk boundaries used below.
        assert_eq!(store.read_rows(3, 4).unwrap(), full[3 * 3..7 * 3]);
        // Chunked iteration with a step that does not divide the row count:
        // windows of 4, 4, then a ragged 2, reassembling the exact table.
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        store
            .for_each_chunk(4, |first, chunk| {
                assert_eq!(seen.len(), first * 3);
                sizes.push(chunk.len() / 3);
                seen.extend_from_slice(chunk);
            })
            .unwrap();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(seen, full);
    }

    #[test]
    fn row_file_write_reopen_read_round_trip_with_odd_batches() {
        let path = temp_path("row_file_roundtrip.bin");
        let expect: Vec<f32> = (0..10 * 3).map(|i| i as f32 * 0.5).collect();
        {
            let mut f = RowFile::create(&path, 10, 3).unwrap();
            // Write in ragged 3-row batches (3, 3, 3, 1) so writes straddle
            // the read-side chunking used below.
            let mut first = 0;
            while first < 10 {
                let count = 3.min(10 - first);
                f.write_rows(first, count, &expect[first * 3..(first + count) * 3])
                    .unwrap();
                first += count;
            }
            f.flush().unwrap();
        }
        // Reopen read-write and spot-check a straddling window.
        let mut f = RowFile::open(&path).unwrap();
        assert_eq!((f.rows(), f.cols()), (10, 3));
        let mut window = vec![0.0f32; 4 * 3];
        f.read_rows_into(2, 4, &mut window).unwrap();
        assert_eq!(window, expect[2 * 3..6 * 3]);
        // Writes past EOF are rejected.
        assert!(matches!(
            f.write_rows(9, 2, &[0.0; 6]),
            Err(Error::IndexOutOfBounds { .. })
        ));
        // Reopen through the read-only store under a non-default chunk size.
        let mut store = EmbeddingStore::open(&path).unwrap();
        let mut seen = Vec::new();
        store
            .for_each_chunk(3, |_, chunk| seen.extend_from_slice(chunk))
            .unwrap();
        assert_eq!(seen, expect);
    }

    #[test]
    fn row_file_counts_transfers_not_rows() {
        let path = temp_path("row_file_io_ops.bin");
        let mut f = RowFile::create(&path, 8, 2).unwrap();
        assert_eq!(f.io_ops(), (0, 0));
        // One 4-row contiguous write is one transfer, not four.
        f.write_rows(0, 4, &[1.0; 8]).unwrap();
        assert_eq!(f.io_ops(), (0, 1));
        let mut out = vec![0.0f32; 6 * 2];
        f.read_rows_into(1, 6, &mut out).unwrap();
        assert_eq!(f.io_ops(), (1, 1));
        // Failed validation issues no I/O and counts nothing.
        assert!(f.read_rows_into(7, 2, &mut out).is_err());
        assert_eq!(f.io_ops(), (1, 1));
    }

    #[test]
    fn row_file_create_zeroes_body() {
        let path = temp_path("row_file_zeroed.bin");
        let mut f = RowFile::create(&path, 4, 2).unwrap();
        let mut all = vec![9.0f32; 8];
        f.read_rows_into(0, 4, &mut all).unwrap();
        assert!(all.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn trailing_garbage_rejected_at_open() {
        let path = temp_path("padded.bin");
        EmbeddingStore::write(&path, 2, 2, |_, out| out.fill(1.0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 7]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EmbeddingStore::open(&path),
            Err(Error::Parse { .. })
        ));
    }
}
