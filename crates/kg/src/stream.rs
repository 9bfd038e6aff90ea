//! One handle for every on-disk row table, and the codecs its files share.
//!
//! The paper streams "embeddings from disc storage when the embeddings are
//! too large to fit in CPU memory" (§4.7.1). [`RowFile`] is the one type that
//! reads or writes that table format, `SPTXEMB1`: the dump `sptx train`
//! writes, the pagefile of out-of-core training and the serving store. Its
//! header and word codecs are public, and the IVF index file (`SPTXIVF1`)
//! goes through the same two — one loader to fuzz.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::{Error, Result};

/// Magic of the row-table format.
pub const MAGIC: &[u8; 8] = b"SPTXEMB1";

/// Byte offset of row 0: the magic plus the `rows` and `cols` words.
const HEADER_LEN: u64 = 24;

/// Writes a file header: `magic`, then `words` as little-endian `u64`s.
///
/// # Errors
///
/// Any write failure of `dst`.
pub fn write_header(dst: &mut impl Write, magic: &[u8; 8], words: &[u64]) -> io::Result<()> {
    dst.write_all(magic)?;
    words
        .iter()
        .try_for_each(|w| dst.write_all(&w.to_le_bytes()))
}

/// Reads the header [`write_header`] put at the start of `file` and checks
/// that the file is exactly as long as `body` (words → body bytes, `None` on
/// overflow) says. Returns the words, each of which fits `usize`, with
/// `file` at the body.
///
/// # Errors
///
/// [`Error::Parse`] on a wrong magic or a length the words do not imply
/// (corrupt, truncated or padded); [`Error::Io`] on a read failure.
pub fn read_header<const N: usize>(
    file: &mut File,
    magic: &[u8; 8],
    body: impl FnOnce([u64; N]) -> Option<u64>,
) -> Result<[u64; N]> {
    let name = String::from_utf8_lossy(magic);
    let corrupt = |context: String| Error::Parse { line: 0, context };
    let (file_len, header_len) = (file.metadata()?.len(), 8 + 8 * N as u64);
    if file_len < header_len {
        return Err(corrupt(format!("{file_len} bytes hold no {name} header")));
    }
    let mut word = [0u8; 8];
    file.read_exact(&mut word)?;
    if &word != magic {
        return Err(corrupt(format!("not an {name} file")));
    }
    let mut words = [0u64; N];
    for w in &mut words {
        file.read_exact(&mut word)?;
        *w = u64::from_le_bytes(word);
    }
    let fit = words.iter().all(|&w| usize::try_from(w).is_ok());
    match body(words).and_then(|b| b.checked_add(header_len)) {
        Some(len) if len == file_len && fit => Ok(words),
        _ => Err(corrupt(format!(
            "{name} file is {file_len} bytes, which its header {words:?} does not imply \
             (corrupt or truncated)"
        ))),
    }
}

/// A 4-byte value stored little-endian: a table cell or an index word.
pub trait LeWord: Copy {
    /// Decodes one word.
    fn from_le(bytes: [u8; 4]) -> Self;
    /// Encodes one word.
    fn to_le(self) -> [u8; 4];
}

macro_rules! le_word {
    ($($t:ty),*) => {$(impl LeWord for $t {
        fn from_le(bytes: [u8; 4]) -> Self { <$t>::from_le_bytes(bytes) }
        fn to_le(self) -> [u8; 4] { self.to_le_bytes() }
    })*};
}
le_word!(f32, u32);

/// The first `4 × words` bytes of `buf`, which grows to the largest request
/// and keeps it, so a reused `buf` makes steady-state I/O allocation-free.
fn grow(buf: &mut Vec<u8>, words: usize) -> &mut [u8] {
    if buf.len() < 4 * words {
        buf.resize(4 * words, 0);
    }
    &mut buf[..4 * words]
}

/// Fills `out` from the next `4 × out.len()` bytes of `src`, in one read
/// through `buf`.
///
/// # Errors
///
/// Any read failure of `src`, including a short read.
pub fn read_le<T: LeWord>(src: &mut impl Read, buf: &mut Vec<u8>, out: &mut [T]) -> io::Result<()> {
    let bytes = grow(buf, out.len());
    src.read_exact(bytes)?;
    for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = T::from_le([b[0], b[1], b[2], b[3]]);
    }
    Ok(())
}

/// Writes `data` to `dst` little-endian, in one write through `buf`.
///
/// # Errors
///
/// Any write failure of `dst`.
pub fn write_le<T: LeWord>(dst: &mut impl Write, buf: &mut Vec<u8>, data: &[T]) -> io::Result<()> {
    let bytes = grow(buf, data.len());
    for (b, v) in bytes.chunks_exact_mut(4).zip(data) {
        b.copy_from_slice(&v.to_le());
    }
    dst.write_all(bytes)
}

/// Body bytes of a `rows × cols` table, `None` if that overflows.
fn body_len(rows: u64, cols: u64) -> Option<u64> {
    rows.checked_mul(cols)?.checked_mul(4)
}

/// An on-disk `rows × cols` table of `f32` rows: 8-byte magic, `u64` rows,
/// `u64` cols, then the rows, little-endian.
///
/// Each transfer is one seek and one contiguous read or write, counted by
/// [`RowFile::io_ops`]. The handle is unbuffered (reads and writes
/// interleave) and its byte scratch is **retained at the largest request**,
/// so a caller that keeps it moves the table in bounded chunks.
///
/// # Examples
///
/// ```
/// use kg::stream::RowFile;
///
/// let path = std::env::temp_dir().join("sptx-doc-rowfile.bin");
/// RowFile::write(&path, 4, 2, |row, out| out.fill(row as f32))?;
/// let mut dump = RowFile::open(&path)?;
/// assert_eq!(dump.read_rows(1, 2)?, vec![1.0, 1.0, 2.0, 2.0]);
/// assert!(dump.write_rows(0, 1, &[0.0, 0.0]).is_err(), "read-only");
/// # Ok::<(), kg::Error>(())
/// ```
#[derive(Debug)]
pub struct RowFile {
    file: File,
    rows: usize,
    cols: usize,
    /// `false` after [`RowFile::open`]: writes are refused before any I/O.
    writable: bool,
    scratch: Vec<u8>,
    /// `(read_calls, write_calls)`.
    io_ops: (u64, u64),
}

/// The streaming dump's old name. It exists only for the surface
/// `benchmark/` freezes and goes in the next benchmark PR.
///
/// ```
/// let path = std::env::temp_dir().join("sptx-doc-embstore.bin");
/// kg::stream::EmbeddingStore::write(&path, 2, 1, |row, out| out[0] = row as f32)?;
/// assert_eq!(kg::stream::EmbeddingStore::open(&path)?.read_rows(0, 2)?, [0.0, 1.0]);
/// # Ok::<(), kg::Error>(())
/// ```
pub type EmbeddingStore = RowFile;

impl RowFile {
    fn new(file: File, rows: usize, cols: usize, writable: bool) -> Self {
        Self {
            file,
            rows,
            cols,
            writable,
            scratch: Vec::new(),
            io_ops: (0, 0),
        }
    }

    /// Creates (or truncates) `path` as the read-write pagefile: a `rows ×
    /// cols` table with an all-zero body, so every write is in place.
    ///
    /// # Errors
    ///
    /// [`Error::IndexOutOfBounds`] if the shape overflows a file length, and
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> Result<Self> {
        let len = body_len(rows as u64, cols as u64)
            .and_then(|body| body.checked_add(HEADER_LEN))
            .ok_or_else(|| Error::IndexOutOfBounds {
                context: format!("a {rows} x {cols} table overflows a file length"),
            })?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_header(&mut file, MAGIC, &[rows as u64, cols as u64])?;
        file.set_len(len)?;
        Ok(Self::new(file, rows, cols, true))
    }

    /// Opens a dump or serving store read-only, validating the header **and**
    /// the file length: a truncated or padded file fails here, not later.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on a bad magic number or a file length that
    /// disagrees with the declared shape, [`Error::Io`] on read failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = File::open(path)?;
        let [rows, cols] = read_header(&mut file, MAGIC, |[rows, cols]| body_len(rows, cols))?;
        Ok(Self::new(file, rows as usize, cols as usize, false)) // both fit
    }

    /// Writes a dump by invoking `fill(row, out_row)` per row, in order,
    /// through [`RowFile::write_rows`] in chunks of at most 8 KiB.
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
        let mut file = Self::create(path, rows, cols)?;
        let step = ((8 << 10) / (4 * cols).max(1)).max(1); // ≤ 8 KiB a call
        let mut chunk = vec![0f32; step.min(rows) * cols];
        for first in (0..rows).step_by(step) {
            let count = step.min(rows - first);
            let chunk = &mut chunk[..count * cols];
            for k in 0..count {
                fill(first + k, &mut chunk[k * cols..(k + 1) * cols]);
            }
            file.write_rows(first, count, chunk)?;
        }
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The one range and buffer check: rows `first .. first + count` exist
    /// and `len` is `count × cols`. Returns row `first`'s byte offset.
    fn offset(&self, first: usize, count: usize, len: usize) -> Result<u64> {
        let in_range = first.checked_add(count).is_some_and(|end| end <= self.rows);
        // Once `count ≤ rows`, `count × cols` floats fit the file.
        if !in_range || len != count * self.cols {
            let (rows, cols) = (self.rows, self.cols);
            let context = format!("{count} rows from {first} of {rows} x {cols} into {len} floats");
            return Err(Error::IndexOutOfBounds { context });
        }
        Ok(HEADER_LEN + (first * self.cols * 4) as u64)
    }

    /// Reads `count` rows starting at `first`, returning a row-major buffer.
    ///
    /// # Errors
    ///
    /// As [`RowFile::read_rows_into`].
    pub fn read_rows(&mut self, first: usize, count: usize) -> Result<Vec<f32>> {
        // Checked before allocating: a bad `count` must not size the buffer.
        self.offset(first, count, count.saturating_mul(self.cols))?;
        let mut out = vec![0f32; count * self.cols];
        self.read_rows_into(first, count, &mut out)?;
        Ok(out)
    }

    /// Reads `count` rows starting at `first` into `out` (exactly `count ×
    /// cols` floats), allocation-free once the scratch has warmed up.
    ///
    /// # Errors
    ///
    /// [`Error::IndexOutOfBounds`] on a bad range or buffer length (no I/O,
    /// nothing counted); [`Error::Io`] on read failure.
    pub fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> Result<()> {
        let offset = self.offset(first, count, out.len())?;
        self.io_ops.0 += 1;
        self.file.seek(SeekFrom::Start(offset))?;
        Ok(read_le(&mut self.file, &mut self.scratch, out)?)
    }

    /// Overwrites `count` rows starting at `first` with `data` (exactly
    /// `count × cols` floats).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] of kind `Unsupported` from a read-only handle and
    /// [`Error::IndexOutOfBounds`] as in [`RowFile::read_rows_into`], both
    /// before any I/O; [`Error::Io`] on write failure.
    pub fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> Result<()> {
        if !self.writable {
            let msg = "row file opened read-only; RowFile::create opens one for writing";
            return Err(io::Error::new(io::ErrorKind::Unsupported, msg).into());
        }
        let offset = self.offset(first, count, data.len())?;
        self.io_ops.1 += 1;
        self.file.seek(SeekFrom::Start(offset))?;
        Ok(write_le(&mut self.file, &mut self.scratch, data)?)
    }

    /// Iterates the table in windows of `rows_per_chunk` rows, calling
    /// `visit(first_row, chunk)` for each.
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
        for first in (0..self.rows).step_by(step) {
            visit(first, &self.read_rows(first, step.min(self.rows - first))?);
        }
        Ok(())
    }

    /// `fsync`s written rows to the device; a read-only handle has none.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the sync fails.
    pub fn flush(&mut self) -> Result<()> {
        if self.writable {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Transfer counters `(read_calls, write_calls)` since this handle was
    /// opened: a call moving an `n`-row run counts once, not `n` times.
    pub fn io_ops(&self) -> (u64, u64) {
        self.io_ops
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
        RowFile::write(&path, 10, 3, |r, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (r * 10 + j) as f32;
            }
        })
        .unwrap();
        let mut store = RowFile::open(&path).unwrap();
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
        RowFile::write(&path, 25, 2, |r, out| {
            out[0] = r as f32;
            out[1] = 0.0;
        })
        .unwrap();
        let mut store = RowFile::open(&path).unwrap();
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
        RowFile::write(&path, 4, 2, |_, out| out.fill(0.0)).unwrap();
        let mut store = RowFile::open(&path).unwrap();
        assert!(matches!(
            store.read_rows(3, 2),
            Err(Error::IndexOutOfBounds { .. })
        ));
        // A count whose buffer would overflow is a range error, not a panic.
        assert!(matches!(
            store.read_rows(1, usize::MAX),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("bad_magic.bin");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(matches!(RowFile::open(&path), Err(Error::Parse { .. })));
    }

    #[test]
    fn truncated_body_rejected_at_open() {
        let path = temp_path("truncated.bin");
        RowFile::write(&path, 6, 4, |r, out| out.fill(r as f32)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop half the body off; the header still claims 6 x 4.
        std::fs::write(&path, &full[..full.len() - 48]).unwrap();
        assert!(matches!(RowFile::open(&path), Err(Error::Parse { .. })));
        // A header-only file is equally rejected, and so is a short header.
        for cut in [24, 12] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(matches!(RowFile::open(&path), Err(Error::Parse { .. })));
        }
    }

    #[test]
    fn zero_row_store_round_trips() {
        let path = temp_path("zero_rows.bin");
        RowFile::write(&path, 0, 8, |_, _| unreachable!("no rows to fill")).unwrap();
        let mut store = RowFile::open(&path).unwrap();
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
        RowFile::write(&path, 5, 2, |r, out| out.fill(r as f32)).unwrap();
        let mut store = RowFile::open(&path).unwrap();
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
        RowFile::write(&path, 10, 3, |r, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (r * 100 + j) as f32;
            }
        })
        .unwrap();
        let mut store = RowFile::open(&path).unwrap();
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
    fn streaming_write_spans_several_chunks() {
        // 3-float rows: 682 rows to an 8 KiB chunk, so 2 000 rows take
        // three ragged chunks; every row must land where `fill` put it.
        let path = temp_path("multi_chunk.bin");
        RowFile::write(&path, 2_000, 3, |r, out| out.fill(r as f32)).unwrap();
        let mut store = RowFile::open(&path).unwrap();
        let all = store.read_rows(0, 2_000).unwrap();
        assert!(all
            .chunks_exact(3)
            .enumerate()
            .all(|(r, row)| row == [r as f32; 3]));
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
            // Writes past EOF are rejected.
            assert!(matches!(
                f.write_rows(9, 2, &[0.0; 6]),
                Err(Error::IndexOutOfBounds { .. })
            ));
            f.flush().unwrap();
        }
        // Reopen and spot-check a straddling window.
        let mut f = RowFile::open(&path).unwrap();
        assert_eq!((f.rows(), f.cols()), (10, 3));
        let mut window = vec![0.0f32; 4 * 3];
        f.read_rows_into(2, 4, &mut window).unwrap();
        assert_eq!(window, expect[2 * 3..6 * 3]);
        // Then read it whole under a non-default chunk size.
        let mut seen = Vec::new();
        f.for_each_chunk(3, |_, chunk| seen.extend_from_slice(chunk))
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
    fn read_only_handle_refuses_writes_before_any_io() {
        let path = temp_path("read_only.bin");
        RowFile::write(&path, 3, 2, |r, out| out.fill(r as f32)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut f = RowFile::open(&path).unwrap();
        let err = f.write_rows(0, 1, &[9.0, 9.0]).unwrap_err();
        assert!(
            matches!(&err, Error::Io(e) if e.kind() == io::ErrorKind::Unsupported),
            "{err}"
        );
        // Refused before the range check, so a bad range is refused the same.
        assert!(matches!(f.write_rows(7, 1, &[0.0]), Err(Error::Io(_))));
        assert_eq!(f.io_ops(), (0, 0), "a refused write counts nothing");
        f.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
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
        RowFile::write(&path, 2, 2, |_, out| out.fill(1.0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 7]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(RowFile::open(&path), Err(Error::Parse { .. })));
    }

    #[test]
    fn header_codec_checks_length_in_checked_arithmetic() {
        let path = temp_path("header_codec.bin");
        let header = |words: &[u64], body: usize| {
            let mut bytes = Vec::new();
            write_header(&mut bytes, b"TESTHDR1", words).unwrap();
            bytes.resize(bytes.len() + body, 0);
            std::fs::write(&path, &bytes).unwrap();
            File::open(&path).unwrap()
        };
        let len = |[a, b]: [u64; 2]| a.checked_mul(b);
        assert_eq!(
            read_header(&mut header(&[3, 5], 15), b"TESTHDR1", len).unwrap(),
            [3, 5]
        );
        // The file is left at the body.
        let mut f = header(&[1, 4], 4);
        read_header(&mut f, b"TESTHDR1", len).unwrap();
        let mut word = [0u32; 1];
        read_le(&mut f, &mut Vec::new(), &mut word).unwrap();
        assert_eq!(word, [0]);
        for (words, body) in [([3, 5], 14), ([3, 5], 16), ([1 << 33, 1 << 33], 0)] {
            assert!(matches!(
                read_header(&mut header(&words, body), b"TESTHDR1", len),
                Err(Error::Parse { .. })
            ));
        }
        assert!(matches!(
            read_header(&mut header(&[0, 0], 0), b"OTHERHDR", len),
            Err(Error::Parse { .. })
        ));
    }
}
