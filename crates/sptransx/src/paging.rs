//! The one file-backed [`RowStorage`]: a [`kg::stream::RowFile`] — the
//! read-write pagefile, or a read-only serving store — behind the demand
//! pager. It exists for the orphan rule and to translate `kg::Error` into
//! `std::io::Error`, the currency of [`RowStorage`].

use std::io;
use std::path::Path;

use kg::stream::RowFile;
use tensor::RowStorage;

use crate::Result;

/// File-backed row storage over one [`RowFile`].
///
/// # Examples
///
/// ```
/// use sptransx::FileRowStorage;
/// use tensor::RowStorage;
///
/// let path = std::env::temp_dir().join("sptx-doc-filerowstorage.bin");
/// let mut s = FileRowStorage::create(&path, 4, 2)?;
/// s.write_rows(1, 1, &[3.0, 4.0])?;
/// let mut row = [0.0f32; 2];
/// FileRowStorage::open(&path)?.read_rows_into(1, 1, &mut row)?;
/// assert_eq!(row, [3.0, 4.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FileRowStorage(RowFile);

/// The serving store's old name. It exists only for the surface
/// `benchmark/` freezes and goes in the next benchmark PR.
pub type ReadOnlyRowStorage = FileRowStorage;

impl FileRowStorage {
    /// Creates (or truncates) a zero-filled read-write `rows × cols` file.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Kg`] on any filesystem failure.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> Result<Self> {
        Ok(Self(RowFile::create(path, rows, cols)?))
    }

    /// Opens an existing `SPTXEMB1` file read-only.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Kg`] on I/O failure or a corrupt header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self(RowFile::open(path)?))
    }
}

fn to_io(e: kg::Error) -> io::Error {
    match e {
        kg::Error::Io(e) => e,
        e => io::Error::other(e.to_string()),
    }
}

impl RowStorage for FileRowStorage {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> io::Result<()> {
        self.0.read_rows_into(first, count, out).map_err(to_io)
    }

    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> io::Result<()> {
        self.0.write_rows(first, count, data).map_err(to_io)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush().map_err(to_io)
    }

    fn io_ops(&self) -> (u64, u64) {
        self.0.io_ops()
    }
}
