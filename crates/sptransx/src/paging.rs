//! File-backed [`RowStorage`] adapters: the glue between `kg::stream`'s
//! on-disk embedding format and the tensor crate's demand pager.
//!
//! Two backends cover the two residency stories:
//!
//! * [`FileRowStorage`] — read-**write**, over [`kg::stream::RowFile`]. The
//!   training path: [`tensor::ParamStore::page_out`] spills the table here
//!   and the pager writes dirty rows back on eviction and flush.
//! * [`ReadOnlyRowStorage`] — over [`kg::stream::EmbeddingStore`]. The
//!   serving path: queries read rows from a finished embedding dump that
//!   may be far larger than RAM; any write attempt is an error (serving
//!   never dirties rows).
//!
//! Both adapters translate `kg::Error` into `std::io::Error`, the currency
//! of the [`RowStorage`] trait.

use std::io;
use std::path::Path;

use kg::stream::{EmbeddingStore, RowFile};
use tensor::RowStorage;

use crate::Result;

fn to_io(e: kg::Error) -> io::Error {
    io::Error::other(e.to_string())
}

/// Read-write file-backed row storage for out-of-core training.
///
/// # Examples
///
/// ```
/// use sptransx::FileRowStorage;
/// use tensor::RowStorage;
///
/// let dir = std::env::temp_dir().join("sptx-doc-filerowstorage");
/// std::fs::create_dir_all(&dir)?;
/// let mut s = FileRowStorage::create(dir.join("t.bin"), 4, 2)?;
/// s.write_rows(1, 1, &[3.0, 4.0])?;
/// let mut row = [0.0f32; 2];
/// s.read_rows_into(1, 1, &mut row)?;
/// assert_eq!(row, [3.0, 4.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FileRowStorage {
    file: RowFile,
}

impl FileRowStorage {
    /// Creates (or truncates) a zero-filled `rows × cols` backing file.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Kg`] on any filesystem failure.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> Result<Self> {
        Ok(Self {
            file: RowFile::create(path, rows, cols)?,
        })
    }

    /// Opens an existing backing file read-write.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Kg`] on I/O failure or a corrupt header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self {
            file: RowFile::open(path)?,
        })
    }
}

impl RowStorage for FileRowStorage {
    fn rows(&self) -> usize {
        self.file.rows()
    }

    fn cols(&self) -> usize {
        self.file.cols()
    }

    fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> io::Result<()> {
        self.file.read_rows_into(first, count, out).map_err(to_io)
    }

    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> io::Result<()> {
        self.file.write_rows(first, count, data).map_err(to_io)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush().map_err(to_io)
    }

    fn io_ops(&self) -> (u64, u64) {
        self.file.io_ops()
    }
}

/// Read-only row storage over a finished embedding dump, for serving.
#[derive(Debug)]
pub struct ReadOnlyRowStorage {
    store: EmbeddingStore,
}

impl ReadOnlyRowStorage {
    /// Opens an `SPTXEMB1` embedding file read-only.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Kg`] on I/O failure or a corrupt header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self {
            store: EmbeddingStore::open(path)?,
        })
    }
}

impl RowStorage for ReadOnlyRowStorage {
    fn rows(&self) -> usize {
        self.store.rows()
    }

    fn cols(&self) -> usize {
        self.store.cols()
    }

    fn read_rows_into(&mut self, first: usize, count: usize, out: &mut [f32]) -> io::Result<()> {
        self.store.read_rows_into(first, count, out).map_err(to_io)
    }

    fn write_rows(&mut self, _first: usize, _count: usize, _data: &[f32]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "embedding store opened read-only; serving never writes rows back",
        ))
    }
}
