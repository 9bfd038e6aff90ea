//! What the benchmark needs from the machine: peak resident memory, a
//! scratch directory that cleans itself up, and a seeded input generator.

use std::path::{Path, PathBuf};

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`; `None` where that file or field does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The benchmark's output directory, `benchmark/out/` of the checkout this
/// binary was built from (git-ignored). Everything the benchmark writes
/// lands under it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh per-run directory under [`out_dir`] for the pagefile and the
/// embedding row file, removed when dropped — on success, on an error
/// return and on unwind alike.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `out/run-<pid>-<nanos>/`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of `create_dir_all`.
    pub fn create() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = out_dir().join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Best effort: a directory that is already gone is what we wanted.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// SplitMix64: the benchmark's own input generator (the serving matrix), so
/// `--seed` reaches every input without a dependency on the repository's
/// vendored `rand`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  282624 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(282_624));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn run_dir_is_removed_on_drop() {
        let dir = RunDir::create().unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("pagefile.bin"), b"x").unwrap();
        assert!(path.starts_with(out_dir()));
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn generator_repeats_for_a_seed_and_stays_in_range() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let mut c = SplitMix64::new(10);
        let xs: Vec<f32> = (0..1000).map(|_| a.uniform(-3.0, 3.0)).collect();
        let ys: Vec<f32> = (0..1000).map(|_| b.uniform(-3.0, 3.0)).collect();
        let zs: Vec<f32> = (0..1000).map(|_| c.uniform(-3.0, 3.0)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|x| (-3.0..3.0).contains(x)));
    }
}
