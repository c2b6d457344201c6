//! The storage backend abstraction: a flat namespace of byte files.
//!
//! Everything durable — page files, the write-ahead log — goes through
//! [`StorageBackend`], a deliberately small file-system surface. Two
//! implementations ship with the kernel:
//!
//! * [`DiskFs`] — real files under a root directory (production);
//! * [`MemFs`] — an in-memory map, cheaply cloneable so a test can keep a
//!   handle to "the disk" while the store's handle dies with a simulated
//!   crash.
//!
//! Any backend can be wrapped by a fault injector; the crash-recovery
//! suite keeps one (`tests/fault`) and replays ingest against every
//! reachable crash point.

use crate::error::{MonetError, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn io_err(file: &str, e: std::io::Error) -> MonetError {
    MonetError::Io(format!("{file}: {e}"))
}

/// A flat namespace of byte files — the only I/O surface the storage
/// tier uses. File names are simple (no path separators); the backend
/// owns their placement.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Read a whole file.
    fn read(&self, file: &str) -> Result<Vec<u8>>;

    /// Read exactly `len` bytes at byte offset `off`. Short files are an
    /// error, not a short read.
    fn read_at(&self, file: &str, off: u64, len: usize) -> Result<Vec<u8>>;

    /// Create or replace a file with `data`.
    fn write(&self, file: &str, data: &[u8]) -> Result<()>;

    /// Append `data` to a file (created if missing).
    fn append(&self, file: &str, data: &[u8]) -> Result<()>;

    /// Current length of a file in bytes.
    fn file_len(&self, file: &str) -> Result<u64>;

    /// True if the file exists.
    fn exists(&self, file: &str) -> bool;

    /// Delete a file (idempotent: deleting a missing file succeeds).
    fn remove(&self, file: &str) -> Result<()>;

    /// Flush a file's bytes to stable storage.
    fn sync(&self, file: &str) -> Result<()>;

    /// All file names, sorted.
    fn list(&self) -> Result<Vec<String>>;
}

// ---------------------------------------------------------------------------
// DiskFs
// ---------------------------------------------------------------------------

/// Real files under a root directory.
#[derive(Debug)]
pub struct DiskFs {
    root: PathBuf,
}

impl DiskFs {
    /// Open (creating if needed) a backend rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root.display().to_string(), e))?;
        Ok(DiskFs { root })
    }

    /// The root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, file: &str) -> PathBuf {
        debug_assert!(!file.contains(['/', '\\']), "backend file names are flat: {file}");
        self.root.join(file)
    }
}

impl StorageBackend for DiskFs {
    fn read(&self, file: &str) -> Result<Vec<u8>> {
        std::fs::read(self.path(file)).map_err(|e| io_err(file, e))
    }

    fn read_at(&self, file: &str, off: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = std::fs::File::open(self.path(file)).map_err(|e| io_err(file, e))?;
        f.seek(SeekFrom::Start(off)).map_err(|e| io_err(file, e))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| io_err(file, e))?;
        Ok(buf)
    }

    fn write(&self, file: &str, data: &[u8]) -> Result<()> {
        std::fs::write(self.path(file), data).map_err(|e| io_err(file, e))
    }

    fn append(&self, file: &str, data: &[u8]) -> Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(file))
            .map_err(|e| io_err(file, e))?;
        f.write_all(data).map_err(|e| io_err(file, e))
    }

    fn file_len(&self, file: &str) -> Result<u64> {
        Ok(std::fs::metadata(self.path(file)).map_err(|e| io_err(file, e))?.len())
    }

    fn exists(&self, file: &str) -> bool {
        self.path(file).exists()
    }

    fn remove(&self, file: &str) -> Result<()> {
        match std::fs::remove_file(self.path(file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(file, e)),
        }
    }

    fn sync(&self, file: &str) -> Result<()> {
        // opening read-only is enough to reach fsync on all platforms we
        // target; a missing file has nothing to sync
        match std::fs::File::open(self.path(file)) {
            Ok(f) => f.sync_all().map_err(|e| io_err(file, e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(file, e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| io_err(&self.root.display().to_string(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("<dir entry>", e))?;
            if entry.file_type().map_err(|e| io_err("<dir entry>", e))?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// MemFs
// ---------------------------------------------------------------------------

/// An in-memory backend. Clones share the same underlying "disk", which
/// is how crash tests keep the surviving bytes after the crashed handle
/// is dropped.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemFs {
    /// Create an empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held across all files (test/diagnostic aid).
    pub fn total_bytes(&self) -> usize {
        self.files.lock().values().map(Vec::len).sum()
    }
}

impl StorageBackend for MemFs {
    fn read(&self, file: &str) -> Result<Vec<u8>> {
        self.files
            .lock()
            .get(file)
            .cloned()
            .ok_or_else(|| MonetError::Io(format!("{file}: no such file")))
    }

    fn read_at(&self, file: &str, off: u64, len: usize) -> Result<Vec<u8>> {
        let files = self.files.lock();
        let data =
            files.get(file).ok_or_else(|| MonetError::Io(format!("{file}: no such file")))?;
        let off = off as usize;
        if off + len > data.len() {
            return Err(MonetError::Io(format!(
                "{file}: read [{off}, {}) past end {}",
                off + len,
                data.len()
            )));
        }
        Ok(data[off..off + len].to_vec())
    }

    fn write(&self, file: &str, data: &[u8]) -> Result<()> {
        self.files.lock().insert(file.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&self, file: &str, data: &[u8]) -> Result<()> {
        self.files.lock().entry(file.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn file_len(&self, file: &str) -> Result<u64> {
        self.files
            .lock()
            .get(file)
            .map(|d| d.len() as u64)
            .ok_or_else(|| MonetError::Io(format!("{file}: no such file")))
    }

    fn exists(&self, file: &str) -> bool {
        self.files.lock().contains_key(file)
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.files.lock().remove(file);
        Ok(())
    }

    fn sync(&self, _file: &str) -> Result<()> {
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.files.lock().keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fs: &dyn StorageBackend) {
        fs.write("a.bin", b"hello").unwrap();
        fs.append("a.bin", b" world").unwrap();
        assert_eq!(fs.read("a.bin").unwrap(), b"hello world");
        assert_eq!(fs.read_at("a.bin", 6, 5).unwrap(), b"world");
        assert_eq!(fs.file_len("a.bin").unwrap(), 11);
        assert!(fs.exists("a.bin"));
        fs.sync("a.bin").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["a.bin".to_string()]);
        fs.remove("a.bin").unwrap();
        assert!(!fs.exists("a.bin"));
        fs.remove("a.bin").unwrap(); // idempotent
        assert!(fs.read("a.bin").is_err());
        assert!(fs.read_at("missing", 0, 1).is_err());
    }

    #[test]
    fn memfs_contract() {
        roundtrip(&MemFs::new());
    }

    #[test]
    fn diskfs_contract() {
        let dir = std::env::temp_dir().join(format!("mirror_diskfs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = DiskFs::new(&dir).unwrap();
        roundtrip(&fs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memfs_clones_share_the_disk() {
        let a = MemFs::new();
        let b = a.clone();
        a.write("x", b"1").unwrap();
        assert_eq!(b.read("x").unwrap(), b"1");
    }
}
