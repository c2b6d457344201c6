//! A deterministic fault-injecting disk for the crash-recovery suite.
//!
//! [`FaultFs`] wraps any [`StorageBackend`]: it crashes at the Nth write
//! (leaving a configurable torn prefix), flips a byte of a chosen write,
//! then refuses all further I/O like a dead process would. [`fork`] and
//! [`corrupt`] copy and damage a disk image through the backend's own
//! list/read/write surface.

use mirror::monet::{MemFs, MonetError, Result, StorageBackend};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An independent deep copy of `fs`'s current disk image. Unlike
/// `MemFs::clone` (which shares the disk — that is how crash tests keep
/// the surviving bytes), a fork lets a test corrupt or extend its own
/// image without affecting a shared fixture.
pub fn fork(fs: &dyn StorageBackend) -> MemFs {
    let copy = MemFs::new();
    for file in fs.list().unwrap() {
        copy.write(&file, &fs.read(&file).unwrap()).unwrap();
    }
    copy
}

/// XOR `mask` into byte `offset` of `file` — "a cosmic ray flipped a bit
/// in a page that was already durable".
pub fn corrupt(fs: &dyn StorageBackend, file: &str, offset: usize, mask: u8) -> Result<()> {
    let mut data = fs.read(file)?;
    let byte = data
        .get_mut(offset)
        .ok_or_else(|| MonetError::Io(format!("{file}: corrupt offset {offset} past end")))?;
    *byte ^= mask;
    fs.write(file, &data)
}

/// One silent byte corruption: XOR `mask` into byte `offset` of the
/// `write_index`-th mutating operation's payload before it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Zero-based index of the mutating operation to corrupt.
    pub write_index: u64,
    /// Byte offset within that operation's payload (clamped to its end).
    pub offset: usize,
    /// XOR mask (use a non-zero mask to actually flip something).
    pub mask: u8,
}

/// A deterministic fault plan for [`FaultFs`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash *on* the Nth (zero-based) mutating operation: the operation
    /// lands only its [`torn_bytes`](Self::torn_bytes) prefix, fails, and
    /// every later operation (reads included) fails too.
    pub crash_at_write: Option<u64>,
    /// How many payload bytes of the crashing write still reach the
    /// backend — models a torn sector write.
    pub torn_bytes: usize,
    /// Silent corruptions to apply along the way.
    pub flips: Vec<BitFlip>,
}

/// A fault-injecting wrapper around any backend. Mutating operations
/// (`write`, `append`, `remove`) are counted; the plan decides which one
/// tears and kills the "process", and which have a byte flipped. With an
/// empty plan it is a pure pass-through write counter, which is how tests
/// learn how many crash points a workload exposes.
#[derive(Debug)]
pub struct FaultFs {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    writes: AtomicU64,
    crashed: AtomicBool,
}

impl FaultFs {
    /// Wrap `inner` with a fault plan.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Self {
        FaultFs { inner, plan, writes: AtomicU64::new(0), crashed: AtomicBool::new(false) }
    }

    /// Number of mutating operations issued so far.
    pub fn writes_issued(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// True once the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed() {
            return Err(MonetError::Io("injected crash: backend is dead".into()));
        }
        Ok(())
    }

    /// Account one mutating operation; returns the (possibly corrupted)
    /// payload to forward, or `None` if this operation crashes after
    /// landing `torn_bytes` of it.
    fn admit<'a>(&self, data: &'a [u8]) -> Result<(Cow<'a, [u8]>, bool)> {
        self.check_alive()?;
        let idx = self.writes.fetch_add(1, Ordering::SeqCst);
        if self.plan.crash_at_write == Some(idx) {
            self.crashed.store(true, Ordering::SeqCst);
            let torn = self.plan.torn_bytes.min(data.len());
            return Ok((Cow::Borrowed(&data[..torn]), true));
        }
        let mut out = Cow::Borrowed(data);
        for flip in &self.plan.flips {
            if flip.write_index == idx && !data.is_empty() {
                let buf = out.to_mut();
                let at = flip.offset.min(buf.len() - 1);
                buf[at] ^= flip.mask;
            }
        }
        Ok((out, false))
    }
}

impl StorageBackend for FaultFs {
    fn read(&self, file: &str) -> Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read(file)
    }

    fn read_at(&self, file: &str, off: u64, len: usize) -> Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read_at(file, off, len)
    }

    fn write(&self, file: &str, data: &[u8]) -> Result<()> {
        let (payload, crash) = self.admit(data)?;
        self.inner.write(file, &payload)?;
        if crash {
            return Err(MonetError::Io(format!("injected crash during write of '{file}'")));
        }
        Ok(())
    }

    fn append(&self, file: &str, data: &[u8]) -> Result<()> {
        let (payload, crash) = self.admit(data)?;
        self.inner.append(file, &payload)?;
        if crash {
            return Err(MonetError::Io(format!("injected crash during append to '{file}'")));
        }
        Ok(())
    }

    fn file_len(&self, file: &str) -> Result<u64> {
        self.check_alive()?;
        self.inner.file_len(file)
    }

    fn exists(&self, file: &str) -> bool {
        !self.crashed() && self.inner.exists(file)
    }

    fn remove(&self, file: &str) -> Result<()> {
        let (_, crash) = self.admit(&[])?;
        if crash {
            // the crash pre-empts the removal: the file survives
            return Err(MonetError::Io(format!("injected crash before remove of '{file}'")));
        }
        self.inner.remove(file)
    }

    fn sync(&self, file: &str) -> Result<()> {
        self.check_alive()?;
        self.inner.sync(file)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.check_alive()?;
        self.inner.list()
    }
}

#[test]
fn faultfs_crashes_with_torn_prefix_then_stays_dead() {
    let disk = MemFs::new();
    let fs = FaultFs::new(
        Arc::new(disk.clone()),
        FaultPlan { crash_at_write: Some(1), torn_bytes: 2, ..Default::default() },
    );
    fs.write("f", b"first").unwrap(); // write 0 fine
    let err = fs.append("f", b"second").unwrap_err(); // write 1 crashes
    assert!(matches!(err, MonetError::Io(_)));
    assert!(fs.crashed());
    // two torn bytes of the second write landed
    assert_eq!(disk.read("f").unwrap(), b"firstse");
    // everything after the crash fails, reads included
    assert!(fs.read("f").is_err());
    assert!(fs.write("g", b"x").is_err());
    assert!(fs.sync("f").is_err());
    // …but the underlying disk still has the surviving bytes
    assert_eq!(disk.read("f").unwrap(), b"firstse");
}

#[test]
fn faultfs_flips_exactly_the_planned_byte() {
    let disk = MemFs::new();
    let fs = FaultFs::new(
        Arc::new(disk.clone()),
        FaultPlan {
            flips: vec![BitFlip { write_index: 0, offset: 1, mask: 0xFF }],
            ..Default::default()
        },
    );
    fs.write("f", &[0, 0, 0]).unwrap();
    fs.write("g", &[0, 0]).unwrap();
    assert_eq!(disk.read("f").unwrap(), vec![0, 0xFF, 0]);
    assert_eq!(disk.read("g").unwrap(), vec![0, 0]); // only write 0 flipped
    assert_eq!(fs.writes_issued(), 2);
}

#[test]
fn faultfs_passthrough_counts_writes() {
    let fs = FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default());
    fs.write("a", b"x").unwrap();
    fs.append("a", b"y").unwrap();
    fs.remove("a").unwrap();
    assert_eq!(fs.writes_issued(), 3);
    assert!(!fs.crashed());
}
