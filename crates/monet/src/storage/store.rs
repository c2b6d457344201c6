//! The page store: a durable key → bytes map built from checkpointed
//! page files plus a write-ahead log, fronted by the buffer pool.
//!
//! ## Layout
//!
//! A store occupies a flat [`StorageBackend`] namespace with:
//!
//! * `pages-{gen:06}.dat` — immutable checkpoint files ("generations").
//!   Each is a run of data pages (values chunked across pages in sorted
//!   key order), then manifest pages (key → page-range entries), then a
//!   single footer page locating the manifest.
//! * `wal.log` — puts and deletes committed since the last checkpoint.
//!
//! A [`Store::delete`] is logged like a put and held in the overlay as a
//! removal, which hides the key even while the base manifest still lists
//! it; the next checkpoint leaves the key out of the new generation, so
//! deleted bytes leave both memory and the backend at that point.
//!
//! ## Crash safety without rename
//!
//! Checkpoints are *shadow generations*: a new `pages-{gen+1}.dat` is
//! written page-by-page and synced; only then is the WAL reset and old
//! generations removed. Opening scans for the **highest generation whose
//! footer and manifest validate** — a torn half-written generation simply
//! fails validation and the opener falls back to the previous one. WAL
//! replay over any base is idempotent (puts overwrite by key, deletes
//! remove it, the last write to a key wins), so every crash window —
//! mid-checkpoint, after checkpoint but before WAL reset, mid-removal of
//! old gens — recovers to the committed state.
//!
//! ## Recovery state machine (on [`Store::open`])
//!
//! ```text
//! scan files ──▶ candidate gens (desc) ──▶ validate footer+manifest
//!      │                 │ all invalid/none        │ first valid
//!      ▼                 ▼                         ▼
//!   no gens          base = empty             base = gen
//!      └──────────────────┴──────────┬──────────────┘
//!                                    ▼
//!                        WAL replay (committed tail)
//!                                    ▼
//!        overlay = replayed puts and deletes, in order   +   report
//!                                    ▼
//!             tail discarded? ── checkpoint (or empty the log)
//! ```

use crate::error::{MonetError, Result};
use crate::fxhash::FxHashMap;
use crate::storage::backend::StorageBackend;
use crate::storage::page::{decode_page, encode_page, PageKind, PAGE_PAYLOAD, PAGE_SIZE};
use crate::storage::pool::{BufferPool, PageKey, PoolStats};
use crate::storage::wal::{Wal, WAL_FILE};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;

const FOOTER_MAGIC: u32 = 0x4D46_5431; // "MFT1"

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Buffer-pool capacity in pages; `0` = unbounded.
    pub pool_pages: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        // 4 MiB of 4 KiB pages by default
        StoreOptions { pool_pages: 1024 }
    }
}

/// What recovery found and did while opening a store.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation number of the base checkpoint used (`None` = empty base).
    pub base_generation: Option<u64>,
    /// Generations that failed validation and were skipped (torn
    /// checkpoints from a crash mid-write).
    pub generations_skipped: Vec<u64>,
    /// Committed transactions replayed from the WAL.
    pub wal_transactions: usize,
    /// Keys the replayed WAL puts or deletes (the overlay).
    pub wal_keys: usize,
    /// Uncommitted WAL records discarded.
    pub records_discarded: usize,
    /// Torn trailing WAL bytes discarded.
    pub bytes_discarded: usize,
}

#[derive(Debug, Clone)]
struct ManifestEntry {
    key: String,
    first_page: u64,
    byte_len: u64,
}

struct StoreInner {
    /// Current base generation (`None` until the first checkpoint).
    generation: Option<u64>,
    /// Key → location in the base generation file.
    manifest: FxHashMap<String, ManifestEntry>,
    /// Committed writes not yet checkpointed (WAL overlay): a value, or
    /// `None` for a deleted key, which hides any base-manifest entry.
    overlay: FxHashMap<String, Option<Vec<u8>>>,
    /// Writes staged by [`Store::put`] / [`Store::delete`], durable at the
    /// next [`Store::commit`].
    staged: Vec<(String, Option<Vec<u8>>)>,
    /// Highest generation number ever observed, valid or torn — the next
    /// checkpoint must go above it so a torn higher gen never shadows us.
    max_gen_seen: u64,
}

/// A durable key → bytes map: checkpointed page files + WAL, fronted by
/// a clock-eviction buffer pool. All reads of checkpointed data are
/// checksum-verified page reads; corrupt pages surface as
/// [`MonetError::Corrupt`], never as silently wrong bytes.
pub struct Store {
    backend: Arc<dyn StorageBackend>,
    pool: BufferPool,
    inner: Mutex<StoreInner>,
    /// Serialises [`Store::commit`] and [`Store::checkpoint`]: WAL records
    /// of two commits never interleave, and a checkpoint never resets the
    /// WAL under a commit it did not fold.
    log: Mutex<()>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Store")
            .field("generation", &inner.generation)
            .field("manifest_keys", &inner.manifest.len())
            .field("overlay_keys", &inner.overlay.len())
            .field("pool", &self.pool)
            .finish()
    }
}

fn gen_file(generation: u64) -> String {
    format!("pages-{generation:06}.dat")
}

fn parse_gen(file: &str) -> Option<u64> {
    let rest = file.strip_prefix("pages-")?.strip_suffix(".dat")?;
    rest.parse().ok()
}

impl Store {
    /// Open a store, running recovery: pick the newest valid checkpoint
    /// generation, replay the WAL's committed tail over it, and discard
    /// any torn records — checkpointing (or emptying the log) when it
    /// did, so later commits never land behind them. Never fails on a
    /// torn state — only on real I/O errors or an unreadable
    /// *valid-looking* structure.
    pub fn open(backend: Arc<dyn StorageBackend>, options: StoreOptions) -> Result<Self> {
        let mut report = RecoveryReport::default();
        let mut gens: Vec<u64> = backend.list()?.iter().filter_map(|f| parse_gen(f)).collect();
        gens.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let max_gen_seen = gens.first().copied().unwrap_or(0);

        let mut generation = None;
        let mut manifest = FxHashMap::default();
        for g in gens {
            match Self::load_manifest(backend.as_ref(), g) {
                Ok(entries) => {
                    manifest = entries.into_iter().map(|e| (e.key.clone(), e)).collect();
                    generation = Some(g);
                    break;
                }
                Err(_) => report.generations_skipped.push(g),
            }
        }
        report.base_generation = generation;

        let replay = Wal::new(backend.as_ref(), WAL_FILE).replay()?;
        report.wal_transactions = replay.transactions;
        report.records_discarded = replay.records_discarded;
        report.bytes_discarded = replay.bytes_discarded;
        let mut overlay = FxHashMap::default();
        for (k, v) in replay.writes {
            overlay.insert(k, v);
        }
        report.wal_keys = overlay.len();

        let discarded = report.records_discarded > 0 || report.bytes_discarded > 0;
        let store = Store {
            pool: BufferPool::new(options.pool_pages),
            inner: Mutex::new(StoreInner {
                generation,
                manifest,
                overlay,
                staged: Vec::new(),
                max_gen_seen,
            }),
            log: Mutex::new(()),
            backend,
            recovery: report,
        };
        // a discarded tail must not stay in the log: the next commit would
        // land behind torn bytes (where replay stops) or seal a crashed
        // transaction's records. Fold the committed writes into pages, or
        // with none to fold, just empty the log.
        if discarded {
            if store.inner.lock().overlay.is_empty() {
                Wal::new(store.backend.as_ref(), WAL_FILE).reset()?;
            } else {
                store.checkpoint()?;
            }
        }
        Ok(store)
    }

    /// What recovery found while opening this store.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The backend this store writes through.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// All keys currently visible (base ∪ overlay ∪ staged, less
    /// deletes), sorted.
    pub fn keys(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut keys: Vec<String> = inner
            .manifest
            .keys()
            .chain(inner.overlay.keys())
            .chain(inner.staged.iter().map(|(k, _)| k))
            .filter(|k| inner.visible(k, true))
            .cloned()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// True if `key` is visible.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().visible(key, true)
    }

    /// Read a value. Staged writes win over the WAL overlay, which wins
    /// over the checkpointed base; a delete hides the key from every
    /// layer below it. Base reads go through the buffer pool page by
    /// page, each page checksum-verified.
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.read(key, true)
    }

    /// [`get`](Self::get), optionally ignoring staged writes (a
    /// checkpoint folds committed state only).
    fn read(&self, key: &str, with_staged: bool) -> Result<Option<Vec<u8>>> {
        let (entry, generation) = {
            let inner = self.inner.lock();
            if let Some(v) = inner.pending(key, with_staged) {
                return Ok(v.clone());
            }
            match (&inner.generation, inner.manifest.get(key)) {
                (Some(g), Some(e)) => (e.clone(), *g),
                _ => return Ok(None),
            }
        };
        let mut value = Vec::with_capacity(entry.byte_len as usize);
        let file = gen_file(generation);
        let mut page_no = entry.first_page;
        while value.len() < entry.byte_len as usize {
            let payload = self.read_page(&file, generation, page_no, PageKind::Data)?;
            let need = entry.byte_len as usize - value.len();
            if payload.len() > need {
                return Err(MonetError::Corrupt {
                    what: format!("value '{key}'"),
                    detail: format!("page run longer than manifest byte_len {}", entry.byte_len),
                });
            }
            value.extend_from_slice(&payload);
            if payload.is_empty() && need > 0 {
                return Err(MonetError::Corrupt {
                    what: format!("value '{key}'"),
                    detail: "empty data page inside a value run".into(),
                });
            }
            page_no += 1;
        }
        Ok(Some(value))
    }

    /// Read one page via the pool, verifying checksum and kind.
    fn read_page(
        &self,
        file: &str,
        generation: u64,
        page_no: u64,
        expect_kind: PageKind,
    ) -> Result<Vec<u8>> {
        let cached = self.pool.get_or_load(
            PageKey { file: generation, page: page_no },
            || -> Result<Vec<u8>> {
                let raw = self.backend.read_at(file, page_no * PAGE_SIZE as u64, PAGE_SIZE)?;
                let (kind, payload) = decode_page(&raw, page_no as u32)?;
                if kind != expect_kind {
                    return Err(MonetError::Corrupt {
                        what: format!("page {page_no} of {file}"),
                        detail: format!("expected {expect_kind:?} page, found {kind:?}"),
                    });
                }
                Ok(payload)
            },
        )?;
        Ok(cached.as_ref().clone())
    }

    /// Stage a put. Nothing is durable until [`commit`](Self::commit).
    pub fn put(&self, key: impl Into<String>, value: Vec<u8>) {
        self.inner.lock().staged.push((key.into(), Some(value)));
    }

    /// Stage the removal of `key` (a no-op for an absent key). Like a put
    /// it is durable at the next [`commit`](Self::commit), and the bytes
    /// leave the page files at the next [`checkpoint`](Self::checkpoint).
    pub fn delete(&self, key: impl Into<String>) {
        self.inner.lock().staged.push((key.into(), None));
    }

    /// Write all staged puts and deletes to the WAL as one transaction and
    /// sync. After this returns, they survive any crash.
    pub fn commit(&self) -> Result<()> {
        let _log = self.log.lock();
        let staged = std::mem::take(&mut self.inner.lock().staged);
        if staged.is_empty() {
            return Ok(());
        }
        let wal = Wal::new(self.backend.as_ref(), WAL_FILE);
        for (k, v) in &staged {
            match v {
                Some(v) => wal.append_put(k, v)?,
                None => wal.append_delete(k)?,
            }
        }
        wal.commit()?;
        let mut inner = self.inner.lock();
        for (k, v) in staged {
            inner.overlay.insert(k, v);
        }
        Ok(())
    }

    /// Fold base + overlay into a fresh shadow generation, then reset the
    /// WAL and remove superseded generation files. Deleted keys are left
    /// out. Crash-safe at every step (see module docs). No-op when there
    /// is nothing to fold.
    pub fn checkpoint(&self) -> Result<()> {
        let _log = self.log.lock();
        // the committed visible keys (base ∪ overlay, less deletes; staged
        // writes are NOT checkpointed — commit first)
        let (keys, old_gen, new_gen) = {
            let inner = self.inner.lock();
            if inner.overlay.is_empty() && inner.generation.is_some() {
                return Ok(()); // base already reflects everything
            }
            let mut keys: Vec<String> = inner
                .manifest
                .keys()
                .chain(inner.overlay.keys())
                .filter(|k| inner.visible(k, false))
                .cloned()
                .collect();
            keys.sort_unstable();
            keys.dedup();
            (keys, inner.generation, inner.max_gen_seen + 1)
        };

        // shadow write, one value at a time: data runs in key order, then
        // manifest, then footer. The new generation becomes real only once
        // its footer page (written last) validates.
        let file = gen_file(new_gen);
        self.backend.remove(&file)?; // clear any torn leftover at this gen
        let n_pages = Cell::new(0u64);
        let write_page = |kind: PageKind, payload: &[u8]| -> Result<()> {
            let page_no = n_pages.replace(n_pages.get() + 1);
            self.backend.append(&file, &encode_page(kind, page_no as u32, payload))
        };
        let mut entries: Vec<ManifestEntry> = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(value) = self.read(&key, false)? else { continue };
            let first_page = n_pages.get();
            if value.is_empty() {
                write_page(PageKind::Data, &[])?;
            }
            for chunk in value.chunks(PAGE_PAYLOAD) {
                write_page(PageKind::Data, chunk)?;
            }
            entries.push(ManifestEntry { key, first_page, byte_len: value.len() as u64 });
        }
        let manifest_bytes = Self::encode_manifest(&entries);
        let manifest_first = n_pages.get();
        if manifest_bytes.is_empty() {
            write_page(PageKind::Manifest, &[])?;
        }
        for chunk in manifest_bytes.chunks(PAGE_PAYLOAD) {
            write_page(PageKind::Manifest, chunk)?;
        }
        let mut footer = Vec::with_capacity(44);
        footer.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        footer.extend_from_slice(&new_gen.to_le_bytes());
        footer.extend_from_slice(&manifest_first.to_le_bytes());
        footer.extend_from_slice(&(n_pages.get() - manifest_first).to_le_bytes());
        footer.extend_from_slice(&(manifest_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        write_page(PageKind::Footer, &footer)?;
        self.backend.sync(&file)?;

        // swap in the new base, then retire the WAL and old generations.
        // A crash anywhere past the sync is safe: replaying the stale WAL
        // over the new base is idempotent, and a leftover old gen loses
        // to the newer valid one at open.
        {
            let mut inner = self.inner.lock();
            inner.generation = Some(new_gen);
            inner.max_gen_seen = new_gen;
            inner.manifest = entries.into_iter().map(|e| (e.key.clone(), e)).collect();
            inner.overlay.clear();
        }
        Wal::new(self.backend.as_ref(), WAL_FILE).reset()?;
        if let Some(g) = old_gen {
            self.backend.remove(&gen_file(g))?;
        }
        for f in self.backend.list()? {
            if let Some(g) = parse_gen(&f) {
                if g != new_gen {
                    self.backend.remove(&f)?;
                }
            }
        }
        Ok(())
    }

    fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in entries {
            out.extend_from_slice(&(e.key.len() as u32).to_le_bytes());
            out.extend_from_slice(e.key.as_bytes());
            out.extend_from_slice(&e.first_page.to_le_bytes());
            out.extend_from_slice(&e.byte_len.to_le_bytes());
        }
        out
    }

    /// Validate generation `g`'s footer and decode its manifest. Any
    /// failure means "this generation is torn — fall back".
    fn load_manifest(backend: &dyn StorageBackend, g: u64) -> Result<Vec<ManifestEntry>> {
        let file = gen_file(g);
        let len = backend.file_len(&file)?;
        if len < PAGE_SIZE as u64 || len % PAGE_SIZE as u64 != 0 {
            return Err(MonetError::Corrupt {
                what: file,
                detail: format!("file length {len} is not a whole number of pages"),
            });
        }
        let n_pages = len / PAGE_SIZE as u64;
        let footer_no = n_pages - 1;
        let raw = backend.read_at(&file, footer_no * PAGE_SIZE as u64, PAGE_SIZE)?;
        let (kind, payload) = decode_page(&raw, footer_no as u32)?;
        if kind != PageKind::Footer || payload.len() != 44 {
            return Err(MonetError::Corrupt {
                what: file,
                detail: "last page is not a valid footer".into(),
            });
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let magic = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
        let footer_gen = word(4);
        let manifest_first = word(12);
        let manifest_pages = word(20);
        let manifest_len = word(28) as usize;
        let n_entries = word(36) as usize;
        if magic != FOOTER_MAGIC || footer_gen != g {
            return Err(MonetError::Corrupt {
                what: file,
                detail: "footer magic/generation mismatch".into(),
            });
        }
        if manifest_first + manifest_pages != footer_no {
            return Err(MonetError::Corrupt {
                what: file,
                detail: "footer manifest range inconsistent with file size".into(),
            });
        }
        let mut manifest_bytes = Vec::with_capacity(manifest_len);
        for p in manifest_first..manifest_first + manifest_pages {
            let raw = backend.read_at(&file, p * PAGE_SIZE as u64, PAGE_SIZE)?;
            let (kind, payload) = decode_page(&raw, p as u32)?;
            if kind != PageKind::Manifest {
                return Err(MonetError::Corrupt {
                    what: file,
                    detail: format!("page {p} should be a manifest page"),
                });
            }
            manifest_bytes.extend_from_slice(&payload);
        }
        if manifest_bytes.len() != manifest_len {
            return Err(MonetError::Corrupt {
                what: file,
                detail: format!(
                    "manifest is {} bytes, footer says {manifest_len}",
                    manifest_bytes.len()
                ),
            });
        }
        let entries = Self::decode_manifest(&manifest_bytes, n_entries, &file)?;
        Ok(entries)
    }

    fn decode_manifest(bytes: &[u8], n_entries: usize, file: &str) -> Result<Vec<ManifestEntry>> {
        let corrupt = |detail: &str| MonetError::Corrupt {
            what: format!("manifest of {file}"),
            detail: detail.into(),
        };
        let mut entries = Vec::with_capacity(n_entries);
        let mut at = 0usize;
        for _ in 0..n_entries {
            if bytes.len() - at < 4 {
                return Err(corrupt("truncated entry header"));
            }
            let klen = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4;
            if bytes.len() - at < klen + 16 {
                return Err(corrupt("truncated entry body"));
            }
            let key = std::str::from_utf8(&bytes[at..at + klen])
                .map_err(|_| corrupt("key is not utf-8"))?
                .to_string();
            at += klen;
            let first_page = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            let byte_len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
            at += 16;
            entries.push(ManifestEntry { key, first_page, byte_len });
        }
        if at != bytes.len() {
            return Err(corrupt("trailing bytes after last entry"));
        }
        Ok(entries)
    }
}

impl StoreInner {
    /// The newest un-checkpointed write to `key` — staged (when asked)
    /// over the overlay: `Some(None)` is a delete, `None` means "ask the
    /// base".
    fn pending(&self, key: &str, with_staged: bool) -> Option<&Option<Vec<u8>>> {
        let staged = with_staged.then(|| self.staged.iter().rev().find(|(k, _)| k == key));
        staged.flatten().map(|(_, v)| v).or_else(|| self.overlay.get(key))
    }

    /// True if `key` is visible: its newest write is a put, or it has
    /// none and the base manifest lists it.
    fn visible(&self, key: &str, with_staged: bool) -> bool {
        match self.pending(key, with_staged) {
            Some(v) => v.is_some(),
            None => self.manifest.contains_key(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::backend::{FaultFs, FaultPlan, MemFs};

    fn mem_store(fs: &MemFs) -> Store {
        Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap()
    }

    #[test]
    fn put_commit_get_roundtrip() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        store.put("alpha", b"one".to_vec());
        store.put("beta", vec![9u8; 10_000]); // spans multiple pages later
        assert_eq!(store.get("alpha").unwrap().unwrap(), b"one"); // staged read
        store.commit().unwrap();
        assert_eq!(store.get("alpha").unwrap().unwrap(), b"one");
        assert_eq!(store.get("beta").unwrap().unwrap(), vec![9u8; 10_000]);
        assert_eq!(store.get("gamma").unwrap(), None);
        assert_eq!(store.keys(), vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn committed_data_survives_reopen_without_checkpoint() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", b"v".to_vec());
            store.commit().unwrap();
        } // handle dropped = crash without checkpoint
        let store = mem_store(&fs);
        assert_eq!(store.get("k").unwrap().unwrap(), b"v");
        assert_eq!(store.recovery().wal_transactions, 1);
        assert_eq!(store.recovery().base_generation, None);
    }

    #[test]
    fn checkpoint_then_reopen_reads_pages_not_wal() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("big", vec![3u8; 20_000]);
            store.put("small", b"s".to_vec());
            store.put("empty", Vec::new());
            store.commit().unwrap();
            store.checkpoint().unwrap();
        }
        let store = mem_store(&fs);
        assert_eq!(store.recovery().base_generation, Some(1));
        assert_eq!(store.recovery().wal_transactions, 0);
        assert_eq!(store.get("big").unwrap().unwrap(), vec![3u8; 20_000]);
        assert_eq!(store.get("small").unwrap().unwrap(), b"s");
        assert_eq!(store.get("empty").unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wal_puts_after_checkpoint_overlay_the_base() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", b"old".to_vec());
            store.commit().unwrap();
            store.checkpoint().unwrap();
            store.put("k", b"new".to_vec());
            store.commit().unwrap();
        }
        let store = mem_store(&fs);
        assert_eq!(store.get("k").unwrap().unwrap(), b"new");
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_generation() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", b"v1".to_vec());
            store.commit().unwrap();
            store.checkpoint().unwrap(); // gen 1
        }
        // fake a torn gen 2: some pages but no valid footer
        fs.append("pages-000002.dat", &vec![0u8; PAGE_SIZE * 2]).unwrap();
        let store = mem_store(&fs);
        assert_eq!(store.recovery().base_generation, Some(1));
        assert_eq!(store.recovery().generations_skipped, vec![2]);
        assert_eq!(store.get("k").unwrap().unwrap(), b"v1");
        // the next checkpoint must go to gen 3, above the torn gen 2
        store.put("k", b"v2".to_vec());
        store.commit().unwrap();
        store.checkpoint().unwrap();
        let store2 = mem_store(&fs);
        assert_eq!(store2.recovery().base_generation, Some(3));
        assert_eq!(store2.get("k").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn flipped_page_byte_is_reported_never_served() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", vec![7u8; 5000]);
            store.commit().unwrap();
            store.checkpoint().unwrap();
        }
        // corrupt a byte in the middle of the first data page's payload
        fs.corrupt("pages-000001.dat", 100, 0x01).unwrap();
        let store = mem_store(&fs);
        let err = store.get("k").unwrap_err();
        assert!(matches!(err, MonetError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn crash_mid_checkpoint_recovers_from_wal() {
        // learn the write count of a full fault-free run, then crash at
        // every mutating operation along the way and verify recovery
        let counter = Arc::new(FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default()));
        {
            let store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
            store.put("a", vec![1u8; 6000]);
            store.put("b", b"bee".to_vec());
            store.commit().unwrap();
            store.checkpoint().unwrap();
        }
        let n = counter.writes_issued();
        assert!(n > 3, "workload too small to be interesting: {n} writes");

        for crash_at in 0..n {
            for torn in [0usize, 3] {
                let disk = MemFs::new();
                let faulty = Arc::new(FaultFs::new(
                    Arc::new(disk.clone()),
                    FaultPlan {
                        crash_at_write: Some(crash_at),
                        torn_bytes: torn,
                        ..Default::default()
                    },
                ));
                let store = Store::open(faulty, StoreOptions::default()).unwrap();
                store.put("a", vec![1u8; 6000]);
                store.put("b", b"bee".to_vec());
                let committed = store.commit().is_ok();
                let _ = store.checkpoint(); // may crash — fine
                drop(store);
                // reopen on the survived bytes
                let store = mem_store(&disk);
                if committed {
                    assert_eq!(
                        store.get("a").unwrap().unwrap(),
                        vec![1u8; 6000],
                        "crash at write {crash_at} torn {torn} lost committed data"
                    );
                    assert_eq!(store.get("b").unwrap().unwrap(), b"bee");
                } else {
                    // crashed before commit: all-or-nothing
                    assert!(
                        store.get("a").unwrap().is_none(),
                        "crash at write {crash_at} leaked uncommitted data"
                    );
                }
            }
        }
    }

    #[test]
    fn delete_survives_reopen_from_the_wal_alone() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("a", b"1".to_vec());
            store.put("b", b"2".to_vec());
            store.commit().unwrap();
            store.delete("a");
            assert_eq!(store.get("a").unwrap(), None); // staged delete reads through
            store.commit().unwrap();
        }
        let store = mem_store(&fs);
        assert_eq!(store.recovery().base_generation, None);
        assert_eq!(store.get("a").unwrap(), None);
        assert!(!store.contains("a"));
        assert_eq!(store.keys(), vec!["b".to_string()]);
    }

    #[test]
    fn checkpoint_leaves_deleted_keys_out_of_the_page_file() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("gone", vec![5u8; 20_000]);
            store.put("kept", b"k".to_vec());
            store.commit().unwrap();
            store.delete("gone");
            store.commit().unwrap();
            store.checkpoint().unwrap();
        }
        assert!(fs.total_bytes() < 20_000, "deleted bytes still on the backend");
        let store = mem_store(&fs);
        assert_eq!(store.recovery().wal_transactions, 0);
        assert_eq!(store.get("gone").unwrap(), None);
        assert_eq!(store.keys(), vec!["kept".to_string()]);
    }

    #[test]
    fn delete_hides_a_base_manifest_key() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", b"base".to_vec());
            store.put("other", b"o".to_vec());
            store.commit().unwrap();
            store.checkpoint().unwrap();
            store.delete("k");
            store.commit().unwrap();
            assert_eq!(store.get("k").unwrap(), None);
            assert!(!store.contains("k"));
        }
        // the base page file still lists the key; the replayed delete hides it
        let store = mem_store(&fs);
        assert_eq!(store.recovery().base_generation, Some(1));
        assert_eq!(store.get("k").unwrap(), None);
        assert!(!store.contains("k"));
        assert_eq!(store.keys(), vec!["other".to_string()]);
    }

    #[test]
    fn put_after_delete_wins() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            store.put("k", b"old".to_vec());
            store.commit().unwrap();
            store.checkpoint().unwrap();
            store.delete("k");
            store.put("k", b"new".to_vec()); // same transaction
            store.commit().unwrap();
            assert_eq!(store.get("k").unwrap().unwrap(), b"new");
            store.delete("k");
            store.commit().unwrap();
            store.put("k", b"newer".to_vec()); // a later transaction
            store.commit().unwrap();
        }
        let store = mem_store(&fs);
        assert_eq!(store.get("k").unwrap().unwrap(), b"newer");
        store.checkpoint().unwrap();
        assert_eq!(mem_store(&fs).get("k").unwrap().unwrap(), b"newer");
    }

    #[test]
    fn crash_in_a_mixed_put_delete_transaction_is_all_or_nothing() {
        // a checkpointed base, then one transaction that deletes a base
        // key and a WAL key and puts a new one, then a checkpoint: crash
        // at every write of the run and expect exactly before or after
        let setup = |store: &Store| {
            store.put("base", vec![2u8; 5000]);
            store.commit().unwrap();
            store.checkpoint().unwrap();
            store.put("wal", b"w".to_vec());
            store.commit().unwrap();
        };
        let txn = |store: &Store| -> bool {
            store.delete("base");
            store.delete("wal");
            store.put("new", vec![3u8; 6000]);
            let committed = store.commit().is_ok();
            let _ = store.checkpoint(); // may crash — fine
            committed
        };
        let counter = Arc::new(FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default()));
        let store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
        setup(&store);
        let first = counter.writes_issued();
        assert!(txn(&store));
        let n = counter.writes_issued();
        assert!(n - first > 5, "transaction too small to be interesting: {} writes", n - first);

        for crash_at in first..n {
            for torn in [0usize, 3] {
                let disk = MemFs::new();
                let faulty = Arc::new(FaultFs::new(
                    Arc::new(disk.clone()),
                    FaultPlan {
                        crash_at_write: Some(crash_at),
                        torn_bytes: torn,
                        ..Default::default()
                    },
                ));
                let store = Store::open(faulty, StoreOptions::default()).unwrap();
                setup(&store);
                let committed = txn(&store);
                drop(store);
                let store = mem_store(&disk);
                let keys = store.keys();
                if committed {
                    assert_eq!(keys, vec!["new".to_string()], "crash at {crash_at} torn {torn}");
                    assert_eq!(store.get("new").unwrap().unwrap(), vec![3u8; 6000]);
                } else {
                    let before = vec!["base".to_string(), "wal".to_string()];
                    assert_eq!(keys, before, "crash at {crash_at} torn {torn}");
                    assert_eq!(store.get("base").unwrap().unwrap(), vec![2u8; 5000]);
                }
            }
        }
    }

    #[test]
    fn commits_after_a_discarded_wal_tail_survive_the_next_reopen() {
        for checkpointed in [false, true] {
            let fs = MemFs::new();
            {
                let store = mem_store(&fs);
                store.put("a", b"1".to_vec());
                store.commit().unwrap();
                if checkpointed {
                    store.checkpoint().unwrap();
                }
                // a crash left an unsealed put, then a torn record
                let wal = Wal::new(&fs, WAL_FILE);
                wal.append_put("ghost", b"never committed").unwrap();
                fs.append(WAL_FILE, &[0xAB, 0x00, 0x00]).unwrap();
            }
            {
                let store = mem_store(&fs);
                assert!(store.recovery().bytes_discarded > 0);
                store.put("b", b"2".to_vec());
                store.commit().unwrap();
            }
            let store = mem_store(&fs);
            assert_eq!(store.get("b").unwrap().unwrap(), b"2", "checkpointed base: {checkpointed}");
            assert_eq!(store.get("ghost").unwrap(), None, "a later commit sealed a crashed put");
            assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
        }
    }

    #[test]
    fn small_pool_and_unbounded_pool_read_identically() {
        let fs = MemFs::new();
        {
            let store = mem_store(&fs);
            for i in 0..20 {
                store.put(format!("key-{i:02}"), vec![i as u8; 3000 + i * 137]);
            }
            store.commit().unwrap();
            store.checkpoint().unwrap();
        }
        let tiny = Store::open(Arc::new(fs.clone()), StoreOptions { pool_pages: 2 }).unwrap();
        let huge = Store::open(Arc::new(fs.clone()), StoreOptions { pool_pages: 0 }).unwrap();
        for i in (0..20).chain((0..20).rev()) {
            let key = format!("key-{i:02}");
            assert_eq!(tiny.get(&key).unwrap(), huge.get(&key).unwrap(), "key {key}");
        }
        assert!(tiny.pool_stats().evictions > 0, "tiny pool never evicted");
        assert_eq!(huge.pool_stats().evictions, 0);
    }

    #[test]
    fn checkpoint_is_idempotent_when_clean() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        store.put("k", b"v".to_vec());
        store.commit().unwrap();
        store.checkpoint().unwrap();
        let files_before = fs.list().unwrap();
        store.checkpoint().unwrap(); // nothing to fold — no-op
        assert_eq!(fs.list().unwrap(), files_before);
    }
}
