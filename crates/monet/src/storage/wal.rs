//! Write-ahead log: append-only records with CRC framing and a
//! commit-terminated transaction discipline.
//!
//! Record layout on disk (all little-endian):
//!
//! ```text
//! [u32 len][u64 crc][u8 kind][payload...]
//! ```
//!
//! `len` counts the kind byte plus the payload; `crc` is fx64 over the
//! kind byte and payload. Three kinds exist: `Put {key, value}` (kind 1),
//! `Commit` (kind 2) and `Delete {key}` (kind 3). Writers append the puts
//! and deletes of a transaction and then a commit record, syncing after
//! the commit — a transaction is durable exactly when its commit record
//! is fully on disk.
//!
//! Replay scans from the start, buffering writes until a commit seals
//! them. A record that is truncated, short, or fails its CRC ends the
//! scan: it and everything after it (including any unsealed writes) is
//! the torn tail a crash left behind, and is discarded — counted, never
//! decoded. A record whose CRC holds but whose kind this build does not
//! know is not a torn tail — a crash cannot forge a checksum — so replay
//! fails with [`MonetError::Corrupt`] rather than drop committed data.

use crate::error::{MonetError, Result};
use crate::storage::backend::StorageBackend;
use crate::storage::codec::checksum64;

/// Default WAL file name within a store's backend namespace.
pub const WAL_FILE: &str = "wal.log";

const KIND_PUT: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_DELETE: u8 = 3;
/// Allocation guard for a single record (16 MiB) — a corrupt length
/// field must not trigger an absurd allocation.
const MAX_RECORD: usize = 16 << 20;

/// Outcome of a [`Wal::replay`]: the committed effects plus an account
/// of what the scan discarded.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Committed writes in commit order: `(key, Some(value))` for a put,
    /// `(key, None)` for a delete. A later write to the same key
    /// supersedes an earlier one; the store applies them in order.
    pub writes: Vec<(String, Option<Vec<u8>>)>,
    /// Number of committed transactions replayed.
    pub transactions: usize,
    /// Whole records discarded: writes of transactions never sealed by a
    /// commit.
    pub records_discarded: usize,
    /// Bytes of torn trailing garbage (a partly-written record).
    pub bytes_discarded: usize,
}

/// A write-ahead log over a [`StorageBackend`] file.
#[derive(Debug)]
pub struct Wal<'a> {
    backend: &'a dyn StorageBackend,
    file: String,
}

impl<'a> Wal<'a> {
    /// Handle to the log named `file` on `backend` (created on first append).
    pub fn new(backend: &'a dyn StorageBackend, file: impl Into<String>) -> Self {
        Wal { backend, file: file.into() }
    }

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let len = 1 + payload.len();
        let mut hashed = Vec::with_capacity(len);
        hashed.push(kind);
        hashed.extend_from_slice(payload);
        let crc = checksum64(&hashed);
        let mut rec = Vec::with_capacity(12 + len);
        rec.extend_from_slice(&(len as u32).to_le_bytes());
        rec.extend_from_slice(&crc.to_le_bytes());
        rec.extend_from_slice(&hashed);
        rec
    }

    /// Append a `Put {key, value}` record (not yet durable — unsealed
    /// until the next [`commit`](Self::commit)).
    pub fn append_put(&self, key: &str, value: &[u8]) -> Result<()> {
        let mut payload = Vec::with_capacity(8 + key.len() + value.len());
        payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
        payload.extend_from_slice(value);
        self.backend.append(&self.file, &Self::frame(KIND_PUT, &payload))
    }

    /// Append a `Delete {key}` record (unsealed until the next
    /// [`commit`](Self::commit), like a put).
    pub fn append_delete(&self, key: &str) -> Result<()> {
        let mut payload = Vec::with_capacity(4 + key.len());
        payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        self.backend.append(&self.file, &Self::frame(KIND_DELETE, &payload))
    }

    /// Append a commit record and sync — the durability point of every
    /// transaction written since the previous commit.
    pub fn commit(&self) -> Result<()> {
        self.backend.append(&self.file, &Self::frame(KIND_COMMIT, &[]))?;
        self.backend.sync(&self.file)
    }

    /// Scan the log, returning committed writes and discarding the torn
    /// tail. A missing log file is an empty log; a checksummed record of
    /// an unknown kind is an error.
    pub fn replay(&self) -> Result<WalReplay> {
        let mut out = WalReplay::default();
        if !self.backend.exists(&self.file) {
            return Ok(out);
        }
        let bytes = self.backend.read(&self.file)?;
        let mut at = 0usize;
        let mut pending: Vec<(String, Option<Vec<u8>>)> = Vec::new();
        loop {
            if at == bytes.len() {
                break; // clean end
            }
            if bytes.len() - at < 12 {
                out.bytes_discarded = bytes.len() - at;
                break; // torn header
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            if len == 0 || len > MAX_RECORD || bytes.len() - at - 12 < len {
                out.bytes_discarded = bytes.len() - at;
                break; // torn or nonsense body
            }
            let body = &bytes[at + 12..at + 12 + len];
            if checksum64(body) != crc {
                out.bytes_discarded = bytes.len() - at;
                break; // bit rot or torn overwrite — stop trusting the tail
            }
            let write = match body[0] {
                KIND_PUT => Self::decode_put(&body[1..]).map(|(k, v)| (k, Some(v))),
                KIND_DELETE => Self::decode_key(&body[1..]).map(|k| (k, None)),
                KIND_COMMIT => {
                    out.transactions += 1;
                    out.writes.append(&mut pending);
                    at += 12 + len;
                    continue;
                }
                kind => {
                    return Err(MonetError::Corrupt {
                        what: format!("{} record at byte {at}", self.file),
                        detail: format!("unknown record kind {kind} behind a valid checksum"),
                    })
                }
            };
            match write {
                Some(w) => pending.push(w),
                None => {
                    out.bytes_discarded = bytes.len() - at;
                    break;
                }
            }
            at += 12 + len;
        }
        out.records_discarded = pending.len();
        Ok(out)
    }

    fn decode_key(payload: &[u8]) -> Option<String> {
        let klen = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
        if payload.len() != 4 + klen {
            return None;
        }
        Some(std::str::from_utf8(&payload[4..]).ok()?.to_string())
    }

    fn decode_put(payload: &[u8]) -> Option<(String, Vec<u8>)> {
        if payload.len() < 4 {
            return None;
        }
        let klen = u32::from_le_bytes(payload[0..4].try_into().ok()?) as usize;
        if payload.len() < 4 + klen + 4 {
            return None;
        }
        let key = std::str::from_utf8(&payload[4..4 + klen]).ok()?.to_string();
        let vlen = u32::from_le_bytes(payload[4 + klen..8 + klen].try_into().ok()?) as usize;
        if payload.len() != 8 + klen + vlen {
            return None;
        }
        Some((key, payload[8 + klen..].to_vec()))
    }

    /// Truncate the log to empty (after a checkpoint has absorbed its
    /// effects) and sync.
    pub fn reset(&self) -> Result<()> {
        self.backend.write(&self.file, &[])?;
        self.backend.sync(&self.file)
    }

    /// Current log size in bytes (0 if the file does not exist yet).
    pub fn len(&self) -> Result<u64> {
        if !self.backend.exists(&self.file) {
            return Ok(0);
        }
        self.backend.file_len(&self.file)
    }

    /// True if the log holds no bytes.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::backend::MemFs;

    #[test]
    fn committed_transactions_replay_in_order() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.append_put("b", b"2").unwrap();
        wal.commit().unwrap();
        wal.append_put("a", b"3").unwrap();
        wal.commit().unwrap();
        let r = wal.replay().unwrap();
        assert_eq!(r.transactions, 2);
        assert_eq!(
            r.writes,
            vec![
                ("a".into(), Some(b"1".to_vec())),
                ("b".into(), Some(b"2".to_vec())),
                ("a".into(), Some(b"3".to_vec())),
            ]
        );
        assert_eq!(r.records_discarded, 0);
        assert_eq!(r.bytes_discarded, 0);
    }

    #[test]
    fn uncommitted_tail_is_discarded_not_replayed() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.commit().unwrap();
        wal.append_put("b", b"2").unwrap(); // never committed
        let r = wal.replay().unwrap();
        assert_eq!(r.writes, vec![("a".into(), Some(b"1".to_vec()))]);
        assert_eq!(r.records_discarded, 1);
    }

    #[test]
    fn every_truncation_point_replays_a_committed_prefix() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("k1", b"v1").unwrap();
        wal.commit().unwrap();
        wal.append_put("k2", b"v2").unwrap();
        wal.commit().unwrap();
        let full = fs.read(WAL_FILE).unwrap();
        for cut in 0..full.len() {
            fs.write(WAL_FILE, &full[..cut]).unwrap();
            let r = wal.replay().expect("replay never errors on truncation");
            // the replayed writes must be a committed prefix: [], [k1], or [k1,k2]
            match r.writes.len() {
                0 => {}
                1 => assert_eq!(r.writes[0].0, "k1"),
                2 => assert_eq!(r.writes[1].0, "k2"),
                n => panic!("impossible put count {n}"),
            }
            if cut < full.len() {
                assert!(
                    r.bytes_discarded > 0 || r.writes.len() < 2 || cut == full.len(),
                    "cut at {cut} silently dropped data"
                );
            }
        }
    }

    #[test]
    fn corrupted_record_ends_the_scan() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.commit().unwrap();
        wal.append_put("b", b"2").unwrap();
        wal.commit().unwrap();
        let mut bytes = fs.read(WAL_FILE).unwrap();
        // flip a byte inside the second transaction's put record
        let second_tx_start = {
            // first record: 12 + (1 + 4+1+4+1) = 23; commit: 12 + 1 = 13
            23 + 13
        };
        bytes[second_tx_start + 14] ^= 0xFF;
        fs.write(WAL_FILE, &bytes).unwrap();
        let r = wal.replay().unwrap();
        assert_eq!(r.writes, vec![("a".into(), Some(b"1".to_vec()))]);
        assert!(r.bytes_discarded > 0);
    }

    #[test]
    fn deletes_replay_in_order_with_puts() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.append_delete("a").unwrap();
        wal.commit().unwrap();
        wal.append_delete("b").unwrap(); // never committed
        let r = wal.replay().unwrap();
        assert_eq!(r.writes, vec![("a".into(), Some(b"1".to_vec())), ("a".into(), None)]);
        assert_eq!(r.records_discarded, 1);
    }

    #[test]
    fn unknown_kind_with_valid_checksum_is_an_error_not_a_torn_tail() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.commit().unwrap();
        fs.append(WAL_FILE, &Wal::frame(9, b"from a newer build")).unwrap();
        wal.append_put("b", b"2").unwrap();
        wal.commit().unwrap();
        let err = wal.replay().unwrap_err();
        assert!(
            matches!(&err, MonetError::Corrupt { detail, .. } if detail.contains("kind 9")),
            "got {err:?}"
        );
    }

    #[test]
    fn reset_empties_the_log() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        wal.append_put("a", b"1").unwrap();
        wal.commit().unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.reset().unwrap();
        assert!(wal.is_empty().unwrap());
        assert_eq!(wal.replay().unwrap().writes.len(), 0);
    }

    #[test]
    fn missing_log_is_an_empty_log() {
        let fs = MemFs::new();
        let wal = Wal::new(&fs, WAL_FILE);
        let r = wal.replay().unwrap();
        assert!(r.writes.is_empty());
        assert_eq!(wal.len().unwrap(), 0);
    }
}
