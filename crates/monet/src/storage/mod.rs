//! Durable storage tier: checksummed columnar pages, a clock-eviction
//! buffer pool, and a write-ahead log with recovery-on-open.
//!
//! The layering, bottom-up:
//!
//! * [`backend`] — the [`StorageBackend`] trait (a flat namespace of
//!   byte files) with disk, in-memory, and fault-injecting
//!   implementations;
//! * [`codec`] — shared little-endian scalar/column (de)serialization
//!   with validated, allocation-bounded reads;
//! * [`page`] — fixed 4096-byte checksummed pages, the unit of I/O;
//! * [`pool`] — the clock (second-chance) buffer pool fronting page
//!   files;
//! * [`wal`] — CRC-framed, commit-terminated write-ahead logging;
//! * [`Store`] — the durable key → bytes map tying it together: shadow
//!   generation checkpoints, WAL replay on open, checksum-verified page
//!   reads.
//!
//! Higher layers (the `mirror` core's `durable` module) serialize BAT
//! columns, indexes and metadata through this tier. The
//! [`FaultFs`] backend makes crash consistency a tested property: the
//! crash-recovery suite kills ingest at every reachable write and
//! asserts recovery.

pub mod backend;
pub mod codec;
pub mod page;
pub mod pool;
pub mod wal;

mod store;

pub use backend::{BitFlip, DiskFs, FaultFs, FaultPlan, MemFs, StorageBackend};
pub use codec::{
    bits_for, checksum64, pack_u32s, packed_words, unpack_u32_at, unpack_u32s, ByteReader,
    ByteWriter, ENDIAN_SENTINEL,
};
pub use page::{PageKind, PAGE_HEADER, PAGE_PAYLOAD, PAGE_SIZE};
pub use pool::{BufferPool, PageKey, PoolStats};
pub use store::{RecoveryReport, Store, StoreOptions};
pub use wal::{Wal, WalReplay, WAL_FILE};
