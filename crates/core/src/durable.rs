//! Durable instances: save an ingested [`MirrorDbms`] (or a whole
//! [`MirrorCluster`], its pending writes folded first) into the kernel's
//! page-granular storage tier and cold-open it later without re-ingesting.
//!
//! ## What is persisted
//!
//! Ingest's expensive stages — segmentation, feature extraction,
//! clustering — happen *before* the library rows exist, so the durable
//! form is pixel-free:
//!
//! | key                | value                                           |
//! |--------------------|-------------------------------------------------|
//! | `meta/format`      | store format version + endianness sentinel      |
//! | `meta/config`      | the [`MirrorConfig`]                            |
//! | `meta/library`     | document count, row-batch count                 |
//! | `rows/{i:06}`      | library rows, dictionary-encoded columnar batch |
//! | `aux/vocab`        | the visual vocabulary (per-space models)        |
//! | `aux/thesaurus`    | the association thesaurus entries               |
//! | `meta/complete`    | save-completion marker — written **last**       |
//!
//! Each group is one WAL transaction; the completion marker commits
//! last. A crash mid-save therefore leaves a store that *recovers* at
//! the kernel level (the committed prefix replays, torn records are
//! discarded) but reports [`RetrievalError::IncompleteState`] at this
//! level — re-running the save writes the same keys and converges.
//! After the marker a [`monet::Store::checkpoint`] folds the WAL into
//! checksummed 4 KiB pages.
//!
//! ## Bit-identity
//!
//! The rows are the only persisted form of an instance: no CONTREP index
//! is stored. `open` derives both indexes from the rows through the same
//! deterministic path ingest used, so every reopened instance ranks
//! bit-identically to the instance that saved.
//! The crash-recovery suite asserts exactly that, for arbitrary injected
//! crash points.
//!
//! ## Live layout
//!
//! A *live* store (see [`crate::live`]) holds generations, a
//! per-operation delta WAL, and its vocabulary and thesaurus once — a
//! merge changes neither:
//!
//! | key                     | value                                      |
//! |-------------------------|--------------------------------------------|
//! | `live/aux/*`            | vocabulary and thesaurus, written once     |
//! | `live/gen-{n:06}/<key>` | a generation's `meta/*` and `rows/*`       |
//! | `live/op-{seq:016}`     | one logged write (insert batch / delete)   |
//! | `live/current`          | pointer: generation number + base sequence |
//!
//! Initialisation writes the aux values, generation 0, then the pointer,
//! so a crash before the pointer reports
//! [`RetrievalError::IncompleteState`]. Each op record is its own WAL
//! transaction, committed *before* the write becomes visible in memory. A
//! rebuild persists the new generation under its prefix first and flips
//! `live/current` last, so the pointer only ever names a complete
//! generation; ops with `seq > base_seq` replay on top of it at open.
//! A seal writes nothing: the ops since the base are the durable form of
//! the sealed segments, and open seals their replay into one.
//!
//! Once the pointer has flipped, a *sweep* deletes everything it no
//! longer names — every `live/gen-M/*` with `M ≠ gen`, every
//! `live/op-S` with `S ≤ base_seq`, never `live/aux/*` — in one
//! transaction, then checkpoints, so the store holds one generation plus
//! the ops since its base and does not grow with the number of rebuilds.
//! The sweep only ever removes garbage: a crash before or during it
//! leaves leftovers (a superseded generation, a partial one from a
//! crashed merge, ops already folded in) that open ignores and sweeps.

use crate::live::WriteOp;
use crate::retriever::{RetrievalError, RetrievalResult};
use crate::shard::{ClusterConfig, MirrorCluster, Partitioning, Routing};
use crate::{Clustering, LibraryRow, MirrorConfig, MirrorDbms};
use cluster::vocab::SpaceModel;
use cluster::{KMeansResult, MixtureModel, VisualVocabulary};
use monet::storage::{ByteReader, ByteWriter, ENDIAN_SENTINEL};
use monet::{DiskFs, MonetError, Oid, StorageBackend, Store, StoreOptions};
use std::path::Path;
use std::sync::Arc;
use thesaurus::{AssocMeasure, AssociationThesaurus};

/// Version of the durable store layout this build reads and writes.
/// v7 keeps a live store's aux values once, out of its generations. v6
/// dropped the raw-row flag byte from the stored configuration. v5 dropped
/// the index blobs; open derives the indexes from the rows. v4 dropped
/// the parallelism field from the stored configuration; v3 carried the
/// cluster layout of a routing table plus write counters. Older stores
/// are rejected on open.
pub const STORE_FORMAT: u32 = 7;

/// Library rows per columnar batch.
const BATCH: usize = 512;

mod key {
    pub const FORMAT: &str = "meta/format";
    pub const CONFIG: &str = "meta/config";
    pub const LIBRARY: &str = "meta/library";
    pub const COMPLETE: &str = "meta/complete";
    pub const VOCAB: &str = "aux/vocab";
    pub const THESAURUS: &str = "aux/thesaurus";

    pub fn rows(batch: usize) -> String {
        format!("rows/{batch:06}")
    }
}

fn corrupt(what: &str, detail: impl Into<String>) -> MonetError {
    MonetError::Corrupt { what: what.to_string(), detail: detail.into() }
}

/// Read a required key, mapping absence to [`MonetError::Corrupt`] (the
/// completion marker guaranteed it was written).
fn must_get(store: &Store, key: &str) -> Result<Vec<u8>, MonetError> {
    store.get(key)?.ok_or_else(|| corrupt(key, "key missing from a complete store"))
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

fn encode_format() -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(STORE_FORMAT);
    w.u16(ENDIAN_SENTINEL);
    w.into_bytes()
}

fn check_format(bytes: &[u8]) -> Result<(), MonetError> {
    let mut r = ByteReader::new(bytes, key::FORMAT);
    let found = r.u32()?;
    if found != STORE_FORMAT {
        return Err(MonetError::FormatVersion { found, expected: STORE_FORMAT });
    }
    let sentinel = r.u16()?;
    if sentinel != ENDIAN_SENTINEL {
        return Err(corrupt(
            key::FORMAT,
            format!("endianness sentinel {sentinel:#06x} — written with a different byte order"),
        ));
    }
    Ok(())
}

fn encode_config(c: &MirrorConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(c.grid as u64);
    match c.clustering {
        Clustering::AutoClass => w.u8(0),
        Clustering::KMeans(k) => {
            w.u8(1);
            w.u64(k as u64);
        }
    }
    w.u8(match c.assoc {
        AssocMeasure::Emim => 0,
        AssocMeasure::ChiSquare => 1,
        AssocMeasure::JointCount => 2,
    });
    w.u64(c.expand_per_term as u64);
    w.u64(c.expand_max_terms as u64);
    w.u64(c.seed);
    w.into_bytes()
}

fn decode_config(bytes: &[u8]) -> Result<MirrorConfig, MonetError> {
    let mut r = ByteReader::new(bytes, key::CONFIG);
    let grid = r.u64()? as usize;
    let clustering = match r.u8()? {
        0 => Clustering::AutoClass,
        1 => Clustering::KMeans(r.u64()? as usize),
        t => return Err(corrupt(key::CONFIG, format!("bad clustering tag {t}"))),
    };
    let assoc = match r.u8()? {
        0 => AssocMeasure::Emim,
        1 => AssocMeasure::ChiSquare,
        2 => AssocMeasure::JointCount,
        t => return Err(corrupt(key::CONFIG, format!("bad assoc tag {t}"))),
    };
    Ok(MirrorConfig {
        grid,
        clustering,
        assoc,
        expand_per_term: r.u64()? as usize,
        expand_max_terms: r.u64()? as usize,
        seed: r.u64()?,
    })
}

/// One columnar batch of library rows: each field is a kernel column, so
/// URLs, annotations and visual-term strings land dictionary-encoded on
/// disk exactly like every other string column.
fn encode_rows(rows: &[LibraryRow]) -> Vec<u8> {
    use monet::column::StrCol;
    use monet::Column;
    let mut w = ByteWriter::new();
    w.u64(rows.len() as u64);
    let cols = [
        Column::Str(StrCol::from_strs(rows.iter().map(|r| r.url.as_str()))),
        Column::Str(StrCol::from_strs(rows.iter().map(|r| r.annotation.as_deref().unwrap_or("")))),
        Column::Int(rows.iter().map(|r| r.annotation.is_some() as i64).collect()),
        Column::Str(StrCol::from_strs(rows.iter().map(|r| r.vterms.as_str()))),
        Column::Int(rows.iter().map(|r| r.theme as i64).collect()),
    ];
    for col in &cols {
        monet::storage::codec::write_column(&mut w, col);
    }
    w.into_bytes()
}

fn decode_rows(bytes: &[u8], what: &str) -> Result<Vec<LibraryRow>, MonetError> {
    let mut r = ByteReader::new(bytes, "library rows");
    let n = r.len64(bytes.len())?;
    let mut cols = Vec::with_capacity(5);
    for _ in 0..5 {
        cols.push(monet::storage::codec::read_column(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(corrupt(what, "trailing bytes after columns"));
    }
    let str_at = |col: &monet::Column, i: usize| -> Result<String, MonetError> {
        match col.get(i)? {
            monet::Val::Str(s) => Ok(s),
            other => Err(corrupt(what, format!("row {i}: expected string, got {other:?}"))),
        }
    };
    let int_at = |col: &monet::Column, i: usize| -> Result<i64, MonetError> {
        match col.get(i)? {
            monet::Val::Int(v) => Ok(v),
            other => Err(corrupt(what, format!("row {i}: expected int, got {other:?}"))),
        }
    };
    if cols.iter().any(|c| c.len() != n) {
        return Err(corrupt(what, "column lengths disagree with row count"));
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let annotated = int_at(&cols[2], i)? != 0;
        let ann_text = str_at(&cols[1], i)?;
        rows.push(LibraryRow {
            url: str_at(&cols[0], i)?,
            annotation: annotated.then_some(ann_text),
            vterms: str_at(&cols[3], i)?,
            theme: int_at(&cols[4], i)? as usize,
        });
    }
    Ok(rows)
}

fn write_f64s(w: &mut ByteWriter, v: &[f64]) {
    w.u64(v.len() as u64);
    for &x in v {
        w.f64(x);
    }
}

fn read_f64s(r: &mut ByteReader<'_>) -> Result<Vec<f64>, MonetError> {
    let n = r.len64(r.remaining() / 8)?;
    (0..n).map(|_| r.f64()).collect()
}

fn write_mat(w: &mut ByteWriter, m: &[Vec<f64>]) {
    w.u64(m.len() as u64);
    for row in m {
        write_f64s(w, row);
    }
}

fn read_mat(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f64>>, MonetError> {
    let n = r.len64(r.remaining() / 8)?;
    (0..n).map(|_| read_f64s(r)).collect()
}

/// An optional vocabulary: presence byte, then per-space models in
/// sorted space order (deterministic bytes — a redone save rewrites
/// byte-identical values).
fn encode_vocab(vocab: Option<&VisualVocabulary>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let Some(vocab) = vocab else {
        w.u8(0);
        return w.into_bytes();
    };
    w.u8(1);
    let spaces = vocab.spaces();
    w.u64(spaces.len() as u64);
    for space in &spaces {
        w.str(space);
        match vocab.model(space).expect("space listed by vocab") {
            SpaceModel::Mixture(m) => {
                w.u8(0);
                write_f64s(&mut w, &m.weights);
                write_mat(&mut w, &m.means);
                write_mat(&mut w, &m.variances);
                w.f64(m.log_likelihood);
                w.f64(m.bic);
            }
            SpaceModel::KMeans(k) => {
                w.u8(1);
                write_mat(&mut w, &k.centroids);
                w.u64(k.assignment.len() as u64);
                for &a in &k.assignment {
                    w.u64(a as u64);
                }
                w.f64(k.inertia);
                w.u64(k.iterations as u64);
            }
        }
    }
    w.into_bytes()
}

fn decode_vocab(bytes: &[u8]) -> Result<Option<VisualVocabulary>, MonetError> {
    let mut r = ByteReader::new(bytes, key::VOCAB);
    if r.u8()? == 0 {
        return Ok(None);
    }
    let n_spaces = r.len64(r.remaining())?;
    let mut vocab = VisualVocabulary::new();
    for _ in 0..n_spaces {
        let space = r.str()?;
        let model = match r.u8()? {
            0 => SpaceModel::Mixture(MixtureModel {
                weights: read_f64s(&mut r)?,
                means: read_mat(&mut r)?,
                variances: read_mat(&mut r)?,
                log_likelihood: r.f64()?,
                bic: r.f64()?,
            }),
            1 => {
                let centroids = read_mat(&mut r)?;
                let n = r.len64(r.remaining() / 8)?;
                let assignment =
                    (0..n).map(|_| r.u64().map(|v| v as usize)).collect::<Result<_, _>>()?;
                SpaceModel::KMeans(KMeansResult {
                    centroids,
                    assignment,
                    inertia: r.f64()?,
                    iterations: r.u64()? as usize,
                })
            }
            t => return Err(corrupt(key::VOCAB, format!("bad model tag {t}"))),
        };
        vocab.insert(space, model);
    }
    Ok(Some(vocab))
}

fn encode_thesaurus(th: Option<&AssociationThesaurus>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let Some(th) = th else {
        w.u8(0);
        return w.into_bytes();
    };
    w.u8(1);
    w.u8(match th.measure() {
        AssocMeasure::Emim => 0,
        AssocMeasure::ChiSquare => 1,
        AssocMeasure::JointCount => 2,
    });
    let entries = th.entries();
    w.u64(entries.len() as u64);
    for (t, v, s) in &entries {
        w.str(t);
        w.str(v);
        w.f64(*s);
    }
    w.into_bytes()
}

fn decode_thesaurus(bytes: &[u8]) -> Result<Option<AssociationThesaurus>, MonetError> {
    let mut r = ByteReader::new(bytes, key::THESAURUS);
    if r.u8()? == 0 {
        return Ok(None);
    }
    let measure = match r.u8()? {
        0 => AssocMeasure::Emim,
        1 => AssocMeasure::ChiSquare,
        2 => AssocMeasure::JointCount,
        t => return Err(corrupt(key::THESAURUS, format!("bad measure tag {t}"))),
    };
    let n = r.len64(r.remaining())?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((r.str()?, r.str()?, r.f64()?));
    }
    Ok(Some(AssociationThesaurus::from_entries(measure, entries)))
}

// ---------------------------------------------------------------------------
// MirrorDbms save / open
// ---------------------------------------------------------------------------

impl MirrorDbms {
    /// Persist this instance into a durable store at `dir` (created if
    /// needed) and checkpoint it into page files. See the module docs
    /// for the layout and crash-safety discipline.
    pub fn save(&self, dir: impl AsRef<Path>) -> RetrievalResult<()> {
        let backend: Arc<dyn StorageBackend> = Arc::new(DiskFs::new(dir.as_ref())?);
        let store = Store::open(backend, StoreOptions::default())?;
        self.save_to(&store)?;
        store.checkpoint()?;
        Ok(())
    }

    /// Persist this instance into an already-open store. Every logical
    /// group is one WAL transaction; the completion marker commits last,
    /// so a crash at any point leaves either a complete save or a store
    /// that reports [`RetrievalError::IncompleteState`] on open.
    /// Re-running after a crash writes the same keys and converges.
    /// (The caller decides when to [`monet::Store::checkpoint`].)
    pub fn save_to(&self, store: &Store) -> RetrievalResult<()> {
        save_instance(self, store, "", true)
    }

    /// Cold-open a persisted instance from `dir` without re-ingest:
    /// kernel-level recovery (newest valid checkpoint + WAL replay) runs
    /// first, then the instance and its indexes are rebuilt from the
    /// stored rows. Ranks bit-identically to the saved instance.
    pub fn open(dir: impl AsRef<Path>) -> RetrievalResult<Self> {
        let backend: Arc<dyn StorageBackend> = Arc::new(DiskFs::new(dir.as_ref())?);
        Self::open_from(&Store::open(backend, StoreOptions::default())?)
    }

    /// Rebuild an instance from an already-open (recovered) store.
    pub fn open_from(store: &Store) -> RetrievalResult<Self> {
        open_instance(store, "", "")
    }
}

/// Persist an instance's meta and rows under `prefix` (`""`, or a live
/// generation's), with `aux` its vocabulary and thesaurus too. Every
/// logical group is one WAL transaction, the completion marker last.
pub(crate) fn save_instance(
    db: &MirrorDbms,
    store: &Store,
    prefix: &str,
    aux: bool,
) -> RetrievalResult<()> {
    let k = |name: &str| format!("{prefix}{name}");
    store.put(k(key::FORMAT), encode_format());
    store.put(k(key::CONFIG), encode_config(db.config()));
    store.commit()?;

    let rows = db.library_rows();
    let n_batches = rows.len().div_ceil(BATCH);
    for (i, chunk) in rows.chunks(BATCH).enumerate() {
        store.put(k(&key::rows(i)), encode_rows(chunk));
        store.commit()?;
    }

    if aux {
        save_aux(db, store, prefix)?;
    }

    let mut lib = ByteWriter::new();
    lib.u64(rows.len() as u64);
    lib.u64(n_batches as u64);
    store.put(k(key::LIBRARY), lib.into_bytes());
    let mut done = ByteWriter::new();
    done.u8(1);
    store.put(k(key::COMPLETE), done.into_bytes());
    store.commit()?;
    Ok(())
}

/// Persist the vocabulary and thesaurus under `prefix` in one
/// transaction.
pub(crate) fn save_aux(db: &MirrorDbms, store: &Store, prefix: &str) -> RetrievalResult<()> {
    store.put(format!("{prefix}{}", key::VOCAB), encode_vocab(db.vocabulary()));
    store.put(format!("{prefix}{}", key::THESAURUS), encode_thesaurus(db.thesaurus()));
    store.commit()?;
    Ok(())
}

/// Rebuild an instance from the layout under `prefix` in an already-open
/// (recovered) store, with the vocabulary and thesaurus under
/// `aux_prefix`.
pub(crate) fn open_instance(
    store: &Store,
    prefix: &str,
    aux_prefix: &str,
) -> RetrievalResult<MirrorDbms> {
    let k = |name: &str| format!("{prefix}{name}");
    match store.get(&k(key::COMPLETE))? {
        Some(_) => {}
        None => {
            return Err(RetrievalError::IncompleteState {
                detail: format!(
                    "no completion marker under {prefix:?}; {} keys recovered \
                     ({} WAL transactions) — the save never finished, re-run it",
                    store.keys().len(),
                    store.recovery().wal_transactions,
                ),
            })
        }
    }
    check_format(&must_get(store, &k(key::FORMAT))?)?;
    let config = decode_config(&must_get(store, &k(key::CONFIG))?)?;
    let (n_docs, n_batches) = {
        let bytes = must_get(store, &k(key::LIBRARY))?;
        let mut r = ByteReader::new(&bytes, key::LIBRARY);
        (r.u64()? as usize, r.u64()? as usize)
    };
    let mut rows = Vec::with_capacity(n_docs);
    for i in 0..n_batches {
        let kb = k(&key::rows(i));
        rows.extend(decode_rows(&must_get(store, &kb)?, &kb)?);
    }
    if rows.len() != n_docs {
        return Err(RetrievalError::Storage(corrupt(
            key::LIBRARY,
            format!("{} rows decoded, library metadata says {n_docs}", rows.len()),
        )));
    }

    let mut db = MirrorDbms::new(config);
    db.load_library_rows(rows)?;
    let aux = |name: &str| must_get(store, &format!("{aux_prefix}{name}"));
    let vocab = decode_vocab(&aux(key::VOCAB)?)?;
    let thesaurus = decode_thesaurus(&aux(key::THESAURUS)?)?;
    if let (Some(v), Some(t)) = (vocab, thesaurus) {
        db.set_ingest_outputs(v, t);
    }
    Ok(db)
}

// ---------------------------------------------------------------------------
// Live persistence: generation pointer + delta WAL
// ---------------------------------------------------------------------------

/// The prefix a live store's aux values are saved under, once.
pub(crate) const LIVE_AUX: &str = "live/";

mod live_key {
    pub const CURRENT: &str = "live/current";
    pub const OP_PREFIX: &str = "live/op-";
    pub const GEN_PREFIX: &str = "live/gen-";

    pub fn op(seq: u64) -> String {
        format!("{OP_PREFIX}{seq:016}")
    }
}

/// Key prefix a live generation's meta and rows are saved under.
pub(crate) fn live_gen_prefix(gen_no: u64) -> String {
    format!("{}{gen_no:06}/", live_key::GEN_PREFIX)
}

/// The sequence number of a `live/op-…` key, `None` for any other key.
fn op_seq(key: &str) -> RetrievalResult<Option<u64>> {
    let Some(digits) = key.strip_prefix(live_key::OP_PREFIX) else { return Ok(None) };
    let seq = digits.parse().map_err(|_| corrupt(key, "unparseable op sequence number"))?;
    Ok(Some(seq))
}

/// Read the `live/current` pointer: `(generation number, base sequence)`,
/// or `None` if the store holds no live instance.
pub(crate) fn live_pointer(store: &Store) -> RetrievalResult<Option<(u64, u64)>> {
    match store.get(live_key::CURRENT)? {
        None => Ok(None),
        Some(bytes) => {
            let mut r = ByteReader::new(&bytes, live_key::CURRENT);
            Ok(Some((r.u64()?, r.u64()?)))
        }
    }
}

/// Flip the `live/current` pointer in one WAL transaction — the atomic
/// commit point of a merge.
pub(crate) fn live_set_pointer(store: &Store, gen_no: u64, base_seq: u64) -> RetrievalResult<()> {
    let mut w = ByteWriter::new();
    w.u64(gen_no);
    w.u64(base_seq);
    store.put(live_key::CURRENT, w.into_bytes());
    store.commit()?;
    Ok(())
}

/// Append one delta op as its own committed WAL transaction. Called
/// *before* the op becomes visible in memory: a write is only ever
/// acknowledged once it is durable.
pub(crate) fn live_append_op(store: &Store, seq: u64, op: &WriteOp) -> RetrievalResult<()> {
    let mut w = ByteWriter::new();
    match op {
        WriteOp::Insert(rows) => {
            w.u8(0);
            w.bytes(&encode_rows(rows));
        }
        WriteOp::Delete(url) => {
            w.u8(1);
            w.str(url);
        }
    }
    store.put(live_key::op(seq), w.into_bytes());
    store.commit()?;
    Ok(())
}

/// Read every committed delta op with `seq > base_seq`, ascending.
pub(crate) fn live_ops_after(store: &Store, base_seq: u64) -> RetrievalResult<Vec<(u64, WriteOp)>> {
    let mut ops = Vec::new();
    for key in store.keys() {
        let Some(seq) = op_seq(&key)?.filter(|&seq| seq > base_seq) else { continue };
        let bytes = must_get(store, &key)?;
        let mut r = ByteReader::new(&bytes, &key);
        let op = match r.u8()? {
            0 => WriteOp::Insert(decode_rows(r.take(r.remaining())?, &key)?),
            1 => WriteOp::Delete(r.str()?),
            t => return Err(corrupt(&key, format!("bad op tag {t}")).into()),
        };
        ops.push((seq, op));
    }
    ops.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(ops)
}

/// Delete what the pointer `(gen_no, base_seq)` no longer names — every
/// `live/gen-M/*` with `M ≠ gen_no` and every `live/op-S` with
/// `S ≤ base_seq`, never the aux values — in one transaction, then
/// checkpoint so the bytes
/// leave the WAL, the overlay and the page files. A store with nothing to
/// sweep is left untouched.
pub(crate) fn live_sweep(store: &Store, gen_no: u64, base_seq: u64) -> RetrievalResult<()> {
    let keep = live_gen_prefix(gen_no);
    let mut stale = Vec::new();
    for key in store.keys() {
        let gone = match op_seq(&key)? {
            Some(seq) => seq <= base_seq,
            None => key.starts_with(live_key::GEN_PREFIX) && !key.starts_with(&keep),
        };
        if gone {
            stale.push(key);
        }
    }
    if stale.is_empty() {
        return Ok(());
    }
    for key in stale {
        store.delete(key);
    }
    store.commit()?;
    store.checkpoint()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// MirrorCluster save / open
// ---------------------------------------------------------------------------

mod cluster_key {
    pub const FORMAT: &str = "meta/format";
    pub const CONFIG: &str = "meta/cluster";
    pub const LAYOUT: &str = "meta/layout";
    pub const COMPLETE: &str = "meta/complete";
}

fn encode_cluster_config(c: &ClusterConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(c.shards as u64);
    w.u64(c.replicas as u64);
    w.u8(match c.partitioning {
        Partitioning::Hash => 0,
    });
    w.bytes(&encode_config(&c.node));
    w.into_bytes()
}

fn decode_cluster_config(bytes: &[u8]) -> Result<ClusterConfig, MonetError> {
    let mut r = ByteReader::new(bytes, cluster_key::CONFIG);
    let shards = r.u64()? as usize;
    let replicas = r.u64()? as usize;
    let partitioning = match r.u8()? {
        0 => Partitioning::Hash,
        t => return Err(corrupt(cluster_key::CONFIG, format!("bad partitioning tag {t}"))),
    };
    let node = decode_config(r.take(r.remaining())?)?;
    Ok(ClusterConfig { shards, replicas, partitioning, node })
}

/// Layout: the write counters, then per shard the ascending global ids of
/// its documents in local oid order.
fn encode_layout(routing: &Routing) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(routing.next_global);
    w.u64(routing.writes);
    w.u64(routing.table.len() as u64);
    for ids in routing.table.iter() {
        w.u64(ids.len() as u64);
        for &id in ids {
            w.u32(id);
        }
    }
    w.into_bytes()
}

fn decode_layout(bytes: &[u8]) -> Result<Routing, MonetError> {
    let mut r = ByteReader::new(bytes, cluster_key::LAYOUT);
    let next_global = r.u32()?;
    let writes = r.u64()?;
    let n_shards = r.len64(r.remaining())?;
    let mut table = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let n = r.len64(r.remaining() / 4)?;
        let ids: Vec<Oid> = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
        if !ids.windows(2).all(|w| w[0] < w[1]) || ids.last().is_some_and(|&id| id >= next_global) {
            return Err(corrupt(cluster_key::LAYOUT, "shard doc ids not ascending below next id"));
        }
        table.push(ids);
    }
    Ok(Routing { table: Arc::new(table), next_global, writes })
}

impl MirrorCluster {
    /// Persist the whole cluster under `dir`: pending writes are folded
    /// first ([`merge_all`](MirrorCluster::merge_all)), then each shard's
    /// generation is saved as an independent durable store in
    /// `dir/shard-{i:03}` — a complete store of its own (rows, vocabulary,
    /// thesaurus) that any node can open without the others —
    /// and the configuration and routing table in `dir/cluster`. Writes
    /// wait until the save is done.
    pub fn save(&self, dir: impl AsRef<Path>) -> RetrievalResult<()> {
        let dir = dir.as_ref();
        let routing = self.merge_locked()?;
        for (i, shard) in self.shards().iter().enumerate() {
            shard.pin().generation_db().save(dir.join(format!("shard-{i:03}")))?;
        }
        let backend: Arc<dyn StorageBackend> = Arc::new(DiskFs::new(dir.join("cluster"))?);
        let store = Store::open(backend, StoreOptions::default())?;
        store.put(cluster_key::FORMAT, encode_format());
        store.put(cluster_key::CONFIG, encode_cluster_config(self.config()));
        store.put(cluster_key::LAYOUT, encode_layout(&routing));
        store.commit()?;
        let mut done = ByteWriter::new();
        done.u8(1);
        store.put(cluster_key::COMPLETE, done.into_bytes());
        store.commit()?;
        store.checkpoint()?;
        Ok(())
    }

    /// Cold-open a persisted cluster from `dir`: shards reopen
    /// independently (each runs its own kernel-level recovery), each as
    /// generation 0 of its live corpus. Rankings are bit-identical to the
    /// cluster that saved, and the reopened cluster takes writes where it
    /// left off.
    pub fn open(dir: impl AsRef<Path>) -> RetrievalResult<Self> {
        let dir = dir.as_ref();
        let backend: Arc<dyn StorageBackend> = Arc::new(DiskFs::new(dir.join("cluster"))?);
        let store = Store::open(backend, StoreOptions::default())?;
        if store.get(cluster_key::COMPLETE)?.is_none() {
            return Err(RetrievalError::IncompleteState {
                detail: "cluster store has no completion marker — the save never finished".into(),
            });
        }
        check_format(&must_get(&store, cluster_key::FORMAT)?)?;
        let config = decode_cluster_config(&must_get(&store, cluster_key::CONFIG)?)?;
        let routing = decode_layout(&must_get(&store, cluster_key::LAYOUT)?)?;
        if routing.table.len() != config.shards {
            return Err(RetrievalError::Storage(corrupt(
                cluster_key::LAYOUT,
                format!("{} shard lists for {} shards", routing.table.len(), config.shards),
            )));
        }
        let mut dbs = Vec::with_capacity(config.shards);
        for (i, ids) in routing.table.iter().enumerate() {
            let db = MirrorDbms::open(dir.join(format!("shard-{i:03}"))).map_err(|e| match e {
                RetrievalError::IncompleteState { detail } => {
                    RetrievalError::IncompleteState { detail: format!("shard {i}: {detail}") }
                }
                other => other,
            })?;
            if db.n_docs() != ids.len() {
                return Err(RetrievalError::Storage(corrupt(
                    cluster_key::LAYOUT,
                    format!("shard {i} holds {} docs, its routing row {}", db.n_docs(), ids.len()),
                )));
            }
            dbs.push(db);
        }
        Ok(MirrorCluster::from_shards(config, dbs, routing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_codec_roundtrip() {
        for cfg in [
            MirrorConfig::default(),
            MirrorConfig {
                grid: 5,
                clustering: Clustering::KMeans(7),
                assoc: AssocMeasure::ChiSquare,
                expand_per_term: 2,
                expand_max_terms: 3,
                seed: 99,
            },
        ] {
            let back = decode_config(&encode_config(&cfg)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        }
    }

    #[test]
    fn rows_codec_roundtrip() {
        let rows = vec![
            LibraryRow {
                url: "http://a/1".into(),
                annotation: Some("sunset over the sea".into()),
                vterms: "rgb_0 gabor_2".into(),
                theme: 3,
            },
            LibraryRow {
                url: "http://a/2".into(),
                annotation: None,
                vterms: "rgb_1".into(),
                theme: 0,
            },
            LibraryRow {
                url: "http://a/3".into(),
                annotation: Some(String::new()), // annotated but empty
                vterms: String::new(),
                theme: 7,
            },
        ];
        let back = decode_rows(&encode_rows(&rows), "test").unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_vocab_and_thesaurus_roundtrip_as_none() {
        assert!(decode_vocab(&encode_vocab(None)).unwrap().is_none());
        assert!(decode_thesaurus(&encode_thesaurus(None)).unwrap().is_none());
    }

    #[test]
    fn format_check_rejects_other_versions() {
        // 4 is the last layout that stored index blobs beside the rows,
        // 5 the last whose configuration carried the raw-row flag byte, 6
        // the last to store a live store's aux values in every generation
        for found in [4, 5, 6, STORE_FORMAT + 1] {
            let mut w = ByteWriter::new();
            w.u32(found);
            w.u16(ENDIAN_SENTINEL);
            assert_eq!(
                check_format(&w.into_bytes()).unwrap_err(),
                MonetError::FormatVersion { found, expected: STORE_FORMAT }
            );
        }
    }

    fn rows(n: usize) -> Vec<LibraryRow> {
        let row = |i| LibraryRow {
            url: format!("http://a/{i}"),
            annotation: Some(format!("sunset number {i}")),
            vterms: "rgb_0 gabor_2".into(),
            theme: 0,
        };
        (0..n).map(row).collect()
    }

    fn live_store(fs: &monet::MemFs) -> Arc<Store> {
        Arc::new(Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap())
    }

    #[test]
    fn v6_live_store_is_refused_typed() {
        let fs = monet::MemFs::new();
        let db = MirrorDbms::from_rows(MirrorConfig::default(), rows(3), None, None).unwrap();
        let store = live_store(&fs);
        crate::LiveMirror::create_durable(db, Arc::clone(&store)).unwrap();
        let mut v6 = ByteWriter::new();
        v6.u32(6);
        v6.u16(ENDIAN_SENTINEL);
        store.put(format!("{}{}", live_gen_prefix(0), key::FORMAT), v6.into_bytes());
        store.commit().unwrap();
        match crate::LiveMirror::open_durable(live_store(&fs)) {
            Err(RetrievalError::Storage(MonetError::FormatVersion { found: 6, expected })) => {
                assert_eq!(expected, STORE_FORMAT)
            }
            Ok(_) => panic!("a v6 live store opened silently"),
            Err(other) => panic!("expected a format-version error, got {other}"),
        }
    }

    #[test]
    fn live_store_keeps_one_aux_copy_and_one_generation_across_merges() {
        let fs = monet::MemFs::new();
        let db = MirrorDbms::from_rows(MirrorConfig::default(), rows(4), None, None).unwrap();
        let live = crate::LiveMirror::create_durable(db, live_store(&fs)).unwrap();
        for i in 0..3 {
            live.insert_rows(vec![rows(5 + i).pop().unwrap()]).unwrap();
            live.delete(&format!("http://a/{i}")).unwrap().unwrap();
            live.merge().unwrap();
        }
        let mut keys = live_store(&fs).keys();
        keys.sort();
        let gen = live_gen_prefix(3);
        let want = [
            "live/aux/thesaurus".to_string(),
            "live/aux/vocab".to_string(),
            "live/current".to_string(),
            format!("{gen}meta/complete"),
            format!("{gen}meta/config"),
            format!("{gen}meta/format"),
            format!("{gen}meta/library"),
            format!("{gen}rows/000000"),
        ];
        assert_eq!(keys, want);
        let reopened = crate::LiveMirror::open_durable(live_store(&fs)).unwrap();
        assert_eq!(reopened.pin().surviving_rows(), live.pin().surviving_rows());
    }

    /// A shard whose delta a policy sealed still folds in `merge_all`, so
    /// a saved and reopened cluster keeps the sealed rows and ranks like a
    /// batch re-ingest of the survivors.
    #[test]
    fn cluster_save_keeps_a_sealed_shards_rows() {
        use crate::{MergePolicy, MutableCorpus, Retriever};
        let config = ClusterConfig::default();
        let cluster = MirrorCluster::from_rows(config.clone(), rows(20), None, None).unwrap();
        let mut survivors = rows(26);
        cluster.insert_rows(survivors.split_off(20)).unwrap();
        survivors.extend(rows(26).split_off(20));
        cluster.delete("http://a/3").unwrap().expect("a live document");
        survivors.remove(3);
        let policy = MergePolicy { max_delta_rows: 1, ..MergePolicy::default() };
        let shard = cluster.shards().iter().find(|s| s.delta_pressure().0 > 0).unwrap();
        assert!(shard.maybe_merge(&policy).unwrap());
        assert_eq!(shard.generation_stats().current, 0, "the shard sealed");
        assert_eq!(shard.delta_pressure().0, 0);
        cluster.merge_all().unwrap();
        let dir = std::env::temp_dir().join(format!("mirror-sealed-shard-{}", std::process::id()));
        cluster.save(&dir).unwrap();
        let reopened = MirrorCluster::open(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let reopened = reopened.unwrap();
        let reference = MirrorDbms::from_rows(config.node, survivors.clone(), None, None).unwrap();
        let mut urls: Vec<String> = reopened
            .shards()
            .iter()
            .flat_map(|s| s.pin().surviving_rows())
            .map(|r| r.url)
            .collect();
        urls.sort();
        let mut want: Vec<String> = survivors.into_iter().map(|r| r.url).collect();
        want.sort();
        assert_eq!(urls, want);
        let hits = |r: &dyn Retriever| -> Vec<(String, f64)> {
            let out = r.query_text("sunset number 21", 10).unwrap();
            out.into_iter().map(|h| (h.url, h.score)).collect()
        };
        assert_eq!(hits(&reopened), hits(&reference));
    }

    #[test]
    fn truncated_rows_batch_is_corrupt() {
        let rows =
            vec![LibraryRow { url: "u".into(), annotation: None, vterms: "v".into(), theme: 1 }];
        let bytes = encode_rows(&rows);
        for cut in [0, 4, bytes.len() - 1] {
            assert!(decode_rows(&bytes[..cut], "t").is_err(), "cut {cut}");
        }
    }
}
