//! Persistence: save a trained serving tier to one snapshot file and
//! map it back in — a warm restart that never retrains.
//!
//! The paper's cost model (§3.1) splits a learned index into the *key
//! array* (big, dumb bytes) and the *model parameters* (a few
//! coefficients per stage). This module persists them in exactly that
//! shape:
//!
//! ```text
//!  ┌────────────────────────────┐ 0
//!  │ header (4096 B, page-      │   magic · version · kind ·
//!  │ aligned)                   │   n_keys · manifest_len ·
//!  │                            │   keys checksum · manifest checksum ·
//!  │                            │   snapshot LSN · header checksum
//!  ├────────────────────────────┤ 4096
//!  │ key payload                │   n_keys × u64, little-endian,
//!  │                            │   globally sorted
//!  ├────────────────────────────┤ 4096 + 8·n_keys
//!  │ manifest                   │   shard topology + per-shard model
//!  │                            │   coefficients + error envelopes
//!  └────────────────────────────┘   (+ delta buffers & sealed run
//!                                     stacks for the write path)
//! ```
//!
//! * **Save** serializes coefficients ([`li_core::RmiParams`]) — never
//!   pickled objects — and publishes atomically: write to a `.tmp`
//!   sibling, `fsync` the file, `rename`, then `fsync` the parent
//!   directory (without the directory sync, a crash *after* the rename
//!   could still resurrect the old snapshot — or leave none — because
//!   the rename itself only lived in the directory's page cache). A
//!   crash mid-save leaves the previous snapshot untouched; a reader
//!   never observes a torn file.
//! * **Load** maps the key payload (4096-byte alignment makes the u64
//!   region directly reinterpretable — [`KeyStore::from_mapped`] is
//!   zero-copy on 64-bit little-endian unix, decoded-copy elsewhere),
//!   verifies both checksums, rebuilds each shard's RMI from its saved
//!   coefficients with [`Rmi::from_params`], and — for the write path —
//!   replays the saved delta buffer — and, in tiered mode, the sealed
//!   run stack — into a fresh [`DeltaIndex`]. Run mini-models are
//!   refitted on load (O(run) linear fits, like the B-Tree leaves they
//!   are structure, not trained models); the base RMI is never refit:
//!   [`li_core::train_count`] is the witness.
//!
//! Format v3 covers every serving backend. Read-tier shards carry a
//! one-byte backend tag: RMI shards (linear tops; hybrid B-Tree
//! leaves included) store their coefficients, while the tree backends
//! (B-Tree, interpolation B-Tree, FAST) store at most a page size —
//! they are *structure*, rebuilt from the mapped key slices with zero
//! training — so the mixed topologies [`crate::Backend::Auto`]
//! produces round-trip backend-for-backend. Write-tier shards persist
//! their [`RmiConfig`] (which carries an Auto-selected hybrid
//! materialization) next to each delta base, plus per-shard sealed run
//! stacks for the tiered write path. Anything else — multivariate
//! tops, backends outside the four above — gets a
//! [`PersistError::Unsupported`], never a silently lossy file. v3
//! additionally stamps the **snapshot LSN** —
//! the last [`crate::wal::Wal`] record the snapshot covers — into the
//! header, so [`ShardedWritable::recover`] knows exactly which log
//! suffix is still live (see `crate::wal` and ARCHITECTURE.md
//! "Durability & recovery").

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use li_core::delta::DeltaIndex;
use li_core::rmi::{LeafModelParams, LeafParams, Rmi, RmiConfig, RmiParams, TopModel};
use li_core::SearchStrategy;
use li_index::{KeyStore, MappedFile, RangeIndex};

use li_btree::{BTreeIndex, FastTree, InterpBTree};

use crate::builder::RetunePolicy;
use crate::rebalance::RebalanceConfig;
use crate::select::Backend;
use crate::sharded::ShardedIndex;
use crate::sharded_writable::{ShardedWritable, ShardedWritableConfig};
use crate::writable::WritableShard;

/// Header size; also the key payload's file offset. One page, so the
/// mapped u64 region is alignment-compatible on every mainstream ABI.
pub const HEADER_LEN: usize = 4096;

/// File magic: ASCII tag + a non-ASCII byte + version-1 marker + CRLF
/// (catches text-mode mangling, like the PNG magic does).
const MAGIC: [u8; 8] = *b"LIDX\xF0\x01\r\n";

/// Format version written by this module. v2 added the
/// sharded-writable tiering fields (`max_runs` + per-shard sealed run
/// stacks); v3 added the snapshot LSN and a header checksum (bytes
/// 48..64) for WAL-coordinated recovery. Older versions are refused
/// with a clear [`PersistError`] rather than loaded with silently
/// dropped tiers or a silently ignored WAL tail.
const VERSION: u32 = 3;

/// `kind` field: a read-only [`ShardedIndex`] snapshot.
const KIND_SHARDED_INDEX: u32 = 1;
/// `kind` field: a [`ShardedWritable`] snapshot (bases + delta buffers).
const KIND_SHARDED_WRITABLE: u32 = 2;

/// Why a save or load failed.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is not a valid snapshot (bad magic, truncated,
    /// checksum mismatch, inconsistent topology…).
    Format(String),
    /// The structure (or file) uses a feature format v3 cannot carry,
    /// e.g. a non-RMI shard backend or a multivariate/MLP top model.
    Unsupported(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist: io error: {e}"),
            PersistError::Format(m) => write!(f, "persist: malformed snapshot: {m}"),
            PersistError::Unsupported(m) => write!(f, "persist: unsupported: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<crate::wal::WalError> for PersistError {
    fn from(e: crate::wal::WalError) -> Self {
        match e {
            crate::wal::WalError::Io(io) => PersistError::Io(io),
            other => PersistError::Format(other.to_string()),
        }
    }
}

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// FNV-1a (64-bit): tiny, dependency-free, and plenty to catch
/// truncation and bit-rot. This is an integrity check, not a MAC.
/// Shared with the WAL's record checksums.
use crate::wal::fnv1a;

// ---------------------------------------------------------------------
// Little-endian encode / decode
// ---------------------------------------------------------------------

/// Append-only little-endian encoder for the manifest.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian decoder: every read can fail with a
/// [`PersistError::Format`], so a truncated or corrupt manifest is an
/// error, never a panic.
struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.bytes.len() < n {
            return Err(format_err("manifest truncated"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| format_err("count overflows usize"))
    }
    /// A length-prefixed count that is about to size an allocation:
    /// reject anything the remaining manifest could not possibly hold
    /// (each counted item is at least `min_item_bytes`), so a corrupt
    /// length cannot trigger a huge `Vec::with_capacity`.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n.checked_mul(min_item_bytes.max(1))
            .is_none_or(|need| need > self.bytes.len())
        {
            return Err(format_err("count exceeds manifest size"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| format_err("non-UTF-8 string"))
    }
    fn finish(self) -> Result<(), PersistError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(format_err("trailing bytes after manifest"))
        }
    }
}

// ---------------------------------------------------------------------
// Component encodings
// ---------------------------------------------------------------------

fn encode_rmi_params(enc: &mut Enc, p: &RmiParams) {
    enc.f64(p.top.0);
    enc.f64(p.top.1);
    enc.usize(p.mids.len());
    for stage in &p.mids {
        enc.usize(stage.len());
        for &(slope, intercept) in stage {
            enc.f64(slope);
            enc.f64(intercept);
        }
    }
    enc.usize(p.leaves.len());
    for leaf in &p.leaves {
        match leaf.model {
            LeafModelParams::Linear { slope, intercept } => {
                enc.u8(0);
                enc.f64(slope);
                enc.f64(intercept);
            }
            LeafModelParams::BTree {
                offset,
                len,
                page_size,
            } => {
                enc.u8(1);
                enc.u64(offset);
                enc.u64(len);
                enc.u64(page_size);
            }
        }
        enc.i64(leaf.min_err);
        enc.i64(leaf.max_err);
        enc.f64(leaf.std_err);
        enc.u64(leaf.n_keys);
    }
    enc.u8(p.search.to_tag());
}

fn decode_rmi_params(dec: &mut Dec<'_>) -> Result<RmiParams, PersistError> {
    let top = (dec.f64()?, dec.f64()?);
    let n_mids = dec.count(8)?;
    let mut mids = Vec::with_capacity(n_mids);
    for _ in 0..n_mids {
        let n = dec.count(16)?;
        let mut stage = Vec::with_capacity(n);
        for _ in 0..n {
            stage.push((dec.f64()?, dec.f64()?));
        }
        mids.push(stage);
    }
    let n_leaves = dec.count(1 + 16 + 8 + 8 + 8 + 8)?;
    let mut leaves = Vec::with_capacity(n_leaves);
    for _ in 0..n_leaves {
        let model = match dec.u8()? {
            0 => LeafModelParams::Linear {
                slope: dec.f64()?,
                intercept: dec.f64()?,
            },
            1 => LeafModelParams::BTree {
                offset: dec.u64()?,
                len: dec.u64()?,
                page_size: dec.u64()?,
            },
            t => return Err(format_err(format!("unknown leaf model tag {t}"))),
        };
        leaves.push(LeafParams {
            model,
            min_err: dec.i64()?,
            max_err: dec.i64()?,
            std_err: dec.f64()?,
            n_keys: dec.u64()?,
        });
    }
    let search = decode_search(dec)?;
    Ok(RmiParams {
        top,
        mids,
        leaves,
        search,
    })
}

fn decode_search(dec: &mut Dec<'_>) -> Result<SearchStrategy, PersistError> {
    let tag = dec.u8()?;
    SearchStrategy::from_tag(tag).ok_or_else(|| format_err(format!("unknown search tag {tag}")))
}

fn encode_rmi_config(enc: &mut Enc, cfg: &RmiConfig) -> Result<(), PersistError> {
    match cfg.top {
        TopModel::Linear => enc.u8(0),
        _ => {
            return Err(PersistError::Unsupported(
                "format v3 persists linear-top RMI configurations only".into(),
            ))
        }
    }
    enc.usize(cfg.stages.len());
    for &s in &cfg.stages {
        enc.usize(s);
    }
    enc.u8(cfg.search.to_tag());
    match cfg.hybrid_threshold {
        Some(t) => {
            enc.u8(1);
            enc.u32(t);
        }
        None => {
            enc.u8(0);
            enc.u32(0);
        }
    }
    enc.usize(cfg.hybrid_page_size);
    Ok(())
}

fn decode_rmi_config(dec: &mut Dec<'_>) -> Result<RmiConfig, PersistError> {
    let top = match dec.u8()? {
        0 => TopModel::Linear,
        t => return Err(format_err(format!("unknown top model tag {t}"))),
    };
    let n_stages = dec.count(8)?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stages.push(dec.usize()?);
    }
    let search = decode_search(dec)?;
    let has_hybrid = dec.u8()?;
    let threshold = dec.u32()?;
    let hybrid_threshold = match has_hybrid {
        0 => None,
        1 => Some(threshold),
        t => return Err(format_err(format!("bad hybrid flag {t}"))),
    };
    let hybrid_page_size = dec.usize()?;
    if stages.is_empty() || stages.contains(&0) {
        return Err(format_err("rmi config stages must be non-empty and > 0"));
    }
    if hybrid_page_size < 2 {
        return Err(format_err("hybrid_page_size must be >= 2"));
    }
    Ok(RmiConfig {
        top,
        stages,
        search,
        hybrid_threshold,
        hybrid_page_size,
    })
}

fn encode_sw_config(enc: &mut Enc, cfg: &ShardedWritableConfig) {
    enc.usize(cfg.merge_threshold);
    enc.f64(cfg.leaf_fraction);
    enc.f64(cfg.retune.max_mean_err);
    enc.u64(cfg.retune.max_abs_err);
    enc.usize(cfg.retune.max_rounds);
    enc.usize(cfg.check_interval);
    enc.usize(cfg.rebalance.max_shard_len);
    enc.usize(cfg.rebalance.merge_max_len);
    match cfg.rebalance.max_mean_err {
        Some(v) => {
            enc.u8(1);
            enc.f64(v);
        }
        None => {
            enc.u8(0);
            enc.f64(0.0);
        }
    }
    enc.usize(cfg.rebalance.max_shards);
    enc.usize(cfg.max_runs);
    enc.u8(cfg.backend.tag());
}

fn decode_sw_config(dec: &mut Dec<'_>) -> Result<ShardedWritableConfig, PersistError> {
    let merge_threshold = dec.usize()?;
    let leaf_fraction = dec.f64()?;
    let retune = RetunePolicy {
        max_mean_err: dec.f64()?,
        max_abs_err: dec.u64()?,
        max_rounds: dec.usize()?,
    };
    let check_interval = dec.usize()?;
    let max_shard_len = dec.usize()?;
    let merge_max_len = dec.usize()?;
    let has_mme = dec.u8()?;
    let mme = dec.f64()?;
    let max_mean_err = match has_mme {
        0 => None,
        1 => Some(mme),
        t => return Err(format_err(format!("bad max_mean_err flag {t}"))),
    };
    let max_shards = dec.usize()?;
    let max_runs = dec.usize()?;
    let backend_tag = dec.u8()?;
    let backend = Backend::from_tag(backend_tag)
        .ok_or_else(|| format_err(format!("bad backend tag {backend_tag}")))?;
    if matches!(backend, Backend::Interp | Backend::Fast) {
        return Err(format_err(format!(
            "backend tag {backend_tag} is not a write-tier backend"
        )));
    }
    let cfg = ShardedWritableConfig {
        merge_threshold,
        leaf_fraction,
        retune,
        check_interval,
        max_runs,
        backend,
        // Runtime-only knob, deliberately not persisted: a reloaded
        // structure observes by default like a fresh one.
        observe: true,
        rebalance: RebalanceConfig {
            max_shard_len,
            merge_max_len,
            max_mean_err,
            max_shards,
        },
    };
    // Mirror `ShardedWritableConfig::validate` as *errors*: a corrupt
    // file must be rejected, not allowed to panic deep in a
    // constructor.
    if cfg.merge_threshold == 0
        || !(cfg.leaf_fraction > 0.0 && cfg.leaf_fraction.is_finite())
        || !(cfg.retune.max_mean_err >= 0.0 && cfg.retune.max_mean_err.is_finite())
        || cfg.rebalance.max_shard_len < 2
        || cfg.rebalance.merge_max_len >= cfg.rebalance.max_shard_len
        || cfg.rebalance.max_shards < 1
        || cfg
            .rebalance
            .max_mean_err
            .is_some_and(|t| !(t >= 0.0 && t.is_finite()))
    {
        return Err(format_err("invalid sharded-writable configuration"));
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// File-level write / read
// ---------------------------------------------------------------------

fn le_key_bytes(chunks: &[&[u64]]) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut out = Vec::with_capacity(total * 8);
    for chunk in chunks {
        for &k in *chunk {
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
    out
}

/// Write the snapshot atomically: `.tmp` sibling, `fsync` the file,
/// `rename`, `fsync` the parent directory. A reader (or a crash)
/// therefore sees either the complete previous file or the complete
/// new one — never a partial write. The directory sync is load-bearing:
/// `rename` only updates the directory's page cache, so without it a
/// power cut *after* a successful-looking publish could come back up
/// with the old snapshot (or, for a first save, none at all).
///
/// `lsn` is the snapshot LSN stamped into the header (bytes 48..56):
/// the last WAL record this snapshot covers, `0` for structures with
/// no WAL attached. Header bytes 0..56 are themselves checksummed
/// (bytes 56..64), so a flipped LSN byte is rejected, not replayed
/// around.
fn publish(
    path: &Path,
    kind: u32,
    lsn: u64,
    key_bytes: &[u8],
    manifest: &[u8],
) -> Result<(), PersistError> {
    debug_assert!(key_bytes.len().is_multiple_of(8));
    let mut header = vec![0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&kind.to_le_bytes());
    header[16..24].copy_from_slice(&((key_bytes.len() / 8) as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(manifest.len() as u64).to_le_bytes());
    header[32..40].copy_from_slice(&fnv1a(key_bytes).to_le_bytes());
    header[40..48].copy_from_slice(&fnv1a(manifest).to_le_bytes());
    header[48..56].copy_from_slice(&lsn.to_le_bytes());
    let header_sum = fnv1a(&header[0..56]);
    header[56..64].copy_from_slice(&header_sum.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| -> Result<(), PersistError> {
        let mut f = File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(key_bytes)?;
        f.write_all(manifest)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        crate::wal::sync_parent_dir(path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Open a snapshot, verify every header field and all three checksums
/// (header, key payload, manifest), and return the mapped region plus
/// the key count, the manifest's byte range within the region, and the
/// snapshot LSN.
fn open_verified(
    path: &Path,
    expect_kind: u32,
) -> Result<(Arc<MappedFile>, usize, std::ops::Range<usize>, u64), PersistError> {
    let region = Arc::new(MappedFile::open(path)?);
    let bytes = region.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(format_err("file shorter than the header"));
    }
    if bytes[0..8] != MAGIC {
        return Err(format_err("bad magic (not a snapshot file)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(PersistError::Unsupported(format!(
            "snapshot format version {version} (this build reads {VERSION})"
        )));
    }
    let header_sum = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
    if fnv1a(&bytes[0..56]) != header_sum {
        return Err(format_err("header checksum mismatch"));
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if kind != expect_kind {
        return Err(format_err(format!(
            "snapshot kind {kind}, expected {expect_kind}"
        )));
    }
    let n_keys = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let manifest_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let keys_sum = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    let manifest_sum = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
    let snapshot_lsn = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
    let n_keys = usize::try_from(n_keys).map_err(|_| format_err("key count overflows usize"))?;
    let manifest_len =
        usize::try_from(manifest_len).map_err(|_| format_err("manifest length overflows usize"))?;
    let keys_end = n_keys
        .checked_mul(8)
        .and_then(|b| b.checked_add(HEADER_LEN))
        .ok_or_else(|| format_err("key payload size overflows"))?;
    let total = keys_end
        .checked_add(manifest_len)
        .ok_or_else(|| format_err("file size overflows"))?;
    if bytes.len() != total {
        return Err(format_err(format!(
            "file is {} bytes, header declares {total}",
            bytes.len()
        )));
    }
    if fnv1a(&bytes[HEADER_LEN..keys_end]) != keys_sum {
        return Err(format_err("key payload checksum mismatch"));
    }
    if fnv1a(&bytes[keys_end..total]) != manifest_sum {
        return Err(format_err("manifest checksum mismatch"));
    }
    Ok((region, n_keys, keys_end..total, snapshot_lsn))
}

/// Per-shard backend tags in a [`ShardedIndex`] snapshot manifest.
/// These match [`crate::BackendChoice::code`] for the families the
/// adaptive selector emits.
const SHARD_TAG_RMI: u8 = 0;
const SHARD_TAG_BTREE: u8 = 1;
const SHARD_TAG_INTERP: u8 = 2;
const SHARD_TAG_FAST: u8 = 3;

/// Decode and bounds-check a tree backend's page size: the constructors
/// assert `>= 2`, and a corrupt manifest must become a typed error, not
/// a panic (or an absurd allocation) inside them.
fn decode_page_size(dec: &mut Dec<'_>) -> Result<usize, PersistError> {
    let page_size = dec.usize()?;
    if !(2..=1 << 20).contains(&page_size) {
        return Err(format_err(format!("bad shard page size {page_size}")));
    }
    Ok(page_size)
}

/// A typed error unless `keys` is sorted (equal neighbours allowed).
fn check_sorted(keys: &[u64], what: &str) -> Result<(), PersistError> {
    if keys.is_sorted() {
        Ok(())
    } else {
        Err(format_err(format!("{what} must be sorted")))
    }
}

fn check_sorted_unique(keys: &[u64], what: &str) -> Result<(), PersistError> {
    if keys.windows(2).all(|w| w[0] < w[1]) {
        Ok(())
    } else {
        Err(format_err(format!("{what} must be sorted and unique")))
    }
}

// ---------------------------------------------------------------------
// ShardedIndex save / load
// ---------------------------------------------------------------------

impl ShardedIndex {
    /// Save a snapshot of this index to `path` (atomic: tmp + file
    /// fsync + rename + directory fsync).
    ///
    /// Every shard records a one-byte backend tag followed by that
    /// backend's parameters: RMI shards (tag 0) store their model
    /// coefficients; B-Tree (1) and interpolation B-Tree (2) shards
    /// store only their page size and FAST shards (3) nothing at all —
    /// the tree backends are *structural* over the key payload, so the
    /// load path rebuilds them from the mapped key slices without
    /// training anything. Mixed topologies (what [`crate::Backend::Auto`]
    /// produces) round-trip backend-for-backend.
    ///
    /// RMI shards must have a linear top (the serving default), and
    /// every backend must be one of the four above; anything else
    /// returns [`PersistError::Unsupported`] — the format stores
    /// parameters, not arbitrary structures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let (store, offsets, backend_name, shards) = self.persist_parts();
        let mut enc = Enc::default();
        enc.str(backend_name);
        enc.usize(shards.len());
        for &o in offsets {
            enc.usize(o);
        }
        for (i, shard) in shards.iter().enumerate() {
            let any = shard.as_any().ok_or_else(|| {
                PersistError::Unsupported(format!(
                    "shard {i} backend ({}) does not expose its concrete type",
                    shard.name()
                ))
            })?;
            if let Some(rmi) = any.downcast_ref::<Rmi>() {
                enc.u8(SHARD_TAG_RMI);
                let params = rmi.to_params().ok_or_else(|| {
                    PersistError::Unsupported(format!(
                        "shard {i} uses a multivariate/MLP top; \
                         the format persists linear tops only"
                    ))
                })?;
                encode_rmi_params(&mut enc, &params);
            } else if let Some(btree) = any.downcast_ref::<BTreeIndex>() {
                enc.u8(SHARD_TAG_BTREE);
                enc.usize(btree.page_size());
            } else if let Some(interp) = any.downcast_ref::<InterpBTree>() {
                enc.u8(SHARD_TAG_INTERP);
                enc.usize(interp.page_size());
            } else if any.downcast_ref::<FastTree>().is_some() {
                enc.u8(SHARD_TAG_FAST);
            } else {
                return Err(PersistError::Unsupported(format!(
                    "shard {i} backend ({}) is not a persistable type \
                     (RMI, B-Tree, interpolation B-Tree or FAST)",
                    shard.name()
                )));
            }
        }
        publish(
            path.as_ref(),
            KIND_SHARDED_INDEX,
            0, // read-only tier: no WAL, LSN 0
            &le_key_bytes(&[store.as_slice()]),
            &enc.buf,
        )
    }

    /// Load a snapshot saved by [`ShardedIndex::save`]: map the key
    /// payload (zero-copy where the platform allows), rebuild each
    /// shard's RMI from its saved coefficients, rebuild the router over
    /// the boundary keys. **No retraining** — [`li_core::train_count`]
    /// does not move across a load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let (region, n_keys, manifest, _lsn) = open_verified(path.as_ref(), KIND_SHARDED_INDEX)?;
        let store = KeyStore::from_mapped(&region, HEADER_LEN, n_keys)?;
        // A multiset is fine for the tree backends, which the adaptive
        // selector picks for shards with duplicates; RMI shards are
        // checked for unique keys below.
        check_sorted(store.as_slice(), "key payload")?;
        let mut dec = Dec::new(&region.bytes()[manifest]);
        let backend_name = dec.str()?;
        let shard_count = dec.count(8)?;
        if shard_count == 0 {
            return Err(format_err("snapshot declares zero shards"));
        }
        let mut offsets = Vec::with_capacity(shard_count + 1);
        for _ in 0..=shard_count {
            offsets.push(dec.usize()?);
        }
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&n_keys)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(format_err("shard offsets do not partition the keys"));
        }
        let mut shards: Vec<Box<dyn RangeIndex>> = Vec::with_capacity(shard_count);
        for w in offsets.windows(2) {
            let tag = dec.u8()?;
            let slice = store.slice(w[0]..w[1]);
            let shard: Box<dyn RangeIndex> = match tag {
                SHARD_TAG_RMI => {
                    check_sorted_unique(slice.as_slice(), "an RMI shard's keys")?;
                    let params = decode_rmi_params(&mut dec)?;
                    Box::new(Rmi::from_params(slice, &params).ok_or_else(|| {
                        format_err("shard parameters inconsistent with its key range")
                    })?)
                }
                SHARD_TAG_BTREE => Box::new(BTreeIndex::new(slice, decode_page_size(&mut dec)?)),
                SHARD_TAG_INTERP => Box::new(InterpBTree::with_page_size(
                    slice,
                    decode_page_size(&mut dec)?,
                )),
                SHARD_TAG_FAST => Box::new(FastTree::new(slice)),
                t => return Err(format_err(format!("bad shard backend tag {t}"))),
            };
            shards.push(shard);
        }
        dec.finish()?;
        Ok(ShardedIndex::from_loaded(
            store,
            offsets,
            shards,
            backend_name,
        ))
    }
}

// ---------------------------------------------------------------------
// ShardedWritable save / load
// ---------------------------------------------------------------------

impl ShardedWritable {
    /// Save a snapshot of this structure to `path` (atomic: tmp +
    /// file fsync + rename + directory fsync). The snapshot captures,
    /// per shard, the trained base's keys and coefficients **plus the
    /// pending delta buffer and sealed run stack**, all under one
    /// topology read guard — a consistent point-in-time cut even while
    /// concurrent inserts keep flowing afterwards.
    ///
    /// With a WAL attached ([`ShardedWritable::enable_wal`] /
    /// [`ShardedWritable::recover`]), the save additionally runs the
    /// checkpoint protocol: the WAL mutex is held across the cut and
    /// the publish (excluding concurrent durable writers, so the
    /// stamped LSN provably covers everything in the cut), the last
    /// assigned LSN is stamped into the header, and the log is
    /// truncated once the snapshot is durably published — the write
    /// history it logged is now fully covered by the snapshot.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let mut wal_guard = self.wal_slot().lock().unwrap_or_else(|e| e.into_inner());
        let lsn = wal_guard.as_ref().map_or(0, |w| w.last_lsn());
        self.save_snapshot(path.as_ref(), lsn)?;
        self.metrics_handle()
            .event(crate::obs::events::SNAPSHOT_SAVE, self.len() as u64, lsn);
        if let Some(wal) = wal_guard.as_mut() {
            wal.truncate_after_snapshot()?;
        }
        Ok(())
    }

    /// The cut-and-publish half of [`ShardedWritable::save`]: capture
    /// a consistent per-shard state under one topology read guard and
    /// publish it with `lsn` stamped in the header. The caller owns
    /// WAL coordination (holding the WAL mutex so no durable write can
    /// slip between the LSN capture and the cut).
    pub(crate) fn save_snapshot(&self, path: &Path, lsn: u64) -> Result<(), PersistError> {
        let (bounds, states) = self.persist_parts();
        let mut enc = Enc::default();
        encode_sw_config(&mut enc, self.config());
        enc.usize(states.len());
        for &b in &bounds {
            enc.u64(b);
        }
        let mut base_offset = 0usize;
        let mut chunks: Vec<&[u64]> = Vec::with_capacity(states.len());
        for (snap, cfg, threshold) in &states {
            let base = snap.base_index();
            let base_keys = base.key_store().as_slice();
            enc.usize(base_offset);
            enc.usize(base_keys.len());
            encode_rmi_config(&mut enc, cfg)?;
            enc.usize(*threshold);
            encode_rmi_params(
                &mut enc,
                &base.to_params().ok_or_else(|| {
                    PersistError::Unsupported(
                    "a shard base uses a multivariate/MLP top; format v3 persists linear tops only"
                        .into(),
                )
                })?,
            );
            let delta = snap.delta_keys();
            enc.usize(delta.len());
            for &k in delta {
                enc.u64(k);
            }
            // Sealed run stack, oldest first. Only the keys go in the
            // file: run mini-models are O(run) linear fits, refitted on
            // load exactly like hybrid B-Tree leaf structure.
            let runs = snap.runs();
            enc.usize(runs.len());
            for run in runs {
                enc.usize(run.len());
                for &k in run.as_slice() {
                    enc.u64(k);
                }
            }
            chunks.push(base_keys);
            base_offset += base_keys.len();
        }
        publish(
            path,
            KIND_SHARDED_WRITABLE,
            lsn,
            &le_key_bytes(&chunks),
            &enc.buf,
        )
    }

    /// Load a snapshot saved by [`ShardedWritable::save`]: map the key
    /// payload, rebuild every shard base from its saved coefficients
    /// ([`Rmi::from_params`] — no retraining), and **replay each saved
    /// delta buffer and sealed run stack** into a fresh `DeltaIndex`,
    /// so pending inserts survive the restart without having been
    /// merged or compacted. Run mini-models are refitted in O(run) —
    /// [`li_core::train_count`] stays flat across a load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_lsn(path.as_ref()).map(|(sw, _lsn)| sw)
    }

    /// [`ShardedWritable::load`] plus the snapshot LSN from the header
    /// — the recovery path needs it to know which WAL records the
    /// snapshot already covers.
    pub(crate) fn load_with_lsn(path: &Path) -> Result<(Self, u64), PersistError> {
        let (region, n_keys, manifest, lsn) = open_verified(path, KIND_SHARDED_WRITABLE)?;
        let mut dec = Dec::new(&region.bytes()[manifest]);
        let config = decode_sw_config(&mut dec)?;
        let shard_count = dec.count(8)?;
        if shard_count == 0 {
            return Err(format_err("snapshot declares zero shards"));
        }
        let mut bounds = Vec::with_capacity(shard_count - 1);
        for _ in 1..shard_count {
            bounds.push(dec.u64()?);
        }
        check_sorted_unique(&bounds, "ownership bounds")?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut expected_offset = 0usize;
        for s in 0..shard_count {
            let base_offset = dec.usize()?;
            let base_len = dec.usize()?;
            if base_offset != expected_offset {
                return Err(format_err(format!("shard {s} base is not contiguous")));
            }
            expected_offset = base_offset
                .checked_add(base_len)
                .ok_or_else(|| format_err("base range overflows"))?;
            if expected_offset > n_keys {
                return Err(format_err(format!("shard {s} base exceeds the payload")));
            }
            let cfg = decode_rmi_config(&mut dec)?;
            let threshold = dec.usize()?;
            if threshold == 0 {
                return Err(format_err("merge threshold must be > 0"));
            }
            let params = decode_rmi_params(&mut dec)?;
            let n_delta = dec.count(8)?;
            if n_delta >= threshold {
                return Err(format_err(
                    "delta buffer at or above the merge threshold (impossible at save time)",
                ));
            }
            let mut delta = Vec::with_capacity(n_delta);
            for _ in 0..n_delta {
                delta.push(dec.u64()?);
            }
            check_sorted_unique(&delta, "a delta buffer")?;
            let n_runs = dec.count(16)?;
            if config.max_runs == 0 && n_runs > 0 {
                return Err(format_err(
                    "sealed runs present but the configuration disables tiering",
                ));
            }
            let mut runs = Vec::with_capacity(n_runs);
            for _ in 0..n_runs {
                let n = dec.count(8)?;
                if n == 0 {
                    return Err(format_err("a sealed run must be non-empty"));
                }
                let mut run = Vec::with_capacity(n);
                for _ in 0..n {
                    run.push(dec.u64()?);
                }
                check_sorted_unique(&run, "a sealed run")?;
                runs.push(run);
            }
            // Mutual disjointness of the upper tiers, then of the upper
            // tiers against the base: disjoint sorted-unique sets stay
            // strictly sorted when merged, so any overlap shows up as
            // an equal adjacent pair (runs are small — this is cheap).
            let mut upper: Vec<u64> = runs
                .iter()
                .flatten()
                .copied()
                .chain(delta.clone())
                .collect();
            upper.sort_unstable();
            if !upper.windows(2).all(|w| w[0] < w[1]) {
                return Err(format_err(
                    "sealed runs and delta buffer overlap each other",
                ));
            }
            let store = KeyStore::from_mapped(&region, HEADER_LEN + base_offset * 8, base_len)?;
            check_sorted_unique(store.as_slice(), "a shard base")?;
            let base = Rmi::from_params(store, &params)
                .ok_or_else(|| format_err("shard parameters inconsistent with its key range"))?;
            if upper.iter().any(|&k| base.lookup(k).is_some()) {
                return Err(format_err("sealed runs or delta buffer overlap the base"));
            }
            let di = DeltaIndex::with_tiers(base, cfg, threshold, config.max_runs, runs, delta);
            shards.push(Arc::new(WritableShard::from_delta(di)));
        }
        if expected_offset != n_keys {
            return Err(format_err("shard bases do not cover the key payload"));
        }
        dec.finish()?;
        Ok((ShardedWritable::from_loaded(bounds, shards, config), lsn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BTreeShardBuilder, RmiShardBuilder};
    use li_core::train_count;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("li-serve-persist-{}-{name}", std::process::id()))
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn sharded_index_round_trips_without_retraining() {
        let path = tmp_path("si-roundtrip.lidx");
        let _guard = Cleanup(path.clone());
        let data: Vec<u64> = (0..5000u64).map(|i| i * 7 + (i % 3)).collect();
        let idx = ShardedIndex::build(data.clone(), 6, &RmiShardBuilder::new());
        idx.save(&path).unwrap();

        let before = train_count();
        let loaded = ShardedIndex::load(&path).unwrap();
        assert_eq!(train_count(), before, "load must not train any model");

        assert_eq!(loaded.shard_count(), 6);
        assert_eq!(loaded.name(), idx.name());
        for q in data
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
            .take(3000)
        {
            assert_eq!(loaded.lower_bound(q), idx.lower_bound(q), "q={q}");
        }
        // Zero-copy on the load side: every shard shares the mapped
        // region with the top-level store.
        let store = loaded.key_store();
        for s in 0..loaded.shard_count() {
            assert!(loaded.shard(s).key_store().ptr_eq(store), "shard {s}");
        }
    }

    #[test]
    fn sharded_writable_round_trips_with_pending_deltas() {
        let path = tmp_path("sw-roundtrip.lidx");
        let _guard = Cleanup(path.clone());
        let sw = ShardedWritable::new(
            (0..4000u64).map(|i| i * 5).collect::<Vec<_>>(),
            4,
            ShardedWritableConfig::default(),
        );
        // Leave some inserts *pending* (default threshold 1024, so
        // these stay in the buffers) — the snapshot must carry them.
        for k in 0..100u64 {
            sw.insert(k * 5 + 1);
        }
        sw.save(&path).unwrap();

        let before = train_count();
        let loaded = ShardedWritable::load(&path).unwrap();
        assert_eq!(train_count(), before, "load must not train any model");

        assert_eq!(loaded.len(), sw.len());
        let want = sw.range_keys(0, u64::MAX);
        assert_eq!(loaded.range_keys(0, u64::MAX), want);
        for &k in want.iter().step_by(37) {
            assert!(loaded.contains(k), "k={k}");
        }
        // The loaded structure is live: writes keep working.
        assert!(loaded.insert(3));
        assert!(!loaded.insert(3));
        assert_eq!(loaded.len(), sw.len() + 1);
    }

    #[test]
    fn corrupt_and_mismatched_files_are_rejected() {
        let path = tmp_path("corrupt.lidx");
        let _guard = Cleanup(path.clone());
        let idx = ShardedIndex::build((0..512u64).collect::<Vec<_>>(), 2, &RmiShardBuilder::new());
        idx.save(&path).unwrap();

        // Wrong kind.
        assert!(matches!(
            ShardedWritable::load(&path),
            Err(PersistError::Format(_))
        ));

        // Flip one key byte: the checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 100] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardedIndex::load(&path),
            Err(PersistError::Format(_))
        ));

        // Truncation.
        bytes.truncate(bytes.len() - 9);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardedIndex::load(&path),
            Err(PersistError::Format(_))
        ));

        // Not a snapshot at all.
        fs::write(&path, b"hello world, definitely not an index").unwrap();
        assert!(matches!(
            ShardedIndex::load(&path),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn btree_backends_round_trip_structurally() {
        let path = tmp_path("btree-backend.lidx");
        let _guard = Cleanup(path.clone());
        let idx = ShardedIndex::build(
            (0..256u64).collect::<Vec<_>>(),
            2,
            &BTreeShardBuilder::new(32),
        );
        idx.save(&path).unwrap();
        let before = li_core::train_count();
        let loaded = ShardedIndex::load(&path).unwrap();
        // Tree shards are rebuilt structurally — nothing trains.
        assert_eq!(li_core::train_count(), before);
        for s in 0..2 {
            assert_eq!(loaded.shard(s).name(), idx.shard(s).name());
        }
        for k in 0..256u64 {
            assert_eq!(loaded.lower_bound(k), k as usize);
        }
    }

    /// A backend the format cannot carry (no `as_any` downcast hook):
    /// save must refuse with a typed error, never write a lossy file.
    struct OpaqueBackend(KeyStore);
    impl RangeIndex for OpaqueBackend {
        fn key_store(&self) -> &KeyStore {
            &self.0
        }
        fn predict(&self, _key: u64) -> li_index::Prediction {
            li_index::Prediction {
                pos: 0,
                lo: 0,
                hi: self.0.len(),
            }
        }
        fn lower_bound(&self, key: u64) -> usize {
            self.0.as_slice().partition_point(|&k| k < key)
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> String {
            "opaque".into()
        }
    }
    struct OpaqueBuilder;
    impl crate::builder::ShardBuilder for OpaqueBuilder {
        fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
            Box::new(OpaqueBackend(shard))
        }
        fn name(&self) -> String {
            "opaque".into()
        }
    }

    #[test]
    fn unknown_backends_are_unsupported_not_lossy() {
        let path = tmp_path("opaque-backend.lidx");
        let _guard = Cleanup(path.clone());
        let idx = ShardedIndex::build((0..256u64).collect::<Vec<_>>(), 2, &OpaqueBuilder);
        let err = idx.save(&path).unwrap_err();
        assert!(matches!(err, PersistError::Unsupported(_)), "{err}");
        assert!(!path.exists(), "a failed save must not leave a file");
    }

    /// RMI shards with hybrid B-Tree leaves enabled — exercises the
    /// `LeafModelParams::BTree` encoding.
    struct HybridBuilder;
    impl crate::builder::ShardBuilder for HybridBuilder {
        fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
            let mut cfg = RmiConfig::two_stage(TopModel::Linear, (shard.len() / 64).max(1));
            cfg.hybrid_threshold = Some(2);
            cfg.hybrid_page_size = 16;
            Box::new(Rmi::build(shard, &cfg))
        }
        fn name(&self) -> String {
            "hybrid-test".into()
        }
    }

    #[test]
    fn hybrid_btree_leaves_survive_the_round_trip() {
        let path = tmp_path("hybrid.lidx");
        let _guard = Cleanup(path.clone());
        // A nastily clustered keyset + a tight hybrid threshold forces
        // some B-Tree leaves; their structure must be rebuilt from the
        // mapped keys on load.
        let mut data: Vec<u64> = Vec::new();
        for c in 0..64u64 {
            let base = c * c * c * 1000;
            data.extend((0..32u64).map(|i| base + i));
        }
        data.sort_unstable();
        data.dedup();
        let idx = ShardedIndex::build(data.clone(), 3, &HybridBuilder);
        idx.save(&path).unwrap();
        let loaded = ShardedIndex::load(&path).unwrap();
        for &k in data.iter().step_by(11) {
            assert_eq!(loaded.lower_bound(k), idx.lower_bound(k), "k={k}");
            assert_eq!(loaded.lower_bound(k + 1), idx.lower_bound(k + 1));
        }
    }
}
