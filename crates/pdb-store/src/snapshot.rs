//! The versioned, checksummed binary snapshot format.
//!
//! A snapshot is the durable form of a [`RankedDatabase`]: the columnar
//! physical representation written out verbatim, so loading one is a
//! sequential read plus one index rebuild — no JSON parsing, no re-sort,
//! and (as the `snapshot_io` bench measures) far cheaper than regenerating
//! the dataset and re-running PSR.
//!
//! ## Layout (version 1, all integers little-endian)
//!
//! | Offset | Bytes | Field |
//! |--------|-------|-------|
//! | 0      | 4     | magic `PDBS` |
//! | 4      | 4     | format version (`u32`, currently 1) |
//! | 8      | 8     | tuple count `n` (`u64`) |
//! | 16     | 8     | x-tuple count `m` (`u64`) |
//! | 24     | var   | `m` x-tuple keys, each `u32` length + UTF-8 bytes |
//! | —      | 8·n   | tuple ids (`u64`) |
//! | —      | 8·n   | tuple x-indices (`u64`) |
//! | —      | 8·n   | scores (`f64` bit patterns) |
//! | —      | 8·n   | existential probabilities (`f64` bit patterns) |
//! | end−8  | 8     | XXH64 of every preceding byte |
//!
//! Tuples are written in rank order.  The reader rebuilds the database
//! through [`RankedDatabase::from_entries`], whose stable sort leaves an
//! already-sorted tuple array untouched and recomputes the membership
//! index and prefix masses in the same fold order the original database
//! used — so a round trip is **bit-exact**: every score and probability
//! compares equal under `f64::to_bits`, not merely within a tolerance.
//!
//! Scores and probabilities are stored as raw IEEE-754 bit patterns for
//! exactly that reason; a decimal text round trip would be lossy for
//! probabilities produced by arithmetic (e.g. reweighted alternatives).
//!
//! Every read validates the trailing checksum before trusting any length
//! field, so a flipped byte anywhere in the file — header, keys, columns
//! or trailer — surfaces as a clean [`StoreError::Corrupt`], never a
//! panic or a silently wrong database.

use crate::error::{Result, StoreError};
use crate::hash::xxh64;
use pdb_core::{RankedDatabase, TupleId};
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PDBS";

/// Newest snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Seed of the trailing XXH64 integrity check.
const CHECKSUM_SEED: u64 = 0x7064_6273; // "pdbs"

/// Byte length of the fixed header (magic + version + counts).
const HEADER_LEN: usize = 24;

/// The snapshot codec: encode/decode a [`RankedDatabase`] to/from the
/// binary format, and read/write snapshot files (atomically, via a
/// same-directory temporary file and rename).
pub struct Snapshot;

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.offset.checked_add(len).filter(|&end| end <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.offset..end];
                self.offset = end;
                Ok(slice)
            }
            None => Err(StoreError::corrupt(
                self.path,
                self.offset,
                format!("{what} needs {len} bytes, only {} remain", self.bytes.len() - self.offset),
            )),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let raw = self.take(4, what)?;
        crate::le::le_u32(raw)
            .ok_or_else(|| StoreError::corrupt(self.path, self.offset, format!("{what} is torn")))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let raw = self.take(8, what)?;
        crate::le::le_u64(raw)
            .ok_or_else(|| StoreError::corrupt(self.path, self.offset, format!("{what} is torn")))
    }
}

impl Snapshot {
    /// Encode a database into the binary snapshot format (including
    /// header and trailing checksum).  Fails (rather than silently
    /// wrapping the length field) on an x-tuple key longer than
    /// `u32::MAX` bytes — such a snapshot would decode to a different
    /// database than the one written.
    pub fn encode(db: &RankedDatabase) -> Result<Vec<u8>> {
        let n = db.len();
        let m = db.num_x_tuples();
        let keys_len: usize = db.x_tuples().map(|info| 4 + info.key.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + keys_len + 4 * 8 * n + 8);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(m as u64).to_le_bytes());
        for info in db.x_tuples() {
            let key_len = u32::try_from(info.key.len()).map_err(|_| StoreError::Corrupt {
                path: PathBuf::new(),
                offset: out.len(),
                reason: format!(
                    "x-tuple key is {} bytes, not representable in the u32 length field",
                    info.key.len()
                ),
            })?;
            out.extend_from_slice(&key_len.to_le_bytes());
            out.extend_from_slice(info.key.as_bytes());
        }
        for t in db.tuples() {
            out.extend_from_slice(&(t.id.0 as u64).to_le_bytes());
        }
        for t in db.tuples() {
            out.extend_from_slice(&(t.x_index as u64).to_le_bytes());
        }
        for t in db.tuples() {
            out.extend_from_slice(&t.score.to_bits().to_le_bytes());
        }
        for t in db.tuples() {
            out.extend_from_slice(&t.prob.to_bits().to_le_bytes());
        }
        let checksum = xxh64(&out, CHECKSUM_SEED);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Whether `bytes` begin with the snapshot magic (used by format
    /// sniffing in `pdb-gen`'s loader).
    pub fn is_snapshot(bytes: &[u8]) -> bool {
        bytes.len() >= 4 && bytes[..4] == SNAPSHOT_MAGIC
    }

    /// Decode a snapshot from memory.  `origin` names the source in error
    /// messages.
    pub fn decode(bytes: &[u8], origin: &Path) -> Result<RankedDatabase> {
        if bytes.len() < 4 || bytes[..4] != SNAPSHOT_MAGIC {
            return Err(StoreError::BadMagic { path: origin.to_path_buf(), expected: "snapshot" });
        }
        if bytes.len() < HEADER_LEN + 8 {
            return Err(StoreError::corrupt(
                origin,
                bytes.len(),
                "file is shorter than the fixed header and checksum",
            ));
        }
        // Verify the trailing checksum before trusting any length field:
        // after this check every count in the file is known-good (up to
        // hash collisions), and the cursor's bounds checks below are a
        // second line of defence, not the primary one.
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = crate::le::le_u64(trailer).ok_or_else(|| {
            // Unreachable (split_at gives exactly 8 bytes), but kept as a
            // clean error: the decode path never panics on input bytes.
            StoreError::corrupt(origin, body.len(), "checksum trailer is torn")
        })?;
        let computed = xxh64(body, CHECKSUM_SEED);
        if stored != computed {
            return Err(StoreError::corrupt(
                origin,
                body.len(),
                format!("checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"),
            ));
        }

        let mut cur = Cursor { bytes: body, offset: 4, path: origin };
        let version = cur.u32("format version")?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: origin.to_path_buf(),
                version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let n = usize::try_from(cur.u64("tuple count")?)
            .map_err(|_| StoreError::corrupt(origin, 8, "tuple count overflows usize"))?;
        let m = usize::try_from(cur.u64("x-tuple count")?)
            .map_err(|_| StoreError::corrupt(origin, 16, "x-tuple count overflows usize"))?;

        let mut keys = Vec::with_capacity(m.min(body.len()));
        for i in 0..m {
            let len = cur.u32(&format!("length of key {i}"))? as usize;
            let raw = cur.take(len, &format!("key {i}"))?;
            let key = std::str::from_utf8(raw).map_err(|_| {
                StoreError::corrupt(origin, cur.offset, format!("key {i} is not valid UTF-8"))
            })?;
            keys.push(key.to_string());
        }

        let expected = n.checked_mul(32).and_then(|cols| cur.offset.checked_add(cols));
        if expected != Some(body.len()) {
            return Err(StoreError::corrupt(
                origin,
                cur.offset,
                format!(
                    "{n} tuples need {} column bytes, found {}",
                    n.saturating_mul(32),
                    body.len() - cur.offset
                ),
            ));
        }
        let ids = cur.take(8 * n, "tuple id column")?;
        let x_indices = cur.take(8 * n, "x-index column")?;
        let scores = cur.take(8 * n, "score column")?;
        let probs = cur.take(8 * n, "probability column")?;
        let column = |col: &[u8], i: usize| -> Result<u64> {
            col.get(8 * i..).and_then(crate::le::le_u64).ok_or_else(|| {
                StoreError::corrupt(origin, cur.offset, format!("column of tuple {i} is torn"))
            })
        };
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let x_index = usize::try_from(column(x_indices, i)?).map_err(|_| {
                StoreError::corrupt(origin, cur.offset, format!("x-index of tuple {i} overflows"))
            })?;
            entries.push((
                TupleId(column(ids, i)? as usize),
                x_index,
                f64::from_bits(column(scores, i)?),
                f64::from_bits(column(probs, i)?),
            ));
        }
        // from_entries re-validates scores/probabilities/masses, so a
        // checksum-valid file that encodes an invalid database (a writer
        // bug, or a hash collision) still comes back as a clean error.
        RankedDatabase::from_entries(entries, keys).map_err(StoreError::Engine)
    }

    /// Read a snapshot file.  Only a regular file is read, only once its
    /// first four bytes are the snapshot magic, and its body is allocated
    /// fallibly: a device, a directory, a non-snapshot file or one too
    /// large to hold in memory is an error, never an unbounded read or
    /// an abort.
    pub fn read(path: &Path) -> Result<RankedDatabase> {
        let io = |e| StoreError::io("reading", path, e);
        // Stat before opening, since opening a FIFO blocks until a writer
        // appears.  Reads stop at the opened file's length, so a device
        // swapped in since the stat yields nothing.
        if !fs::metadata(path).map_err(io)?.is_file() {
            return Err(io(std::io::Error::other("not a regular file")));
        }
        let file = fs::File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        let mut file = file.take(file_len);
        let mut magic = [0u8; 4];
        match file.read_exact(&mut magic) {
            Err(e) if e.kind() != std::io::ErrorKind::UnexpectedEof => return Err(io(e)),
            Ok(()) if magic == SNAPSHOT_MAGIC => {}
            _ => {
                return Err(StoreError::BadMagic { path: path.to_path_buf(), expected: "snapshot" })
            }
        }
        let too_large = || io(std::io::Error::other("file is too large to load"));
        let len = usize::try_from(file_len).map_err(|_| too_large())?;
        let mut bytes = Vec::new();
        bytes.try_reserve_exact(len).map_err(|_| too_large())?;
        bytes.extend_from_slice(&magic);
        file.read_to_end(&mut bytes).map_err(io)?;
        Self::decode(&bytes, path)
    }

    /// Write a snapshot file atomically: encode, write to a
    /// same-directory temporary file, fsync, rename into place.  A crash
    /// mid-write leaves the previous file (or no file), never a torn one.
    pub fn write(db: &RankedDatabase, path: &Path) -> Result<()> {
        let bytes = Self::encode(db)?;
        write_atomic(path, &bytes)
    }
}

/// Write `bytes` to `path` via a same-directory temp file + fsync +
/// rename (shared by snapshots and log rewrites).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            StoreError::io(
                "resolving",
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name"),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let mut file = fs::File::create(&tmp).map_err(|e| StoreError::io("creating", &tmp, e))?;
    file.write_all(bytes).map_err(|e| StoreError::io("writing", &tmp, e))?;
    file.sync_data().map_err(|e| StoreError::io("syncing", &tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| StoreError::io("renaming", &tmp, e))?;
    sync_parent_dir(path)
}

/// Fsync the directory containing `path`, making a just-created or
/// just-renamed entry durable.  Platforms where directories cannot be
/// opened for sync (e.g. Windows) skip this silently — but once the
/// directory *is* open, a failing `sync_all` is a real durability hole
/// (the rename may not survive a crash) and is propagated.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all().map_err(|e| StoreError::io("syncing", parent, e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn assert_bit_exact(a: &RankedDatabase, b: &RankedDatabase) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_x_tuples(), b.num_x_tuples());
        for pos in 0..a.len() {
            let (x, y) = (a.tuple(pos), b.tuple(pos));
            assert_eq!(x.id, y.id);
            assert_eq!(x.x_index, y.x_index);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.prob.to_bits(), y.prob.to_bits());
        }
        for l in 0..a.num_x_tuples() {
            assert_eq!(a.x_tuple(l).key, b.x_tuple(l).key);
            assert_eq!(a.x_tuple(l).members, b.x_tuple(l).members);
            assert_eq!(a.x_tuple(l).total_mass.to_bits(), b.x_tuple(l).total_mass.to_bits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let db = udb1();
        let bytes = Snapshot::encode(&db).expect("encoding fits the format");
        assert!(Snapshot::is_snapshot(&bytes));
        let back = Snapshot::decode(&bytes, Path::new("mem")).unwrap();
        assert_bit_exact(&db, &back);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pdb-store-snapshot-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("udb1.pdbs");
        let db = udb1();
        Snapshot::write(&db, &path).unwrap();
        let back = Snapshot::read(&path).unwrap();
        assert_bit_exact(&db, &back);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn non_snapshot_bytes_are_rejected_by_magic() {
        let err = Snapshot::decode(b"{\"json\": true}", Path::new("x.json")).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }));
        assert!(!Snapshot::is_snapshot(b"PD"));
        let dir = std::env::temp_dir().join("pdb-store-snapshot-magic-test");
        fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in [("x.json", &b"{\"json\": true}"[..]), ("short", b"PD")] {
            fs::write(dir.join(name), bytes).unwrap();
            let err = Snapshot::read(&dir.join(name)).unwrap_err();
            assert!(matches!(err, StoreError::BadMagic { .. }), "{name}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut bytes = Snapshot::encode(&udb1()).expect("encoding fits the format");
        bytes[4] = 99; // bump the version field...
        let len = bytes.len();
        let checksum = xxh64(&bytes[..len - 8], CHECKSUM_SEED);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes()); // ...with a valid checksum
        let err = Snapshot::decode(&bytes, Path::new("mem")).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedVersion { version: 99, .. }));
    }

    #[test]
    fn truncation_and_byte_flips_are_clean_errors() {
        let bytes = Snapshot::encode(&udb1()).expect("encoding fits the format");
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut], Path::new("mem")).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. } | StoreError::BadMagic { .. }),
                "cut at {cut}: {err}"
            );
        }
        // The exhaustive every-byte flip suite lives in
        // tests/snapshot_roundtrip.rs; spot-check the three regions here.
        for pos in [5usize, 30, bytes.len() - 3] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            assert!(
                Snapshot::decode(&flipped, Path::new("mem")).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Snapshot::read(Path::new("/definitely/not/here.pdbs")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        // So is a device or a directory, refused before any byte is read
        // (reading /dev/zero would never end).
        for path in ["/dev/zero", "/"] {
            let err = Snapshot::read(Path::new(path)).unwrap_err();
            assert!(err.to_string().ends_with("not a regular file"), "{path}: {err}");
        }
    }
}
