//! The probe-outcome write-ahead log.
//!
//! A cleaning session's state is the deterministic product of its
//! lifecycle events: the dataset it opened on, the queries it registered,
//! and every probe outcome folded in (each probe is exactly one
//! [`XTupleMutation`] — the incremental structure the paper's cleaning
//! model gives us for free).  The WAL journals those events as
//! append-only records.  [`Wal::append`] only writes; the store's group
//! commit fsyncs the log before any append is acknowledged (see
//! [`crate::store`]), so a crash loses only unacknowledged records —
//! and a torn tail is *tolerated*, not fatal: replay stops at the first
//! corrupt record and truncates the file there.
//!
//! ## File layout
//!
//! | Bytes | Field |
//! |-------|-------|
//! | 4     | magic `PDBW` |
//! | 4     | format version (`u32`, currently 1) |
//! | per record: | |
//! | 4     | payload length (`u32`) |
//! | 8     | XXH64 of the payload |
//! | var   | payload: one [`WalRecord`] as compact JSON |
//!
//! JSON payloads reuse the workspace's serde implementations, so the
//! types journalled here ([`DatasetSpec`], `TopKQuery`,
//! [`XTupleMutation`], `WeightedQuery`) are exactly the ones that cross
//! the server's wire protocol — a record is the request that caused it.
//!
//! ## Torn-tail semantics
//!
//! Only the *tail* is forgiving.  A file that does not start with the
//! magic/version header is rejected outright (truncating it could
//! destroy a file that was never a WAL), and a version this build does
//! not know is a hard error.  Past the header, the first record with a
//! short header, an impossible length, a checksum mismatch or an
//! unparseable payload ends the replay; [`Wal::open`] truncates the file
//! at that offset so subsequent appends continue from a clean boundary.

use crate::error::{Result, StoreError};
use crate::hash::xxh64;
use crate::spec::DatasetSpec;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_quality::WeightedQuery;
use serde::{Deserialize, Serialize};
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"PDBW";

/// Newest WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

/// Seed of the per-record XXH64 integrity check.
const RECORD_SEED: u64 = 0x7064_6277; // "pdbw"

/// Byte length of the file header (magic + version).
const WAL_HEADER_LEN: usize = 8;

/// Byte length of a record header (payload length + checksum).
const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on a single record's payload.  Real records are a few
/// hundred bytes (inline datasets a few megabytes); anything larger is a
/// corrupt length field and must not drive an allocation.
const MAX_RECORD_LEN: usize = 256 << 20;

/// One journalled session-lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A session was created over `dataset`.
    CreateSession {
        /// The session id the server assigned.
        session: u64,
        /// The (deterministic) dataset the session evaluates.
        dataset: DatasetSpec,
        /// Budget units one probe costs.
        probe_cost: u64,
        /// Probability that one probe succeeds.
        probe_success: f64,
    },
    /// A weighted query was registered.
    RegisterQuery {
        /// Target session.
        session: u64,
        /// The registered query.
        query: TopKQuery,
        /// Its weight in the session's aggregate quality.
        weight: f64,
    },
    /// One observed probe outcome was folded into the session.  The
    /// mutation is journalled in its *resolved* form (the exact
    /// [`XTupleMutation`] the engine applied), so replay is a pure delta
    /// pass with no re-derivation.
    ApplyProbe {
        /// Target session.
        session: u64,
        /// The probed x-tuple (index into the session's database at the
        /// time of the probe).
        x_tuple: usize,
        /// What the probe revealed.
        mutation: XTupleMutation,
    },
    /// One mutation — a probe outcome or a streaming insert/remove — was
    /// folded into the session via the `apply_mutation` verb (or its
    /// `apply_probe` alias; both journal this record kind).  As with
    /// [`ApplyProbe`](WalRecord::ApplyProbe), the mutation is journalled
    /// in its *resolved* form: for an [`XTupleMutation::Insert`],
    /// `x_tuple` is the pre-insert x-tuple count the server resolved the
    /// append-only target to, so replay re-applies it to the identical
    /// database version.
    ApplyMutation {
        /// Target session.
        session: u64,
        /// The resolved target x-tuple index.
        x_tuple: usize,
        /// The mutation that was applied.
        mutation: XTupleMutation,
    },
    /// The session was discarded.
    DropSession {
        /// The dropped session.
        session: u64,
    },
    /// The session's full state as of this point in the log lives in a
    /// snapshot file; replay loads the snapshot and ignores every earlier
    /// record of this session.
    Checkpoint {
        /// Target session.
        session: u64,
        /// File name of the snapshot (relative to the store directory).
        snapshot: String,
        /// Budget units one probe costs.
        probe_cost: u64,
        /// Probability that one probe succeeds.
        probe_success: f64,
        /// The session's registered queries, in registration order.
        specs: Vec<WeightedQuery>,
        /// Probes applied to the session before the checkpoint (so the
        /// recovered session's counters survive compaction).
        probes: u64,
    },
}

impl WalRecord {
    /// The record journalling `mutation` of the resolved x-tuple index
    /// `x_tuple` in `session`.
    pub fn apply_mutation(session: u64, x_tuple: usize, mutation: XTupleMutation) -> Self {
        WalRecord::ApplyMutation { session, x_tuple, mutation }
    }

    /// The session this record belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            WalRecord::CreateSession { session, .. }
            | WalRecord::RegisterQuery { session, .. }
            | WalRecord::ApplyProbe { session, .. }
            | WalRecord::ApplyMutation { session, .. }
            | WalRecord::DropSession { session }
            | WalRecord::Checkpoint { session, .. } => session,
        }
    }
}

/// What [`Wal::open`] found in an existing log file.
#[derive(Debug)]
pub struct WalReplay {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// cleanly closed log).
    pub truncated_bytes: u64,
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: fs::File,
    path: PathBuf,
    records: u64,
    /// Length of the valid prefix (header + every fully appended
    /// record): the offset a failed partial append is rolled back to.
    len: u64,
    /// Set when the handle can no longer be trusted to point at the log
    /// on disk (a compaction rewrite replaced the file but reopening it
    /// failed): the log fail-stops instead of acknowledging appends into
    /// an unlinked ghost inode a restart would never see.
    poisoned: Option<String>,
}

/// Frame one record: length + checksum + JSON payload.  Rejects payloads
/// over [`MAX_RECORD_LEN`] at *write* time — the read side treats an
/// impossible length as a torn tail, so an oversized record that got
/// acknowledged would silently truncate itself and everything after it
/// on recovery.
fn frame(record: &WalRecord) -> Result<Vec<u8>> {
    let payload = serde_json::to_string(record).map_err(|e| StoreError::Corrupt {
        path: PathBuf::new(),
        offset: 0,
        reason: format!("encoding a WAL record failed: {e}"),
    })?;
    let payload = payload.as_bytes();
    let len = record_len_u32(payload.len())?;
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&xxh64(payload, RECORD_SEED).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validate a payload length for the frame header's `u32` length field.
/// The [`MAX_RECORD_LEN`] policy bound and the representability bound
/// are checked separately so the framing stays safe even if the policy
/// constant is ever raised past `u32::MAX`.
fn record_len_u32(len: usize) -> Result<u32> {
    if len > MAX_RECORD_LEN {
        return Err(StoreError::Corrupt {
            path: PathBuf::new(),
            offset: 0,
            reason: format!(
                "record payload is {len} bytes, above the {MAX_RECORD_LEN}-byte limit \
                 (use a snapshot instead of an inline dataset of this size)"
            ),
        });
    }
    u32::try_from(len).map_err(|_| StoreError::Corrupt {
        path: PathBuf::new(),
        offset: 0,
        reason: format!("record payload is {len} bytes, not representable in the u32 length field"),
    })
}

/// Scan `bytes` (a full WAL file) into records.  Returns the records and
/// the length of the valid prefix; everything after it is a torn tail.
/// Header problems (wrong magic, unknown version) are hard errors.
pub(crate) fn scan(bytes: &[u8], path: &Path) -> Result<(Vec<WalRecord>, usize)> {
    if bytes.is_empty() {
        return Ok((Vec::new(), 0));
    }
    if bytes.len() < 4 || bytes[..4] != WAL_MAGIC {
        return Err(StoreError::BadMagic { path: path.to_path_buf(), expected: "write-ahead log" });
    }
    if bytes.len() < WAL_HEADER_LEN {
        // Magic present but the version was torn off: an interrupted
        // creation of a brand-new log.  Treat the whole file as tail.
        return Ok((Vec::new(), 0));
    }
    let Some(version) = crate::le::le_u32(&bytes[4..]) else {
        // Statically unreachable (the header-length check above ran), but
        // a torn header degrades to "whole file is tail" rather than a
        // panic if the constants ever drift.
        return Ok((Vec::new(), 0));
    };
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
            supported: WAL_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    loop {
        let remaining = &bytes[offset..];
        if remaining.len() < RECORD_HEADER_LEN {
            break; // torn record header (or clean EOF)
        }
        let (Some(len), Some(stored)) =
            (crate::le::le_u32(remaining), crate::le::le_u64(&remaining[4..]))
        else {
            break; // torn record header (guarded by the length check above)
        };
        let len = len as usize;
        if len == 0 || len > MAX_RECORD_LEN || remaining.len() - RECORD_HEADER_LEN < len {
            break; // impossible length or torn payload
        }
        let payload = &remaining[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if xxh64(payload, RECORD_SEED) != stored {
            break; // corrupt payload
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<WalRecord>(text) else {
            break; // checksum-valid but unparseable: treat as tail
        };
        records.push(record);
        offset += RECORD_HEADER_LEN + len;
    }
    Ok((records, offset))
}

/// Scan the log file at `path` into its valid records (compaction's read
/// side; callers must hold the log lock so the file is not appended to
/// mid-read).
pub(crate) fn scan_file(path: &Path) -> Result<Vec<WalRecord>> {
    let bytes = fs::read(path).map_err(|e| StoreError::io("reading", path, e))?;
    scan(&bytes, path).map(|(records, _)| records)
}

impl Wal {
    /// Open (or create) the log at `path`, replaying every valid record
    /// and truncating a torn tail so appends continue from a clean
    /// boundary.
    pub fn open(path: &Path) -> Result<(Self, WalReplay)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(StoreError::io("reading", path, err)),
        };
        let (records, valid_len) = scan(&bytes, path)?;
        let truncated_bytes = (bytes.len() - valid_len) as u64;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io("opening", path, e))?;
        if valid_len < WAL_HEADER_LEN {
            file.set_len(0).map_err(|e| StoreError::io("truncating", path, e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| StoreError::io("seeking", path, e))?;
            file.write_all(&WAL_MAGIC).map_err(|e| StoreError::io("writing", path, e))?;
            file.write_all(&WAL_VERSION.to_le_bytes())
                .map_err(|e| StoreError::io("writing", path, e))?;
            file.sync_data().map_err(|e| StoreError::io("syncing", path, e))?;
            crate::snapshot::sync_parent_dir(path)?;
        } else {
            file.set_len(valid_len as u64).map_err(|e| StoreError::io("truncating", path, e))?;
            file.seek(SeekFrom::End(0)).map_err(|e| StoreError::io("seeking", path, e))?;
            if truncated_bytes > 0 {
                file.sync_data().map_err(|e| StoreError::io("syncing", path, e))?;
            }
        }

        let records_count = records.len() as u64;
        let len = valid_len.max(WAL_HEADER_LEN) as u64;
        let wal =
            Self { file, path: path.to_path_buf(), records: records_count, len, poisoned: None };
        Ok((wal, WalReplay { records, truncated_bytes }))
    }

    /// Append one record.  This only writes the frame: the caller makes
    /// it durable before acknowledging it (the store's group commit
    /// fsyncs a duplicated handle of the log).
    ///
    /// A *failed* write is rolled back: the file is truncated to the last
    /// fully appended record, so a partial frame (e.g. `ENOSPC` mid-write)
    /// never sits in the middle of the log where it would make every
    /// later — successfully acknowledged — record unreachable as a "torn
    /// tail" on recovery.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        if let Some(why) = &self.poisoned {
            return Err(StoreError::io(
                "appending to",
                &self.path,
                std::io::Error::other(format!("log handle lost: {why}")),
            ));
        }
        let framed = frame(record)?;
        if let Err(err) = self.file.write_all(&framed) {
            let rolled_back =
                self.file.set_len(self.len).is_ok() && self.file.seek(SeekFrom::End(0)).is_ok();
            return Err(StoreError::io(
                if rolled_back { "appending to" } else { "appending to (roll-back failed!)" },
                &self.path,
                err,
            ));
        }
        // The frame is fully written, so the valid prefix now includes it
        // — even if the fsync that should cover it fails.  Keeping `len`
        // in step matters: rolling a *later* failed append back to a stale
        // `len` would truncate this (complete, possibly acknowledged)
        // frame.  A failed fsync is *not* rolled back: the frame is
        // complete and valid, so it either survives the crash (matching
        // the state the caller already applied) or tears off cleanly.
        self.len += framed.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// A duplicated handle to the log file, so the appender leading a
    /// group-commit window can fsync *outside* the log lock: `sync_data`
    /// on the clone covers every frame fully written through the primary
    /// handle before the clone was taken, and appenders keep writing
    /// while the fsync runs — that overlap is where the next batch comes
    /// from.  (A compaction
    /// rewrite may swap the file out from under an in-flight clone; the
    /// rewrite itself made every surviving record durable, so fsyncing
    /// the replaced inode is harmless.)
    pub(crate) fn sync_handle(&self) -> Result<fs::File> {
        self.file
            .try_clone()
            .map_err(|e| StoreError::io("cloning the log handle of", &self.path, e))
    }

    /// Records in the log (valid records found at open + appends since).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replace the log's contents with `records` (compaction):
    /// the new log is framed in memory, written to a temporary file,
    /// fsync'd and renamed over the old one, then reopened for appends.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<()> {
        let mut bytes = Vec::with_capacity(WAL_HEADER_LEN + 64 * records.len());
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        for record in records {
            bytes.extend_from_slice(&frame(record)?);
        }
        crate::snapshot::write_atomic(&self.path, &bytes)?;
        // The rename already replaced the file on disk: the old handle
        // now points at an unlinked inode.  If reopening the new file
        // fails, the log must fail-stop — appending through the stale
        // handle would acknowledge records a restart could never see.
        let reopened = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .and_then(|mut file| file.seek(SeekFrom::End(0)).map(|_| file));
        match reopened {
            Ok(file) => {
                self.file = file;
                self.poisoned = None;
            }
            Err(err) => {
                self.poisoned = Some(format!("reopening after a compaction rewrite failed: {err}"));
                return Err(StoreError::io("reopening", &self.path, err));
            }
        }
        self.records = records.len() as u64;
        self.len = bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdb-store-wal-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::remove_file(&path).ok();
        path
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateSession {
                session: 1,
                dataset: DatasetSpec::Udb1,
                probe_cost: 1,
                probe_success: 0.8,
            },
            WalRecord::RegisterQuery {
                session: 1,
                query: TopKQuery::PTk { k: 2, threshold: 0.4 },
                weight: 1.0,
            },
            WalRecord::ApplyProbe {
                session: 1,
                x_tuple: 2,
                mutation: XTupleMutation::CollapseToAlternative { keep_pos: 2 },
            },
            WalRecord::apply_mutation(
                1,
                4,
                XTupleMutation::Insert {
                    key: "s4".to_string(),
                    alternatives: vec![(28.5, 0.5), (23.0, 0.25)],
                },
            ),
            WalRecord::apply_mutation(1, 0, XTupleMutation::Remove),
            WalRecord::Checkpoint {
                session: 1,
                snapshot: "snapshot-1-3.pdbs".to_string(),
                probe_cost: 1,
                probe_success: 0.8,
                specs: vec![WeightedQuery::weighted(TopKQuery::UKRanks { k: 3 }, 2.0)],
                probes: 1,
            },
            WalRecord::DropSession { session: 1 },
        ]
    }

    /// One record of every kind, over every dataset spec, query kind and
    /// mutation kind, and an insert whose key needs escaping.
    fn every_record_kind() -> Vec<WalRecord> {
        let create = |dataset| WalRecord::CreateSession {
            session: 3,
            dataset,
            probe_cost: 2,
            probe_success: 0.8,
        };
        let register = |query, weight| WalRecord::RegisterQuery { session: 3, query, weight };
        let mutate = |x_tuple, mutation| WalRecord::apply_mutation(3, x_tuple, mutation);
        vec![
            create(DatasetSpec::Synthetic { tuples: 10_000 }),
            create(DatasetSpec::Mov { x_tuples: 20 }),
            create(DatasetSpec::Udb1),
            create(DatasetSpec::Inline {
                x_tuples: vec![vec![(21.0, 0.6), (32.0, 0.4)], vec![(26.5, 1e-7)]],
            }),
            create(DatasetSpec::Snapshot { path: "/var/lib/pdb/db-1.pdbs".to_string() }),
            register(TopKQuery::UKRanks { k: 5 }, 1.0),
            register(TopKQuery::PTk { k: 15, threshold: 0.1 }, 0.5),
            register(TopKQuery::GlobalTopk { k: 50 }, 2.0),
            WalRecord::ApplyProbe {
                session: 3,
                x_tuple: 2,
                mutation: XTupleMutation::CollapseToAlternative { keep_pos: 7 },
            },
            mutate(1, XTupleMutation::CollapseToAlternative { keep_pos: 12 }),
            mutate(0, XTupleMutation::CollapseToNull),
            mutate(4, XTupleMutation::Reweight { probs: vec![0.25, 0.5, -0.0, 1e-7] }),
            mutate(
                9,
                XTupleMutation::Insert {
                    key: "s9".to_string(),
                    alternatives: vec![(28.5, 0.5), (23.0, 0.25)],
                },
            ),
            mutate(
                10,
                XTupleMutation::Insert {
                    key: "sensor \"north\" C:\\x\n\u{1}é".to_string(),
                    alternatives: vec![(1e16, 1.0)],
                },
            ),
            mutate(5, XTupleMutation::Remove),
            WalRecord::DropSession { session: 3 },
            WalRecord::Checkpoint {
                session: 3,
                snapshot: "snapshot-3-17.pdbs".to_string(),
                probe_cost: 2,
                probe_success: 0.8,
                specs: vec![
                    WeightedQuery::weighted(TopKQuery::UKRanks { k: 5 }, 1.0),
                    WeightedQuery::weighted(TopKQuery::PTk { k: 15, threshold: 0.1 }, 0.5),
                    WeightedQuery::weighted(TopKQuery::GlobalTopk { k: 50 }, 2.0),
                ],
                probes: 17,
            },
        ]
    }

    /// The JSON payload of each entry of `every_record_kind()`, byte for
    /// byte: a log written by any build must replay on every other.
    const GOLDEN_PAYLOADS: [&str; 17] = [
        r#"{"CreateSession":{"session":3,"dataset":{"Synthetic":{"tuples":10000}},"probe_cost":2,"probe_success":0.8}}"#,
        r#"{"CreateSession":{"session":3,"dataset":{"Mov":{"x_tuples":20}},"probe_cost":2,"probe_success":0.8}}"#,
        r#"{"CreateSession":{"session":3,"dataset":"Udb1","probe_cost":2,"probe_success":0.8}}"#,
        r#"{"CreateSession":{"session":3,"dataset":{"Inline":{"x_tuples":[[[21.0,0.6],[32.0,0.4]],[[26.5,1e-7]]]}},"probe_cost":2,"probe_success":0.8}}"#,
        r#"{"CreateSession":{"session":3,"dataset":{"Snapshot":{"path":"/var/lib/pdb/db-1.pdbs"}},"probe_cost":2,"probe_success":0.8}}"#,
        r#"{"RegisterQuery":{"session":3,"query":{"UKRanks":{"k":5}},"weight":1.0}}"#,
        r#"{"RegisterQuery":{"session":3,"query":{"PTk":{"k":15,"threshold":0.1}},"weight":0.5}}"#,
        r#"{"RegisterQuery":{"session":3,"query":{"GlobalTopk":{"k":50}},"weight":2.0}}"#,
        r#"{"ApplyProbe":{"session":3,"x_tuple":2,"mutation":{"CollapseToAlternative":{"keep_pos":7}}}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":1,"mutation":{"CollapseToAlternative":{"keep_pos":12}}}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":0,"mutation":"CollapseToNull"}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":4,"mutation":{"Reweight":{"probs":[0.25,0.5,-0.0,1e-7]}}}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":9,"mutation":{"Insert":{"key":"s9","alternatives":[[28.5,0.5],[23.0,0.25]]}}}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":10,"mutation":{"Insert":{"key":"sensor \"north\" C:\\x\n\u0001é","alternatives":[[1e16,1.0]]}}}}"#,
        r#"{"ApplyMutation":{"session":3,"x_tuple":5,"mutation":"Remove"}}"#,
        r#"{"DropSession":{"session":3}}"#,
        r#"{"Checkpoint":{"session":3,"snapshot":"snapshot-3-17.pdbs","probe_cost":2,"probe_success":0.8,"specs":[{"query":{"UKRanks":{"k":5}},"weight":1.0},{"query":{"PTk":{"k":15,"threshold":0.1}},"weight":0.5},{"query":{"GlobalTopk":{"k":50}},"weight":2.0}],"probes":17}}"#,
    ];

    #[test]
    fn every_record_kind_encodes_to_its_golden_payload_and_back() {
        let records = every_record_kind();
        assert_eq!(records.len(), GOLDEN_PAYLOADS.len());
        for (record, golden) in records.iter().zip(GOLDEN_PAYLOADS) {
            assert_eq!(serde_json::to_string(record).unwrap(), golden);
            assert_eq!(&serde_json::from_str::<WalRecord>(golden).unwrap(), record);
            // The frame carries exactly those bytes after its header.
            assert_eq!(&frame(record).unwrap()[RECORD_HEADER_LEN..], golden.as_bytes());
        }
    }

    #[test]
    fn record_len_boundaries() {
        // At the policy bound: representable and accepted.
        assert_eq!(record_len_u32(MAX_RECORD_LEN).unwrap(), MAX_RECORD_LEN as u32);
        // One past the policy bound: rejected with the snapshot hint.
        let err = record_len_u32(MAX_RECORD_LEN + 1).unwrap_err();
        assert!(err.to_string().contains("use a snapshot"), "{err}");
        // Past u32::MAX: rejected even though the policy check would have
        // caught it first today — the representability bound is its own
        // guard, not a consequence of the policy constant.
        let err = record_len_u32((u32::MAX as usize) + 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn appends_replay_in_order() {
        let path = temp_wal("replay.wal");
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        assert_eq!(wal.records(), 7);
        drop(wal);

        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(wal.records(), 7);
        assert!(replay.records.iter().all(|r| r.session() == 1));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_wal("torn.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);

        // Append half a record: a record header promising more payload
        // than the file holds.
        let intact_len = fs::metadata(&path).unwrap().len();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"only a few payload bytes");
        fs::write(&path, &bytes).unwrap();

        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.truncated_bytes, bytes.len() as u64 - intact_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), intact_len, "tail truncated");

        // The log keeps working after truncation.
        wal.append(&WalRecord::DropSession { session: 9 }).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 8);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_mid_record_truncates_from_there() {
        let path = temp_wal("corrupt.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);

        // Flip one byte inside record #2's payload: replay keeps records
        // 0 and 1, truncates the rest (records after a corrupt one are
        // unreachable — lengths no longer line up reliably).
        let mut bytes = fs::read(&path).unwrap();
        // Locate record 2's payload: skip header + two framed records.
        let mut offset = WAL_HEADER_LEN;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += RECORD_HEADER_LEN + len;
        }
        bytes[offset + RECORD_HEADER_LEN + 5] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records()[..2].to_vec());
        assert!(replay.truncated_bytes > 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = temp_wal("foreign.wal");
        fs::write(&path, b"this is somebody's notes file, not a WAL").unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }));
        assert_eq!(fs::read(&path).unwrap().len(), 40, "file untouched");

        let mut versioned = Vec::new();
        versioned.extend_from_slice(&WAL_MAGIC);
        versioned.extend_from_slice(&7u32.to_le_bytes());
        fs::write(&path, &versioned).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedVersion { version: 7, .. }));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = temp_wal("rewrite.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let kept = vec![sample_records().remove(3)];
        wal.rewrite(&kept).unwrap();
        assert_eq!(wal.records(), 1);
        // Appends after a rewrite land after the rewritten records.
        wal.append(&WalRecord::DropSession { session: 2 }).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0], sample_records()[3]);
        fs::remove_file(&path).ok();
    }
}
