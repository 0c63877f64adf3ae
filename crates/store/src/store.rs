//! The on-disk store: one directory of digest-named artifact files.
//!
//! Layout is deliberately flat and greppable: every artifact lives at
//! `<dir>/<digest as 16 hex digits>.<kind>.smma`, e.g.
//! `00000f4a139ac2b1.matrix.smma`. Writes go through a temporary file
//! and an atomic rename, so a crash mid-`put` never leaves a partial
//! artifact under a valid name. Reads verify the full format contract
//! (magic, revision, and the payload against its kind's integrity check
//! — a matrix body against the content digest taken over its bytes,
//! the other kinds against their CRC; see [`artifact`])
//! before returning a value — a corrupt file is a recoverable [`Error`],
//! never a panic. A file of an older format revision is refused the
//! same way, and [`Store::gc`] removes it.
//!
//! **What a write survives.** [`Store::put`] writes a temporary file,
//! calls `sync_all` on it and renames it over the artifact's name before
//! it returns, so a killed process loses nothing a `put` acknowledged.
//! It does not fsync the directory after the rename, so a power cut may
//! drop the last acknowledged load: its file either comes back whole
//! under its name or is absent, never torn.
//!
//! The fleet writes and reads a matrix as its body ([`Store::put_body`],
//! [`Store::get_body`]): the bytes it received are the bytes it files,
//! and a cold read never makes the matrix dense. [`Store::put`] /
//! [`Store::get`] take and give the dense [`smm_core::matrix::IntMatrix`]
//! over the same files.

use crate::artifact::{self, Artifact, ArtifactKind};
use smm_core::error::{Error, Result};
use smm_core::wire::MatrixBody;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn io_err(context: String) -> Error {
    Error::Runtime { context }
}

/// One digest's on-disk presence, as listed by [`Store::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The matrix content digest the files are named by.
    pub digest: u64,
    /// Which artifact kinds are present for the digest.
    pub kinds: Vec<ArtifactKind>,
    /// Total bytes across the digest's files.
    pub bytes: u64,
}

/// What a [`Store::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files that decoded cleanly and were kept.
    pub kept: usize,
    /// Corrupt, truncated, or misnamed files removed.
    pub removed: usize,
    /// Bytes reclaimed by the removals.
    pub reclaimed_bytes: u64,
}

/// A directory of digest-addressed artifact files.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(format!("creating store dir {}: {e}", dir.display())))?;
        Ok(Self { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path an artifact of `kind` for `digest` lives at.
    pub fn path_for(&self, digest: u64, kind: ArtifactKind) -> PathBuf {
        self.dir.join(format!("{digest:016x}.{}.smma", kind.ext()))
    }

    /// Serializes and persists one artifact under `digest`, atomically
    /// (temp file + rename). Overwrites any previous artifact of the
    /// same kind.
    pub fn put(&self, digest: u64, artifact: &Artifact) -> Result<()> {
        self.write(self.path_for(digest, artifact.kind()), &artifact::encode(digest, artifact))
    }

    /// Persists a matrix body under `digest` as its `Matrix` artifact,
    /// the body's bytes as they are; atomically, like [`Store::put`].
    pub fn put_body(&self, digest: u64, body: &MatrixBody) -> Result<()> {
        let bytes = artifact::encode_body(digest, body);
        self.write(self.path_for(digest, ArtifactKind::Matrix), &bytes)
    }

    fn write(&self, path: PathBuf, bytes: &[u8]) -> Result<()> {
        // A temp name of this write's own: two writers of one artifact
        // (racing loaders of one matrix) must not truncate each other's
        // file. It still ends `.smma.tmp`, which is what `gc` sweeps.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let nth = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{nth}.smma.tmp", std::process::id()));
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(tmp, &path)
        };
        write(&tmp).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(format!("writing artifact {}: {e}", path.display()))
        })
    }

    /// The bytes of the artifact file at `path`; `None` when there is
    /// none.
    fn read(path: &Path) -> Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(format!("reading artifact {}: {e}", path.display()))),
        }
    }

    /// The error for a file stamped with another digest than its name.
    fn check_stamp(path: &Path, stamped: u64, digest: u64) -> Result<()> {
        if stamped != digest {
            return Err(io_err(format!(
                "artifact {} is stamped for digest {stamped:#018x}",
                path.display()
            )));
        }
        Ok(())
    }

    /// Loads the matrix stored under `digest` as its body.
    ///
    /// Returns `Ok(None)` when no such file exists; a file that exists
    /// but fails any format check is an `Err`. The body is verified by one
    /// structural pass and one hash over its bytes:
    /// [`artifact::decode_body`] holds the digest taken over them to the
    /// stamped one, and this holds the stamp to the requested one, so the
    /// body returned is the matrix the name promises.
    pub fn get_body(&self, digest: u64) -> Result<Option<MatrixBody>> {
        let path = self.path_for(digest, ArtifactKind::Matrix);
        let Some(bytes) = Self::read(&path)? else {
            return Ok(None);
        };
        let (stamped, body) = artifact::decode_body(&bytes)
            .map_err(|e| io_err(format!("artifact {}: {e}", path.display())))?;
        Self::check_stamp(&path, stamped, digest)?;
        Ok(Some(body))
    }

    /// Loads the artifact of `kind` stored under `digest`.
    ///
    /// Returns `Ok(None)` when no such file exists; a file that exists
    /// but fails any format check is an `Err`. A matrix is read through
    /// [`Store::get_body`] and made dense; the other kinds are held to
    /// their payload CRC and to the same stamp.
    pub fn get(&self, digest: u64, kind: ArtifactKind) -> Result<Option<Artifact>> {
        if kind == ArtifactKind::Matrix {
            return match self.get_body(digest)? {
                Some(body) => Ok(Some(Artifact::Matrix(body.to_matrix()?))),
                None => Ok(None),
            };
        }
        let path = self.path_for(digest, kind);
        let Some(bytes) = Self::read(&path)? else {
            return Ok(None);
        };
        let (stamped, artifact) = artifact::decode(&bytes)
            .map_err(|e| io_err(format!("artifact {}: {e}", path.display())))?;
        Self::check_stamp(&path, stamped, digest)?;
        if artifact.kind() != kind {
            return Err(io_err(format!(
                "artifact {} holds a {} payload",
                path.display(),
                artifact.kind().ext()
            )));
        }
        Ok(Some(artifact))
    }

    /// Whether an artifact of `kind` exists for `digest` (no decode).
    pub fn contains(&self, digest: u64, kind: ArtifactKind) -> bool {
        self.path_for(digest, kind).is_file()
    }

    /// Removes every artifact stored under `digest`, returning how many
    /// files were deleted.
    pub fn evict(&self, digest: u64) -> Result<usize> {
        let mut removed = 0;
        for kind in ArtifactKind::ALL {
            let path = self.path_for(digest, kind);
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(format!("removing {}: {e}", path.display()))),
            }
        }
        Ok(removed)
    }

    /// Lists the digests present on disk, with their artifact kinds and
    /// sizes. Listing parses file names only — it does not decode
    /// payloads (that is [`Store::gc`]'s job) — and silently skips
    /// foreign files.
    pub fn scan(&self) -> Result<Vec<StoreEntry>> {
        let mut by_digest: std::collections::BTreeMap<u64, StoreEntry> =
            std::collections::BTreeMap::new();
        let dir = fs::read_dir(&self.dir)
            .map_err(|e| io_err(format!("scanning store dir {}: {e}", self.dir.display())))?;
        for item in dir {
            let item = item.map_err(|e| io_err(format!("scanning store dir: {e}")))?;
            let Some((digest, kind)) = parse_file_name(&item.file_name()) else {
                continue;
            };
            let bytes = item.metadata().map(|m| m.len()).unwrap_or(0);
            let entry = by_digest.entry(digest).or_insert_with(|| StoreEntry {
                digest,
                kinds: Vec::new(),
                bytes: 0,
            });
            entry.kinds.push(kind);
            entry.bytes += bytes;
        }
        let mut entries: Vec<StoreEntry> = by_digest.into_values().collect();
        for e in &mut entries {
            e.kinds.sort();
        }
        Ok(entries)
    }

    /// Validates every artifact file end to end — the same decode and
    /// name checks as [`Store::get_body`] for a matrix file and as
    /// [`Store::get`] for the other kinds, so the same rule decides what
    /// a cold read accepts and what a sweep keeps — and deletes the ones
    /// that fail: the recovery path after a crash, disk corruption, or a
    /// file of an older format revision. A matrix is checked as its body,
    /// never made dense.
    pub fn gc(&self) -> Result<GcReport> {
        let mut report = GcReport::default();
        let dir = fs::read_dir(&self.dir)
            .map_err(|e| io_err(format!("scanning store dir {}: {e}", self.dir.display())))?;
        for item in dir {
            let item = item.map_err(|e| io_err(format!("scanning store dir: {e}")))?;
            let path = item.path();
            let name = item.file_name();
            // Leftover temp files are always garbage; foreign files are
            // left alone.
            let is_tmp = name.to_string_lossy().ends_with(".smma.tmp");
            let parsed = parse_file_name(&name);
            if parsed.is_none() && !is_tmp {
                continue;
            }
            let valid = parsed.is_some_and(|(digest, kind)| {
                let Ok(bytes) = fs::read(&path) else {
                    return false;
                };
                let stamp = match kind {
                    ArtifactKind::Matrix => artifact::decode_body(&bytes).map(|(s, _)| (s, kind)),
                    _ => artifact::decode(&bytes).map(|(s, a)| (s, a.kind())),
                };
                stamp.is_ok_and(|stamp| stamp == (digest, kind))
            });
            if valid {
                report.kept += 1;
            } else {
                let bytes = item.metadata().map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)
                    .map_err(|e| io_err(format!("removing {}: {e}", path.display())))?;
                report.removed += 1;
                report.reclaimed_bytes += bytes;
            }
        }
        Ok(report)
    }
}

/// Parses `<16 lowercase hex digits>.<kind>.smma` file names — exactly
/// what [`Store::path_for`] writes; anything else (uppercase digits, a
/// sign) is not ours, since no read would ever look for it.
fn parse_file_name(name: &std::ffi::OsStr) -> Option<(u64, ArtifactKind)> {
    let name = name.to_str()?;
    let mut parts = name.split('.');
    let digest_part = parts.next()?;
    let kind_part = parts.next()?;
    let ext = parts.next()?;
    if parts.next().is_some()
        || ext != "smma"
        || digest_part.len() != 16
        || !digest_part.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return None;
    }
    let digest = u64::from_str_radix(digest_part, 16).ok()?;
    let kind = ArtifactKind::from_ext(kind_part)?;
    Some((digest, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::matrix::IntMatrix;
    use smm_sparse::Csr;

    fn temp_store() -> Store {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smm-store-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        Store::open(dir).unwrap()
    }

    fn sample() -> IntMatrix {
        IntMatrix::from_vec(3, 2, vec![5, 0, -1, 2, 0, 7]).unwrap()
    }

    #[test]
    fn put_get_round_trip_and_scan() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m.clone())).unwrap();
        store.put(digest, &Artifact::Csr(Csr::from_dense(&m))).unwrap();
        assert!(store.contains(digest, ArtifactKind::Matrix));
        assert!(!store.contains(digest, ArtifactKind::Circuit));
        let got = store.get(digest, ArtifactKind::Matrix).unwrap().unwrap();
        assert_eq!(got, Artifact::Matrix(m));
        let entries = store.scan().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].digest, digest);
        assert_eq!(entries[0].kinds, vec![ArtifactKind::Matrix, ArtifactKind::Csr]);
        assert!(entries[0].bytes > 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_is_none_corrupt_is_err() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        assert!(store.get(digest, ArtifactKind::Matrix).unwrap().is_none());
        store.put(digest, &Artifact::Matrix(m)).unwrap();
        let path = store.path_for(digest, ArtifactKind::Matrix);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(digest, ArtifactKind::Matrix).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn evict_removes_all_kinds() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m.clone())).unwrap();
        store.put(digest, &Artifact::Csr(Csr::from_dense(&m))).unwrap();
        assert_eq!(store.evict(digest).unwrap(), 2);
        assert_eq!(store.evict(digest).unwrap(), 0);
        assert!(store.scan().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_keeps_valid_and_removes_corrupt() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m)).unwrap();
        // A truncated artifact under a valid name, a leftover temp
        // file, and a foreign file.
        fs::write(store.dir().join(format!("{:016x}.csr.smma", 99u64)), b"SM").unwrap();
        fs::write(store.dir().join("whatever.smma.tmp"), b"junk").unwrap();
        fs::write(store.dir().join("README.txt"), b"not ours").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 2);
        assert!(report.reclaimed_bytes > 0);
        assert!(store.dir().join("README.txt").is_file());
        assert!(store.contains(digest, ArtifactKind::Matrix));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn only_the_names_path_for_writes_are_artifacts() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m)).unwrap();
        // `from_str_radix` would read both of these as digests, but no
        // `get` ever opens them: they are foreign files.
        let valid = fs::read(store.path_for(digest, ArtifactKind::Matrix)).unwrap();
        let foreign = ["00000000000000AB.matrix.smma", "+00000000000000a.matrix.smma"];
        for name in foreign {
            fs::write(store.dir().join(name), &valid).unwrap();
        }
        let entries = store.scan().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].digest, digest);
        let report = store.gc().unwrap();
        assert_eq!((report.kept, report.removed), (1, 0));
        for name in foreign {
            assert!(store.dir().join(name).is_file(), "gc touched {name}");
        }
        // Every name `path_for` writes parses back to what it names.
        for d in [0, 0xab, digest, u64::MAX] {
            for kind in ArtifactKind::ALL {
                let path = store.path_for(d, kind);
                assert_eq!(parse_file_name(path.file_name().unwrap()), Some((d, kind)));
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn digest_mismatch_between_name_and_stamp_is_err() {
        let store = temp_store();
        let m = sample();
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m)).unwrap();
        let other = digest ^ 0xFF;
        fs::rename(
            store.path_for(digest, ArtifactKind::Matrix),
            store.path_for(other, ArtifactKind::Matrix),
        )
        .unwrap();
        assert!(store.get(other, ArtifactKind::Matrix).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}
