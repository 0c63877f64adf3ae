//! The tiered matrix fleet: hot sessions, warm non-zeros, cold bytes.
//!
//! [`TieredRegistry`] replaces a flat `digest → Session` map with the
//! three-tier residency model of `smm-store` (see [`Tier`]):
//!
//! * **hot** — a live [`Session`] (plan + compiled engine; it owns no
//!   threads, so residency costs the engine's memory and nothing else);
//! * **warm** — the matrix's non-zeros, resident in memory as its wire
//!   body ([`MatrixBody`]: ~34 KB for a 256² matrix at 90 % sparsity with
//!   8-bit weights, where the dense matrix is 256 KB), the engine rebuilt
//!   from them on demand;
//! * **cold** — the same body in an attached [`Store`], byte for byte,
//!   verified on the way back in by the content digest, a hash of its
//!   bytes.
//!
//! A matrix at rest is one form from load to disk and back: the body a
//! `LoadMatrix` carried is what [`TieredRegistry::insert_body`] keeps warm
//! and files, and what a promotion ([`TieredRegistry::acquire_body`])
//! builds from — a `csr` engine straight from the non-zeros, any other
//! engine from the dense matrix decoded once. The `IntMatrix` forms,
//! [`TieredRegistry::acquire`] and [`TieredRegistry::insert`], are
//! adapters over that path.
//!
//! Which tier an entry is in, who is demoted under pressure, which miss
//! is worth a build and when a load is refused are decided by the pure
//! table in `tiers.rs` (`Tiers<Arc<Session>, Arc<MatrixBody>>`); this
//! module is the shell around it. Every call here takes the fleet lock,
//! asks the table for one transition, and does what the answer needs
//! *outside* the lock: the store read of a cold digest (counted as a
//! *store hit*), the engine build of a promotion, the one
//! `<digest>.matrix.smma` file a load writes.
//!
//! **Admission.** A build is worth paying only for a matrix the fleet
//! will reuse. [`TieredRegistry::acquire_single`], the path of one
//! product, builds a digest that is not hot only when the hot tier has
//! a free slot or the digest, this request counted, has been asked for
//! more often than the least used hot session, the one its promotion
//! would evict. Otherwise it hands back the body ([`Resident::Body`]) to
//! compute from ([`MatrixBody::vecmat_into`]), nothing built, and keeps
//! warm a body it had to read from disk. Loads
//! ([`TieredRegistry::insert_body`]) and batches
//! ([`TieredRegistry::acquire_body`]) always build: a load is hot by
//! definition, and a batch amortises the build over its frames.
//! A demoted session's `Arc` is simply dropped — a free, nothing to join.
//! Without a store nothing can go cold, and a load that finds both
//! in-memory tiers full is refused, typed: pressure, not failure.

use crate::session::Session;
use crate::tiers::{Installation, Lookup, Promotion, Tiers};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;
use smm_store::{ArtifactKind, CircuitMeta, Store, Tier, TierCounts};
use smm_telemetry::lock_or_recover;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Capacity bounds of the in-memory tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredConfig {
    /// Hot sessions resident at once (minimum 1). Exceeding this
    /// demotes the least used session, then the least recent, to warm
    /// instead of refusing the load.
    pub max_hot: usize,
    /// Warm entries resident at once. Exceeding this spills the least
    /// used warm entry, then the least recent, to cold when a store is
    /// attached; without a store the registry reports capacity once hot
    /// + warm are both full.
    pub max_warm: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self { max_hot: 64, max_warm: 256 }
    }
}

/// What [`TieredRegistry::insert`] did with a freshly built session.
pub enum InsertOutcome {
    /// The session was installed hot; the digest is newly resident.
    Installed(Arc<Session>),
    /// Another loader raced this one in; the existing session answers.
    AlreadyLoaded(Arc<Session>),
    /// No tier has room (no store attached and hot + warm are full).
    Capacity {
        /// Digests resident when the insert was refused.
        loaded: u64,
    },
}

/// What [`TieredRegistry::acquire_single`] serves one product from.
pub enum Resident {
    /// A live session: the digest was hot, or admitted and built.
    Session(Arc<Session>),
    /// The matrix's body, the digest not admitted: nothing was built.
    Body(Arc<MatrixBody>),
}

/// Point-in-time fleet state: occupancy and transition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Resident digests per tier.
    pub counts: TierCounts,
    /// Upward transitions served (warm→hot, cold→hot).
    pub promotions: u64,
    /// Downward transitions under pressure (hot→warm, warm→cold).
    pub demotions: u64,
    /// Loads answered from on-disk artifact bytes.
    pub store_hits: u64,
}

/// The tiered, digest-addressed session registry (see module docs).
pub struct TieredRegistry {
    /// A body is shared, so a promotion takes a handle under the lock
    /// and builds from it outside.
    tiers: Mutex<Tiers<Arc<Session>, Arc<MatrixBody>>>,
    store: Option<Store>,
    promotions: AtomicU64,
    demotions: AtomicU64,
    store_hits: AtomicU64,
}

impl TieredRegistry {
    /// An empty, memory-only registry (no cold tier).
    pub fn new(config: TieredConfig) -> Self {
        Self::over(config, None)
    }

    /// A registry backed by `store`: every digest already on disk is
    /// registered cold, so a restarted server's fleet is immediately
    /// addressable (and promoted on first request, without recompiling
    /// what the store can answer).
    pub fn with_store(config: TieredConfig, store: Store) -> Result<Self> {
        let on_disk = store.scan()?;
        let registry = Self::over(config, Some(store));
        for e in on_disk.iter().filter(|e| e.kinds.contains(&ArtifactKind::Matrix)) {
            registry.lock().register_cold(e.digest);
        }
        Ok(registry)
    }

    fn over(config: TieredConfig, store: Option<Store>) -> Self {
        Self {
            tiers: Mutex::new(Tiers::new(config.max_hot, config.max_warm, store.is_some())),
            store,
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tiers<Arc<Session>, Arc<MatrixBody>>> {
        lock_or_recover(&self.tiers)
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The tier `digest` currently resides in, if known at all.
    pub fn tier_of(&self, digest: u64) -> Option<Tier> {
        self.lock().tier_of(digest)
    }

    /// Resident digests per tier.
    pub(crate) fn tier_counts(&self) -> TierCounts {
        self.lock().counts()
    }

    /// Occupancy plus the promotion/demotion/store-hit counters.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            counts: self.tier_counts(),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
        }
    }

    /// `Some(loaded)` when a *new* digest cannot be admitted: no store
    /// is attached and both in-memory tiers are at their bounds. With a
    /// store, pressure always demotes instead, so admission never fails.
    pub fn full_capacity(&self) -> Option<u64> {
        self.lock().full()
    }

    /// Looks up `digest`, promoting it to hot if it is resident in any
    /// tier, whatever the admission verdict: a hot hit returns the live
    /// session; a warm entry is rebuilt through `build` from its body; a
    /// cold entry's body is read from the store (counted as a store hit),
    /// then rebuilt. Returns `Ok(None)` when the digest is unknown — or
    /// when its cold bytes are corrupt, in which case a warning is
    /// logged, the entry is dropped, and the caller is free to rebuild
    /// from its own copy of the matrix. Loads and batches take this path.
    pub fn acquire_body(
        &self,
        digest: u64,
        build: impl FnOnce(Arc<MatrixBody>) -> Result<Session>,
    ) -> Result<Option<Arc<Session>>> {
        let warm = match self.lock().lookup(digest) {
            Lookup::Hit(session) => return Ok(Some(session)),
            Lookup::Unknown => return Ok(None),
            Lookup::Miss { warm, .. } => warm,
        };
        // Warm or cold: resolve the body outside the lock (disk reads and
        // engine builds must not stall hot-path lookups).
        match warm.or_else(|| self.read_cold_body(digest)) {
            Some(body) => self.promote(digest, body, build).map(Some),
            None => Ok(None),
        }
    }

    /// [`TieredRegistry::acquire_body`] for one product: a digest the
    /// tier table does not admit (`tiers` module docs, "Admission") is
    /// answered with its body and nothing is built. A warm body is handed
    /// out as it is; a cold one is read from the store (a store hit) and
    /// kept warm, so its next request reads nothing. A hot or admitted
    /// digest is served by its session, as from `acquire_body`.
    pub fn acquire_single(
        &self,
        digest: u64,
        build: impl FnOnce(Arc<MatrixBody>) -> Result<Session>,
    ) -> Result<Option<Resident>> {
        let (warm, admitted) = match self.lock().lookup(digest) {
            Lookup::Hit(session) => return Ok(Some(Resident::Session(session))),
            Lookup::Unknown => return Ok(None),
            Lookup::Miss { warm, admitted } => (warm, admitted),
        };
        let cold = warm.is_none();
        let Some(body) = warm.or_else(|| self.read_cold_body(digest)) else {
            return Ok(None);
        };
        if admitted {
            return self.promote(digest, body, build).map(|s| Some(Resident::Session(s)));
        }
        if cold {
            let kept = self.lock().keep(digest, Arc::clone(&body));
            self.demotions.fetch_add(kept.unwrap_or(0), Ordering::Relaxed);
        }
        Ok(Some(Resident::Body(body)))
    }

    /// Builds the session for `digest` from `body` outside the lock and
    /// makes it hot; the build and the entry share the one body.
    fn promote(
        &self,
        digest: u64,
        body: Arc<MatrixBody>,
        build: impl FnOnce(Arc<MatrixBody>) -> Result<Session>,
    ) -> Result<Arc<Session>> {
        let session = Arc::new(build(Arc::clone(&body))?);
        let promoted = self.lock().promote(digest, Arc::clone(&session), body);
        Ok(match promoted {
            Promotion::Installed { demoted } => {
                self.promotions.fetch_add(1, Ordering::Relaxed);
                self.demotions.fetch_add(demoted, Ordering::Relaxed);
                session
            }
            Promotion::LostTo(existing) => existing,
            // Forgotten while this promotion was building: the request
            // in hand is served and the digest stays gone.
            Promotion::Gone => session,
        })
    }

    /// [`TieredRegistry::acquire_body`] for a builder that takes the
    /// dense matrix: the body is decoded for it.
    pub fn acquire(
        &self,
        digest: u64,
        build: impl FnOnce(IntMatrix) -> Result<Session>,
    ) -> Result<Option<Arc<Session>>> {
        self.acquire_body(digest, |body| build(body.to_matrix()?))
    }

    /// Reads a cold digest's body, counting the store hit. The store
    /// hands back only a body whose bytes hash to `digest` — one
    /// structural pass and one hash over them, the only verification a
    /// promotion pays for.
    /// Corruption warns and forgets the entry instead of failing.
    fn read_cold_body(&self, digest: u64) -> Option<Arc<MatrixBody>> {
        let read = self.store.as_ref()?.get_body(digest);
        if let Ok(Some(body)) = read {
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::new(body));
        }
        // Corrupt, vanished, or of another format revision: the cold
        // entry is stale either way. Forget first, then say why.
        self.lock().forget(digest);
        if let Err(e) = read {
            warn(format_args!(
                "cold artifact for digest {digest:#018x} failed to load \
                 ({e}); dropping the entry and serving without it"
            ));
        }
        None
    }

    /// Installs a freshly built session for the matrix `body` stands
    /// for, filing the body in the attached store as it is and demoting
    /// under pressure. First insert wins: if another loader raced this
    /// one, the existing session is returned and the new one is dropped.
    pub fn insert_body(&self, body: Arc<MatrixBody>, session: Session) -> InsertOutcome {
        let digest = body.digest();
        // Persist outside the lock: disk writes must not stall lookups.
        // A write failure degrades to memory-only residency (warned,
        // not fatal — serving beats persistence).
        let on_disk = self.persist(digest, &body);
        let session = Arc::new(session);
        let installed = self.lock().install(digest, Arc::clone(&session), body, on_disk);
        match installed {
            Installation::Installed { demoted } => {
                self.demotions.fetch_add(demoted, Ordering::Relaxed);
                InsertOutcome::Installed(session)
            }
            Installation::AlreadyHot(existing) => InsertOutcome::AlreadyLoaded(existing),
            Installation::Full { loaded } => InsertOutcome::Capacity { loaded },
        }
    }

    /// [`TieredRegistry::insert_body`] for a dense matrix: its body is
    /// encoded for it. `_meta` is accepted and ignored (nothing ever read
    /// the artifact it became).
    pub fn insert(
        &self,
        matrix: IntMatrix,
        session: Session,
        _meta: Option<CircuitMeta>,
    ) -> InsertOutcome {
        self.insert_body(Arc::new(MatrixBody::of(&matrix)), session)
    }

    /// Writes the one file a restart reads back for `digest`.
    fn persist(&self, digest: u64, body: &MatrixBody) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let written = store.put_body(digest, body);
        if let Err(e) = &written {
            warn(format_args!(
                "persisting matrix artifact for digest {digest:#018x} failed ({e}); \
                 entry stays memory-only"
            ));
        }
        written.is_ok()
    }

    /// Demotes `digest` one tier (hot→warm, warm→cold), returning its
    /// new tier. `None` when the digest is unknown or cannot move down
    /// (already cold, or warm with no store to spill to). The tier it
    /// lands in is held to its bound like after any install, so a full
    /// warm tier spills its least used member, then least recent —
    /// `digest` itself only when nothing else there can spill, and then
    /// the tier returned is cold.
    pub fn demote(&self, digest: u64) -> Option<Tier> {
        let (tier, moved) = self.lock().demote(digest)?;
        self.demotions.fetch_add(moved, Ordering::Relaxed);
        Some(tier)
    }
}

/// Writes one warning line to stderr and drops the write's error:
/// `eprintln!` panics when stderr is a closed pipe (`smm serve … 2>&1 |
/// head -1`), and a warning must not kill the thread that raised it.
fn warn(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr(), "smm-store: {line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineSpec;
    use smm_store::Artifact;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn matrix(tag: i32) -> IntMatrix {
        IntMatrix::from_vec(2, 2, vec![tag, 0, -tag, tag + 1]).unwrap()
    }

    fn csr_session(m: IntMatrix) -> Session {
        Session::builder(m)
            .spec(EngineSpec::new("csr").threads(1))
            .build()
            .unwrap()
    }

    fn temp_store() -> Store {
        static N: TestCounter = TestCounter::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smm-tiered-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        Store::open(dir).unwrap()
    }

    #[test]
    fn insert_acquire_round_trip() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(3);
        let digest = m.digest();
        let session = csr_session(m.clone());
        assert!(matches!(
            registry.insert(m, session, None),
            InsertOutcome::Installed(_)
        ));
        assert_eq!(registry.tier_of(digest), Some(Tier::Hot));
        let got = registry
            .acquire(digest, |_| panic!("hot hit must not rebuild"))
            .unwrap()
            .unwrap();
        assert_eq!(got.run(&[1, 2]).unwrap().len(), 2);
        assert!(registry.acquire(99, |_| panic!("unknown digest")).unwrap().is_none());
    }

    #[test]
    fn hot_pressure_demotes_lru_to_warm_and_back() {
        let registry = TieredRegistry::new(TieredConfig {
            max_hot: 1,
            max_warm: 8,
        });
        let (a, b) = (matrix(1), matrix(5));
        let (da, db) = (a.digest(), b.digest());
        registry.insert(a, csr_session(matrix(1)), None);
        registry.insert(b, csr_session(matrix(5)), None);
        // b displaced a (each used once, and a the less recently): a is
        // warm, b hot; nothing was refused.
        assert_eq!(registry.tier_of(da), Some(Tier::Warm));
        assert_eq!(registry.tier_of(db), Some(Tier::Hot));
        assert_eq!(registry.snapshot().demotions, 1);
        // Asking for a promotes it back (rebuilding via the closure)
        // and demotes b, now the less used.
        let built = TestCounter::new(0);
        let got = registry
            .acquire(da, |m| {
                built.fetch_add(1, Ordering::Relaxed);
                Ok(csr_session(m))
            })
            .unwrap()
            .unwrap();
        assert_eq!(built.load(Ordering::Relaxed), 1);
        assert_eq!(got.run(&[1, 1]).unwrap().len(), 2);
        assert_eq!(registry.tier_of(da), Some(Tier::Hot));
        assert_eq!(registry.tier_of(db), Some(Tier::Warm));
        let snap = registry.snapshot();
        assert_eq!(snap.promotions, 1);
        assert_eq!(snap.counts.hot, 1);
        assert_eq!(snap.counts.warm, 1);
    }

    #[test]
    fn without_store_capacity_is_typed_not_silent() {
        let registry = TieredRegistry::new(TieredConfig {
            max_hot: 1,
            max_warm: 1,
        });
        registry.insert(matrix(1), csr_session(matrix(1)), None);
        registry.insert(matrix(5), csr_session(matrix(5)), None);
        assert_eq!(registry.full_capacity(), Some(2));
        match registry.insert(matrix(9), csr_session(matrix(9)), None) {
            InsertOutcome::Capacity { loaded } => assert_eq!(loaded, 2),
            _ => panic!("third insert must report capacity"),
        }
        // A digest already resident is still served.
        assert!(registry
            .acquire(matrix(1).digest(), |m| Ok(csr_session(m)))
            .unwrap()
            .is_some());
    }

    #[test]
    fn with_store_pressure_spills_to_cold_and_reloads() {
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let registry = TieredRegistry::with_store(
            TieredConfig {
                max_hot: 1,
                max_warm: 1,
            },
            store,
        )
        .unwrap();
        let digests: Vec<u64> = (1..=3)
            .map(|t| {
                let m = matrix(t);
                let d = m.digest();
                registry.insert(m.clone(), csr_session(m), None);
                d
            })
            .collect();
        // Never full with a store attached; the overflow went cold.
        assert_eq!(registry.full_capacity(), None);
        let snap = registry.snapshot();
        assert_eq!(snap.counts.hot, 1);
        assert_eq!(snap.counts.warm, 1);
        assert_eq!(snap.counts.cold, 1);
        // The cold digest (each was used once, so the first inserted)
        // promotes back via the store — a store hit, not a reload from
        // the caller.
        assert_eq!(registry.tier_of(digests[0]), Some(Tier::Cold));
        let got = registry
            .acquire(digests[0], |m| Ok(csr_session(m)))
            .unwrap()
            .unwrap();
        assert_eq!(got.run(&[2, 3]).unwrap().len(), 2);
        assert!(registry.snapshot().store_hits >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn insert_persists_exactly_what_a_restart_reads() {
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let registry = TieredRegistry::with_store(TieredConfig::default(), store).unwrap();
        let (bare, described) = (matrix(13), matrix(17));
        registry.insert(bare.clone(), csr_session(bare.clone()), None);
        // A caller that still describes its engine is heard out and
        // writes nothing more: one file per load, the matrix.
        let meta = CircuitMeta {
            engine: "csr".into(),
            input_bits: 8,
            encoding: "Pn".into(),
            rows: 2,
            cols: 2,
            nnz: 3,
            rationale: String::new(),
        };
        registry.insert(described.clone(), csr_session(described.clone()), Some(meta));
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        files.sort();
        let store = registry.store().unwrap();
        let mut expect = [&bare, &described].map(|m| store.path_for(m.digest(), ArtifactKind::Matrix));
        expect.sort();
        assert_eq!(files, expect);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_csr_artifact_beside_the_matrix_is_tolerated() {
        // A directory written before loads stopped persisting a CSR.
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let m = matrix(19);
        let digest = m.digest();
        store.put(digest, &Artifact::Matrix(m.clone())).unwrap();
        let legacy = Artifact::Csr(smm_sparse::Csr::from_dense(&m));
        store.put(digest, &legacy).unwrap();
        let registry = TieredRegistry::with_store(TieredConfig::default(), store).unwrap();
        assert_eq!(registry.tier_of(digest), Some(Tier::Cold));
        let got = registry
            .acquire(digest, |loaded| Ok(csr_session(loaded)))
            .unwrap()
            .unwrap();
        assert_eq!(got.run(&[1, 0]).unwrap(), vec![19, 0]);
        let store = registry.store().unwrap();
        // `gc` validates it like any artifact and keeps it; the store's
        // own eviction takes it with the rest of the digest's files.
        let report = store.gc().unwrap();
        assert_eq!((report.kept, report.removed), (2, 0));
        assert!(store.contains(digest, ArtifactKind::Csr));
        assert_eq!(store.evict(digest).unwrap(), 2);
        assert!(store.scan().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restart_reloads_fleet_from_store() {
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let m = matrix(7);
        let digest = m.digest();
        {
            let registry =
                TieredRegistry::with_store(TieredConfig::default(), store).unwrap();
            registry.insert(m.clone(), csr_session(m.clone()), None);
        }
        // A fresh registry over the same directory sees the digest cold
        // and serves it from bytes alone.
        let registry = TieredRegistry::with_store(
            TieredConfig::default(),
            Store::open(&dir).unwrap(),
        )
        .unwrap();
        assert_eq!(registry.tier_of(digest), Some(Tier::Cold));
        let got = registry
            .acquire(digest, |loaded| {
                assert_eq!(loaded, m);
                Ok(csr_session(loaded))
            })
            .unwrap()
            .unwrap();
        assert_eq!(got.run(&[1, 0]).unwrap(), m.row(0).iter().map(|&v| v as i64).collect::<Vec<_>>());
        assert_eq!(registry.snapshot().store_hits, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_cold_entry_warns_and_degrades() {
        // Each fault is caught by the digest or the structure around
        // it — a matrix file has no CRC.
        type Fault = fn(&mut Vec<u8>);
        let faults: [(&str, Fault); 3] = [
            ("payload byte", |bytes| *bytes.last_mut().unwrap() ^= 0x80),
            ("stamped digest", |bytes| bytes[9] ^= 0x01),
            ("truncation", |bytes| bytes.truncate(bytes.len() - 3)),
        ];
        for (what, fault) in faults {
            let store = temp_store();
            let dir = store.dir().to_path_buf();
            let m = matrix(11);
            let digest = m.digest();
            {
                let registry =
                    TieredRegistry::with_store(TieredConfig::default(), store).unwrap();
                registry.insert(m.clone(), csr_session(m.clone()), None);
            }
            let store = Store::open(&dir).unwrap();
            let path = store.path_for(digest, ArtifactKind::Matrix);
            let mut bytes = std::fs::read(&path).unwrap();
            fault(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let registry = TieredRegistry::with_store(TieredConfig::default(), store).unwrap();
            assert_eq!(registry.tier_of(digest), Some(Tier::Cold), "{what}");
            // The acquire degrades to "unknown" — no panic, no Err, no
            // session built from whatever the bytes now say — and the
            // entry is forgotten, so the caller is free to rebuild from
            // its own bytes.
            let served = registry
                .acquire(digest, |_| panic!("{what}: a corrupt artifact reached the builder"))
                .unwrap();
            assert!(served.is_none(), "{what}");
            assert_eq!(registry.tier_of(digest), None, "{what}");
            assert_eq!(registry.snapshot().store_hits, 0, "{what}");
            match registry.insert(m.clone(), csr_session(m.clone()), None) {
                InsertOutcome::Installed(_) => {}
                _ => panic!("{what}: reinsert after corruption must install"),
            }
            // The reinsert rewrote good bytes.
            assert_eq!(
                Store::open(&dir).unwrap().get(digest, ArtifactKind::Matrix).unwrap(),
                Some(Artifact::Matrix(m)),
                "{what}"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn explicit_demote_holds_the_warm_bound() {
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let config = TieredConfig { max_hot: 1, max_warm: 1 };
        let registry = TieredRegistry::with_store(config, store).unwrap();
        let (a, b) = (matrix(1), matrix(5));
        registry.insert(a.clone(), csr_session(a.clone()), None);
        registry.insert(b.clone(), csr_session(b.clone()), None);
        assert_eq!(registry.tier_of(a.digest()), Some(Tier::Warm));
        // b joins a full warm tier, and the tier's other member spills
        // in the same call — not at whatever install comes next. (The
        // digest a demote moves is its new tier's last choice.)
        assert_eq!(registry.demote(b.digest()), Some(Tier::Warm));
        let counts = registry.tier_counts();
        assert_eq!((counts.hot, counts.warm, counts.cold), (0, 1, 1));
        assert_eq!(registry.tier_of(a.digest()), Some(Tier::Cold));
        let back = registry.acquire(a.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
        assert_eq!(back.run(&[1, 0]).unwrap(), vec![1, 0]);
        assert_eq!(registry.snapshot().store_hits, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_unspillable_warm_entry_does_not_stall_the_tier() {
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let config = TieredConfig { max_hot: 1, max_warm: 1 };
        let registry = TieredRegistry::with_store(config, store).unwrap();
        let [b, c, d] = [1, 5, 9].map(matrix);
        // b's persist fails (no directory to write into), so b can
        // never spill; the disk is back before c and d arrive.
        std::fs::remove_dir_all(&dir).unwrap();
        registry.insert(b.clone(), csr_session(b.clone()), None);
        std::fs::create_dir_all(&dir).unwrap();
        registry.insert(c.clone(), csr_session(c.clone()), None);
        registry.insert(d.clone(), csr_session(d.clone()), None);
        // b is the warm tier's first choice (as used as c, and older)
        // and stays (memory-only, over nothing); c, behind it and on
        // disk, is the one that spills.
        let counts = registry.tier_counts();
        assert_eq!((counts.hot, counts.warm, counts.cold), (1, 1, 1), "{counts:?}");
        assert_eq!(registry.tier_of(b.digest()), Some(Tier::Warm));
        assert_eq!(registry.tier_of(c.digest()), Some(Tier::Cold));
        let back = registry.acquire(c.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
        assert_eq!(back.run(&[1, 0]).unwrap(), vec![5, 0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_digests_leave_no_trace_in_the_policy() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(4);
        let known = m.digest();
        registry.insert(m.clone(), csr_session(m), None);
        // A peer sending frames with made-up digests: each is refused
        // and none of them is remembered. (That the recency clock does
        // not move either is pinned on the table itself, in `tiers.rs`.)
        for d in (0..1000u64).map(|i| 0xdead_0000 + i).filter(|&d| d != known) {
            assert!(registry.acquire(d, |_| panic!("unknown digest")).unwrap().is_none());
            assert_eq!(registry.tier_of(d), None);
        }
        let counts = registry.tier_counts();
        assert_eq!((counts.hot, counts.total()), (1, 1));
        registry.acquire(known, |_| panic!("hot hit")).unwrap().unwrap();
    }

    /// The victim is the least used hot session, and among equally
    /// used ones the least recent. Rebuilding an engine costs far more
    /// than serving from it, so the one asked for most stays built.
    #[test]
    fn coldest_is_least_used_then_least_recent() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 2, max_warm: 8 });
        let (early, late, newcomer) = (matrix(1), matrix(5), matrix(9));
        registry.insert(early.clone(), csr_session(early.clone()), None);
        // `early` is asked for ten times, then `late` arrives and is
        // asked for once: the more recent, but the less used.
        for _ in 0..10 {
            registry.acquire(early.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        registry.insert(late.clone(), csr_session(late.clone()), None);
        registry.acquire(late.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        registry.insert(newcomer.clone(), csr_session(newcomer.clone()), None);
        assert_eq!(registry.tier_of(early.digest()), Some(Tier::Hot));
        assert_eq!(registry.tier_of(late.digest()), Some(Tier::Warm));
        assert_eq!(registry.tier_of(newcomer.digest()), Some(Tier::Hot));
        // Equal counts fall back to recency: `late` and `newcomer` are
        // each loaded and asked for once, `late` first, and when a third
        // digest arrives `late` is the one that goes.
        let registry = TieredRegistry::new(TieredConfig { max_hot: 2, max_warm: 8 });
        for m in [&late, &newcomer] {
            registry.insert(m.clone(), csr_session(m.clone()), None);
            registry.acquire(m.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        registry.insert(early.clone(), csr_session(early.clone()), None);
        assert_eq!(registry.tier_of(late.digest()), Some(Tier::Warm));
        assert_eq!(registry.tier_of(newcomer.digest()), Some(Tier::Hot));
    }

    /// Counts age: a touch that finds its count at the top halves every
    /// count first. So a digest that was busy and went quiet does not
    /// hold its slot for ever: once another is busier it leaves hot
    /// within 2 × 256 requests (each of two rivals taking turns at the
    /// other slot counts once per two requests, and no count exceeds
    /// 255).
    #[test]
    fn a_quiet_digest_leaves_hot_once_another_is_busier() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 2, max_warm: 8 });
        let [stale, a, b] = [1, 5, 9].map(matrix);
        registry.insert(stale.clone(), csr_session(stale.clone()), None);
        for _ in 0..1000 {
            registry.acquire(stale.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        registry.insert(a.clone(), csr_session(a.clone()), None);
        registry.insert(b.clone(), csr_session(b.clone()), None);
        // `stale` is never asked for again; `a` and `b` take turns.
        let mut requests = 0;
        while registry.tier_of(stale.digest()) == Some(Tier::Hot) {
            let m = [&a, &b][requests % 2];
            registry.acquire(m.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
            requests += 1;
            assert!(requests <= 2 * 256, "a quiet digest held its slot past the bound");
        }
        assert_eq!(registry.tier_of(stale.digest()), Some(Tier::Warm));
    }

    /// A burst of one-off digests does not flush a busy one: each
    /// newcomer is used less than it, so the newcomers take turns at
    /// the other slot. (A least-recent rule loses it after two.)
    #[test]
    fn a_burst_of_one_off_digests_does_not_flush_a_busy_one() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 2, max_warm: 64 });
        let busy = matrix(1);
        registry.insert(busy.clone(), csr_session(busy.clone()), None);
        for _ in 0..10 {
            registry.acquire(busy.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        for m in (2..34).map(matrix) {
            registry.insert(m.clone(), csr_session(m.clone()), None);
            registry.acquire(m.digest(), |_| panic!("hot hit")).unwrap().unwrap();
            assert_eq!(registry.tier_of(busy.digest()), Some(Tier::Hot));
        }
        registry.acquire(busy.digest(), |_| panic!("the busy digest was rebuilt")).unwrap().unwrap();
        assert_eq!(registry.snapshot().promotions, 0);
    }

    /// A single builds a digest only once it is asked for more often
    /// than the hot one it would evict; until then its body answers and
    /// nothing is built. `acquire` builds whatever the verdict.
    #[test]
    fn a_single_builds_only_what_the_fleet_admits() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 1, max_warm: 8 });
        let (quiet, busy) = (matrix(2), matrix(8));
        registry.insert(quiet.clone(), csr_session(quiet.clone()), None);
        registry.insert(busy.clone(), csr_session(busy.clone()), None);
        for _ in 0..2 {
            registry.acquire(busy.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        // `busy` has 3 uses; `quiet`'s 2nd and 3rd are no more.
        for _ in 0..2 {
            let served = registry.acquire_single(quiet.digest(), |_| panic!("not admitted")).unwrap();
            let Some(Resident::Body(body)) = served else {
                panic!("a digest the fleet does not admit is served from its body");
            };
            let mut out = vec![0; 2];
            body.vecmat_into(&[1, 1], &mut out).unwrap();
            assert_eq!(out, smm_core::gemv::vecmat(&[1, 1], &quiet).unwrap());
            assert_eq!(registry.tier_of(quiet.digest()), Some(Tier::Warm));
        }
        assert_eq!(registry.snapshot().promotions, 0);
        // The 4th outranks `busy`: built, promoted, and `busy` demoted.
        let served = registry.acquire_single(quiet.digest(), |b| Ok(csr_session(b.to_matrix()?))).unwrap();
        assert!(matches!(served, Some(Resident::Session(_))));
        assert_eq!(registry.tier_of(quiet.digest()), Some(Tier::Hot));
        assert_eq!(registry.tier_of(busy.digest()), Some(Tier::Warm));
        // `acquire`, the batch path, builds `busy` back at its next use.
        registry.acquire(busy.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
        assert_eq!((registry.tier_of(busy.digest()), registry.snapshot().promotions), (Some(Tier::Hot), 2));
    }

    #[test]
    fn a_promotion_that_loses_to_a_forget_does_not_bring_the_digest_back() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(23);
        let digest = m.digest();
        registry.insert(m.clone(), csr_session(m), None);
        registry.demote(digest);
        // The forget (a racing request found the cold bytes corrupt)
        // lands between the lookup and the install: the build runs
        // outside the fleet lock, so it can be forced from there.
        let session = registry
            .acquire(digest, |loaded| {
                assert_eq!(registry.lock().forget(digest), Some(Tier::Warm));
                Ok(csr_session(loaded))
            })
            .unwrap()
            .expect("the request in hand is still served");
        assert_eq!(session.run(&[1, 0]).unwrap(), vec![23, 0]);
        assert_eq!(registry.tier_of(digest), None);
        assert_eq!(registry.snapshot().promotions, 0);
    }

    /// Seeded stress of the shell around the table: four threads mix
    /// `acquire` / `insert` / `demote` / forget (what a corrupt cold
    /// read does) over twelve digests on a 2-hot / 3-warm store-backed
    /// registry. Each digest has one owner
    /// thread (the only one to insert or forget it, so the owner knows
    /// whether it should be resident at the end); every thread acquires
    /// and demotes every digest.
    #[test]
    fn concurrent_acquire_insert_demote_evict_keep_the_books_straight() {
        use std::time::{Duration, Instant};
        const THREADS: usize = 4;
        const DIGESTS: usize = 12;
        const OPS: usize = 1500;
        const PROBE: [i32; 2] = [1, 2];
        // A session, however it was come by, computes its own matrix.
        fn check(m: &IntMatrix, session: &Session) {
            let expect = smm_core::gemv::vecmat(&PROBE, m).unwrap();
            assert_eq!(session.run(&PROBE).unwrap(), expect, "served by another matrix");
        }
        let store = temp_store();
        let dir = store.dir().to_path_buf();
        let config = TieredConfig { max_hot: 2, max_warm: 3 };
        let registry = Arc::new(TieredRegistry::with_store(config, store).unwrap());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // Plain threads, not a scope: a scope would wait for a hung one.
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (registry, done) = (Arc::clone(&registry), done_tx.clone());
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                    let mut owned_resident = [false; DIGESTS];
                    for _ in 0..OPS {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let (k, op) = ((rng >> 33) as usize % DIGESTS, (rng >> 20) % 8);
                        let (m, owned) = (matrix(3 * k as i32 + 1), k % THREADS == t);
                        let digest = m.digest();
                        match op {
                            5 if owned => match registry.insert(m.clone(), csr_session(m.clone()), None) {
                                InsertOutcome::Installed(s) | InsertOutcome::AlreadyLoaded(s) => {
                                    check(&m, &s);
                                    owned_resident[k] = true;
                                }
                                InsertOutcome::Capacity { .. } => panic!("a store-backed fleet is never full"),
                            },
                            // The files stay: deleting them under a cold
                            // read is the disk-fault path, tested above.
                            6 if owned => {
                                registry.lock().forget(digest);
                                owned_resident[k] = false;
                            }
                            7 => drop(registry.demote(digest)),
                            _ => {
                                if let Some(s) = registry.acquire(digest, |v| Ok(csr_session(v))).unwrap() {
                                    check(&m, &s);
                                }
                            }
                        }
                        // Every transition enforces both bounds before
                        // the lock is released, so both hold at once.
                        let counts = registry.tier_counts();
                        assert!(counts.hot <= 2 && counts.warm <= 3, "{counts:?}");
                    }
                    done.send(owned_resident.iter().filter(|&&r| r).count()).unwrap();
                })
            })
            .collect();
        // No call may hang: every thread reports within the deadline (a
        // panicked one drops its sender, so the wait ends early).
        drop(done_tx);
        let deadline = Instant::now() + Duration::from_secs(120);
        let resident: usize = (0..THREADS)
            .map(|_| {
                let left = deadline.saturating_duration_since(Instant::now());
                done_rx.recv_timeout(left).expect("a stress thread hung or panicked")
            })
            .sum();
        for thread in threads {
            thread.join().unwrap();
        }
        // Quiescent: the books add up with no further call to settle them.
        let counts = registry.tier_counts();
        assert!(counts.hot <= 2 && counts.warm <= 3, "{counts:?}");
        assert_eq!(counts.total(), resident as u64, "{counts:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn demotion_frees_the_engine_with_nothing_to_join() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(6);
        let digest = m.digest();
        let InsertOutcome::Installed(session) = registry.insert(m.clone(), csr_session(m), None)
        else {
            panic!("insert must install");
        };
        // A batch, so the shared workers have held the engine too.
        let mut out = smm_core::block::RowBlock::new();
        let frames = smm_core::block::FrameBlock::from_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        session.run_block(frames, &mut out).unwrap();
        let engine = Arc::downgrade(session.engine());
        drop(session);
        assert!(engine.upgrade().is_some(), "the hot tier holds the session");
        assert_eq!(registry.demote(digest), Some(Tier::Warm));
        // No pool to shut down, no thread still holding a clone: the
        // registry's `Arc` was the last one.
        assert!(engine.upgrade().is_none(), "demotion must free the engine");
    }
}
