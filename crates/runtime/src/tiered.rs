//! The tiered matrix fleet: hot sessions, warm matrices, cold bytes.
//!
//! [`TieredRegistry`] replaces a flat `digest → Session` map with the
//! three-tier residency model of `smm-store` (see [`Tier`]):
//!
//! * **hot** — a live [`Session`] (plan + compiled engine; it owns no
//!   threads, so residency costs the engine's memory and nothing else);
//! * **warm** — the raw [`IntMatrix`] resident in memory, the engine
//!   rebuilt on demand through the shared multiplier cache;
//! * **cold** — artifact bytes in an attached [`Store`], verified on the
//!   way back in by the content digest they are filed under.
//!
//! Promotion happens on request ([`TieredRegistry::acquire`]): a warm
//! or cold digest is rebuilt into a session the moment traffic asks for
//! it, and the read from disk is counted as a *store hit*. Demotion
//! happens under pressure: when the hot tier exceeds its bound the
//! least-recently-used session is demoted to warm — its served-request
//! counters are retired into registry totals, so `Stats` stays monotone,
//! and its `Arc` is dropped: a free, with nothing to join — and when the
//! warm tier overflows entries spill to cold —
//! which requires an attached store; without one the registry reports
//! capacity instead, typed, so callers can tell pressure from failure.
//!
//! The demotion victim is the least-recently-used member of the tier:
//! every entry carries its own request count and the stamp of a logical
//! clock that `acquire` and `insert` advance under the fleet lock.

use crate::session::Session;
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use smm_telemetry::{get_mut_or_recover, lock_or_recover};
use smm_store::{Artifact, ArtifactKind, CircuitMeta, Store, Tier, TierCounts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity bounds of the in-memory tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredConfig {
    /// Hot sessions resident at once (minimum 1). Exceeding this
    /// demotes the LRU session to warm instead of refusing the load.
    pub max_hot: usize,
    /// Warm entries resident at once. Exceeding this spills the LRU
    /// warm entry to cold when a store is attached; without a store the
    /// registry reports capacity once hot + warm are both full.
    pub max_warm: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            max_hot: 64,
            max_warm: 256,
        }
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

#[derive(Default)]
struct Entry {
    session: Option<Arc<Session>>,
    /// Shared, so a promotion takes a handle under the fleet lock and
    /// copies the elements outside it.
    matrix: Option<Arc<IntMatrix>>,
    on_disk: bool,
    /// Lookups and installs that found this entry.
    requests: u64,
    /// [`Inner::clock`] at the last of them; 0 = never touched, which
    /// sorts before every touched entry when a tier picks its victim.
    last_used: u64,
}

impl Entry {
    /// Counts one request and stamps the entry most recently used.
    fn touch(&mut self, clock: &mut u64) {
        *clock += 1;
        self.requests += 1;
        self.last_used = *clock;
    }

    fn tier(&self) -> Tier {
        if self.session.is_some() {
            Tier::Hot
        } else if self.matrix.is_some() {
            Tier::Warm
        } else {
            Tier::Cold
        }
    }
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Logical LRU clock: one tick per touch, so stamps are unique.
    clock: u64,
    /// Batches/vectors served by sessions that have since been demoted
    /// — folded in so `Stats` totals never move backwards.
    retired_batches: u64,
    retired_vectors: u64,
}

impl Inner {
    /// Folds a departing session's served counters into the totals.
    fn retire(&mut self, session: &Session) {
        let (batches, vectors) = session.served();
        self.retired_batches += batches;
        self.retired_vectors += vectors;
    }
}

/// The tiered, digest-addressed session registry (see module docs).
pub struct TieredRegistry {
    config: TieredConfig,
    store: Option<Store>,
    inner: Mutex<Inner>,
    promotions: AtomicU64,
    demotions: AtomicU64,
    store_hits: AtomicU64,
}

impl TieredRegistry {
    /// An empty, memory-only registry (no cold tier).
    pub fn new(config: TieredConfig) -> Self {
        Self {
            config: TieredConfig {
                max_hot: config.max_hot.max(1),
                max_warm: config.max_warm,
            },
            store: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                retired_batches: 0,
                retired_vectors: 0,
            }),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
        }
    }

    /// A registry backed by `store`: every digest already on disk is
    /// registered cold, so a restarted server's fleet is immediately
    /// addressable (and promoted on first request, without recompiling
    /// what the store can answer).
    pub fn with_store(config: TieredConfig, store: Store) -> Result<Self> {
        let mut registry = Self::new(config);
        let entries = store.scan()?;
        {
            let inner = get_mut_or_recover(&mut registry.inner);
            for e in entries {
                if e.kinds.contains(&ArtifactKind::Matrix) {
                    let cold = Entry { on_disk: true, ..Entry::default() };
                    inner.entries.insert(e.digest, cold);
                }
            }
        }
        registry.store = Some(store);
        Ok(registry)
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The tier `digest` currently resides in, if known at all.
    pub fn tier_of(&self, digest: u64) -> Option<Tier> {
        let inner = lock_or_recover(&self.inner);
        inner.entries.get(&digest).map(Entry::tier)
    }

    /// Every known digest with its current tier and request count,
    /// sorted hottest-tier first.
    pub fn scan(&self) -> Vec<(u64, Tier, u64)> {
        let inner = lock_or_recover(&self.inner);
        let mut rows: Vec<(u64, Tier, u64)> = inner
            .entries
            .iter()
            .map(|(&d, e)| (d, e.tier(), e.requests))
            .collect();
        rows.sort_by_key(|&(d, tier, requests)| (tier, std::cmp::Reverse(requests), d));
        rows
    }

    /// Resident digests per tier.
    pub fn tier_counts(&self) -> TierCounts {
        let inner = lock_or_recover(&self.inner);
        let mut counts = TierCounts::default();
        for e in inner.entries.values() {
            match e.tier() {
                Tier::Hot => counts.hot += 1,
                Tier::Warm => counts.warm += 1,
                Tier::Cold => counts.cold += 1,
            }
        }
        counts
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

    /// Total batches and vectors (singles included) served across the
    /// fleet's lifetime: live hot sessions plus counters retired at
    /// demotion.
    pub fn served_totals(&self) -> (u64, u64) {
        let inner = lock_or_recover(&self.inner);
        let mut totals = (inner.retired_batches, inner.retired_vectors);
        for session in inner.entries.values().filter_map(|e| e.session.as_ref()) {
            let (batches, vectors) = session.served();
            totals.0 += batches;
            totals.1 += vectors;
        }
        totals
    }

    /// `Some(loaded)` when a *new* digest cannot be admitted: no store
    /// is attached and both in-memory tiers are at their bounds. With a
    /// store, pressure always demotes instead, so admission never fails.
    pub fn full_capacity(&self) -> Option<u64> {
        if self.store.is_some() {
            return None;
        }
        let inner = lock_or_recover(&self.inner);
        let loaded = inner.entries.len() as u64;
        (loaded >= (self.config.max_hot + self.config.max_warm) as u64).then_some(loaded)
    }

    /// Looks up `digest`, promoting it to hot if it is resident in any
    /// tier: a hot hit returns the live session; a warm entry is
    /// rebuilt through `build`; a cold entry is read from the store
    /// (counted as a store hit), then rebuilt. Returns `Ok(None)` when
    /// the digest is unknown — or when its cold bytes are corrupt, in
    /// which case a warning is logged, the entry is dropped, and the
    /// caller is free to rebuild from its own copy of the matrix.
    pub fn acquire(
        &self,
        digest: u64,
        build: impl FnOnce(IntMatrix) -> Result<Session>,
    ) -> Result<Option<Arc<Session>>> {
        let warm = {
            let mut inner = lock_or_recover(&self.inner);
            let inner = &mut *inner;
            // An unknown digest — they arrive straight off the wire —
            // leaves no trace: only an entry that exists is stamped.
            let Some(entry) = inner.entries.get_mut(&digest) else {
                return Ok(None);
            };
            entry.touch(&mut inner.clock);
            if let Some(session) = &entry.session {
                return Ok(Some(Arc::clone(session)));
            }
            entry.matrix.clone()
        };
        // Warm or cold: resolve the matrix bytes outside the lock (disk
        // reads, element copies and engine builds must not stall
        // hot-path lookups). `build` consumes a matrix, so it gets the
        // one copy; the entry keeps (warm) or receives (cold) the other.
        let matrix = match warm {
            Some(matrix) => matrix,
            None => match self.read_cold_matrix(digest) {
                Some(matrix) => Arc::new(matrix),
                None => return Ok(None),
            },
        };
        let session = build(IntMatrix::clone(&matrix))?;
        let mut inner = lock_or_recover(&self.inner);
        let Some(entry) = inner.entries.get_mut(&digest) else {
            // Evicted while this promotion was building: the request in
            // hand is served and the digest stays gone. (Re-creating the
            // entry here would bring it back memory-only, and a warm
            // entry that cannot spill stalls the tier's rebalance.)
            return Ok(Some(Arc::new(session)));
        };
        if let Some(existing) = &entry.session {
            // A racing promoter won; serve its session.
            return Ok(Some(Arc::clone(existing)));
        }
        let session = Arc::new(session);
        entry.session = Some(Arc::clone(&session));
        entry.matrix.get_or_insert(matrix);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.rebalance(&mut inner);
        Ok(Some(session))
    }

    /// Reads a cold digest's matrix artifact, counting the store hit.
    /// The store hands back only content that hashes to `digest` — one
    /// pass over the bytes, the only verification a promotion pays for.
    /// Corruption warns and forgets the entry instead of failing.
    fn read_cold_matrix(&self, digest: u64) -> Option<IntMatrix> {
        let store = self.store.as_ref()?;
        match store.get(digest, ArtifactKind::Matrix) {
            Ok(Some(Artifact::Matrix(matrix))) => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                Some(matrix)
            }
            Ok(_) => {
                // The file vanished (or holds the wrong payload kind);
                // the cold entry is stale either way.
                self.forget(digest);
                None
            }
            Err(e) => {
                self.forget(digest);
                warn(format_args!(
                    "cold artifact for digest {digest:#018x} failed to load \
                     ({e}); dropping the entry and serving without it"
                ));
                None
            }
        }
    }

    fn forget(&self, digest: u64) {
        lock_or_recover(&self.inner).entries.remove(&digest);
    }

    /// Installs a freshly built session for `digest`, persisting its
    /// artifacts to the attached store and demoting under pressure.
    /// First insert wins: if another loader raced this one, the
    /// existing session is returned and the new one is dropped.
    pub fn insert(
        &self,
        matrix: IntMatrix,
        session: Session,
        meta: Option<CircuitMeta>,
    ) -> InsertOutcome {
        let digest = matrix.digest();
        // Persist outside the lock: disk writes must not stall lookups.
        // A write failure degrades to memory-only residency (warned,
        // not fatal — serving beats persistence).
        let on_disk = self.persist(digest, &matrix, meta.as_ref());
        let mut inner = lock_or_recover(&self.inner);
        if let Some(entry) = inner.entries.get_mut(&digest) {
            if let Some(existing) = &entry.session {
                return InsertOutcome::AlreadyLoaded(Arc::clone(existing));
            }
        }
        if self.store.is_none()
            && inner.entries.len() >= self.config.max_hot + self.config.max_warm
            && !inner.entries.contains_key(&digest)
        {
            return InsertOutcome::Capacity {
                loaded: inner.entries.len() as u64,
            };
        }
        let inner = &mut *inner;
        let session = Arc::new(session);
        let entry = inner.entries.entry(digest).or_default();
        entry.touch(&mut inner.clock);
        entry.session = Some(Arc::clone(&session));
        entry.matrix = Some(Arc::new(matrix));
        entry.on_disk = entry.on_disk || on_disk;
        self.rebalance(inner);
        InsertOutcome::Installed(session)
    }

    /// Writes the artifacts a restart reads back for `digest`: the
    /// matrix, and the circuit metadata when the caller has one.
    fn persist(&self, digest: u64, matrix: &IntMatrix, meta: Option<&CircuitMeta>) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let artifacts = std::iter::once(Artifact::Matrix(matrix.clone()))
            .chain(meta.map(|meta| Artifact::Circuit(meta.clone())));
        for artifact in artifacts {
            if let Err(e) = store.put(digest, &artifact) {
                warn(format_args!(
                    "persisting {} artifact for digest {digest:#018x} failed ({e}); \
                     entry stays memory-only",
                    artifact.kind().ext()
                ));
                return false;
            }
        }
        true
    }

    /// Demotes `digest` one tier (hot→warm, warm→cold), returning its
    /// new tier. `None` when the digest is unknown or cannot move down
    /// (already cold, or warm with no store to spill to). The tier it
    /// lands in is held to its bound like after any install, so a full
    /// warm tier spills its LRU member — which may be `digest` itself,
    /// and then the tier returned is cold.
    pub fn demote(&self, digest: u64) -> Option<Tier> {
        let mut inner = lock_or_recover(&self.inner);
        self.demote_locked(&mut inner, digest)?;
        self.rebalance(&mut inner);
        inner.entries.get(&digest).map(Entry::tier)
    }

    /// Drops `digest` from every in-memory tier; with `from_disk`, its
    /// artifact files too. Returns whether anything was removed.
    pub fn evict(&self, digest: u64, from_disk: bool) -> bool {
        let removed = {
            let mut inner = lock_or_recover(&self.inner);
            let removed = inner.entries.remove(&digest);
            if let Some(session) = removed.as_ref().and_then(|e| e.session.as_ref()) {
                inner.retire(session);
            }
            removed.is_some()
        };
        if from_disk {
            if let Some(store) = &self.store {
                let _ = store.evict(digest);
            }
        }
        removed
    }

    fn demote_locked(&self, inner: &mut Inner, digest: u64) -> Option<Tier> {
        let entry = inner.entries.get_mut(&digest)?;
        match entry.tier() {
            Tier::Hot => {
                // Retire the session's counters before dropping it so
                // the fleet's served totals stay monotone across
                // demotion. The drop is a free: a session owns no
                // threads, so nothing is joined under the lock.
                if let Some(session) = entry.session.take() {
                    inner.retire(&session);
                }
                self.demotions.fetch_add(1, Ordering::Relaxed);
                Some(Tier::Warm)
            }
            Tier::Warm => {
                if !entry.on_disk {
                    // Nothing durable to fall back on; refuse rather
                    // than silently dropping a loaded matrix.
                    return None;
                }
                entry.matrix = None;
                self.demotions.fetch_add(1, Ordering::Relaxed);
                Some(Tier::Cold)
            }
            Tier::Cold => None,
        }
    }

    /// Enforces the tier bounds after an install, promotion or explicit
    /// demotion: LRU hot sessions demote to warm, LRU warm entries spill
    /// to cold.
    fn rebalance(&self, inner: &mut Inner) {
        for (tier, bound) in [(Tier::Hot, self.config.max_hot), (Tier::Warm, self.config.max_warm)] {
            loop {
                // One pass: the tier's occupancy and the coldest member
                // that can move down — a warm entry whose persist failed
                // cannot spill, and must not shield the ones behind it.
                let (mut count, mut coldest) = (0, None::<(u64, u64)>);
                for (&digest, e) in inner.entries.iter().filter(|(_, e)| e.tier() == tier) {
                    count += 1;
                    let movable = tier == Tier::Hot || e.on_disk;
                    if movable && coldest.is_none_or(|(_, stamp)| e.last_used < stamp) {
                        coldest = Some((digest, e.last_used));
                    }
                }
                // Within bound, or nothing can move (warm with no store:
                // admission control keeps that bounded instead).
                let Some((victim, _)) = coldest.filter(|_| count > bound) else {
                    break;
                };
                if self.demote_locked(inner, victim).is_none() {
                    break;
                }
            }
        }
    }
}

/// Builds the [`CircuitMeta`] artifact describing what a session
/// compiled for its matrix — the store's record of the engine choice.
pub fn circuit_meta_for(session: &Session, matrix: &IntMatrix) -> CircuitMeta {
    let plan = session.plan();
    CircuitMeta {
        engine: session.engine().name().to_string(),
        input_bits: plan.spec.input_bits,
        encoding: format!("{:?}", plan.spec.encoding),
        rows: matrix.rows() as u64,
        cols: matrix.cols() as u64,
        nnz: matrix.nnz() as u64,
        rationale: plan.rationale.clone(),
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
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn matrix(tag: i32) -> IntMatrix {
        IntMatrix::from_vec(2, 2, vec![tag, 0, -tag, tag + 1]).unwrap()
    }

    fn csr_session(m: IntMatrix) -> Session {
        Session::with_spec(m, EngineSpec::new("csr").threads(1)).unwrap()
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
        // b displaced a: a is warm, b hot; nothing was refused.
        assert_eq!(registry.tier_of(da), Some(Tier::Warm));
        assert_eq!(registry.tier_of(db), Some(Tier::Hot));
        assert_eq!(registry.snapshot().demotions, 1);
        // Asking for a promotes it back (rebuilding via the closure)
        // and demotes b.
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
        // The cold digest (LRU = first inserted) promotes back via the
        // store — a store hit, not a reload from the caller.
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
        let session = csr_session(described.clone());
        let meta = circuit_meta_for(&session, &described);
        registry.insert(described.clone(), session, Some(meta));
        let kinds = |m: &IntMatrix| {
            let entries = registry.store().unwrap().scan().unwrap();
            entries.into_iter().find(|e| e.digest == m.digest()).unwrap().kinds
        };
        assert_eq!(kinds(&bare), vec![ArtifactKind::Matrix]);
        assert_eq!(kinds(&described), vec![ArtifactKind::Matrix, ArtifactKind::Circuit]);
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
        // `gc` validates it like any artifact and keeps it; `evict`
        // takes it with the rest of the digest's files.
        let report = store.gc().unwrap();
        assert_eq!((report.kept, report.removed), (2, 0));
        assert!(store.contains(digest, ArtifactKind::Csr));
        assert!(registry.evict(digest, true));
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
        // Each fault is caught by the digest pass or the structure
        // around it — no CRC is consulted for a matrix.
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
        // b joins a full warm tier, and the tier's LRU member spills in
        // the same call — not at whatever install comes next.
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
        // b is the warm tier's LRU member and stays (memory-only, over
        // nothing); c, behind it and on disk, is the one that spills.
        let counts = registry.tier_counts();
        assert_eq!((counts.hot, counts.warm, counts.cold), (1, 1, 1), "{counts:?}");
        assert_eq!(registry.tier_of(b.digest()), Some(Tier::Warm));
        assert_eq!(registry.tier_of(c.digest()), Some(Tier::Cold));
        let back = registry.acquire(c.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
        assert_eq!(back.run(&[1, 0]).unwrap(), vec![5, 0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn served_totals_survive_demotion() {
        let registry = TieredRegistry::new(TieredConfig {
            max_hot: 1,
            max_warm: 4,
        });
        let m = matrix(2);
        let digest = m.digest();
        let outcome = registry.insert(m.clone(), csr_session(m), None);
        let InsertOutcome::Installed(session) = outcome else {
            panic!("insert must install");
        };
        session.run(&[4, 5]).unwrap();
        drop(session);
        assert_eq!(registry.served_totals().1, 1);
        registry.demote(digest);
        assert_eq!(registry.tier_of(digest), Some(Tier::Warm));
        // The single served before demotion is still counted.
        assert_eq!(registry.served_totals().1, 1);
    }

    #[test]
    fn unknown_digests_leave_no_trace_in_the_policy() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(4);
        let known = m.digest();
        registry.insert(m.clone(), csr_session(m), None);
        assert_eq!(registry.scan(), vec![(known, Tier::Hot, 1)]);
        // A peer sending frames with made-up digests: each is refused,
        // and none of them is remembered or moves the LRU clock.
        let clock = || lock_or_recover(&registry.inner).clock;
        let before = clock();
        for d in (0..1000u64).map(|i| 0xdead_0000 + i).filter(|&d| d != known) {
            assert!(registry.acquire(d, |_| panic!("unknown digest")).unwrap().is_none());
        }
        assert_eq!(clock(), before);
        assert_eq!(registry.scan(), vec![(known, Tier::Hot, 1)]);
        // A known digest still advances by exactly one per acquire.
        for n in 1..=3 {
            registry.acquire(known, |_| panic!("hot hit")).unwrap().unwrap();
            assert_eq!(registry.scan(), vec![(known, Tier::Hot, 1 + n)]);
        }
    }

    #[test]
    fn coldest_is_lru_not_lfu() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 2, max_warm: 8 });
        let (early, late, newcomer) = (matrix(1), matrix(5), matrix(9));
        registry.insert(early.clone(), csr_session(early.clone()), None);
        // `early` is asked for ten times, then `late` arrives and is
        // asked for once: more requests, but the older stamp.
        for _ in 0..10 {
            registry.acquire(early.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        }
        registry.insert(late.clone(), csr_session(late.clone()), None);
        registry.acquire(late.digest(), |_| panic!("hot hit")).unwrap().unwrap();
        registry.insert(newcomer.clone(), csr_session(newcomer), None);
        assert_eq!(registry.tier_of(early.digest()), Some(Tier::Warm));
        assert_eq!(registry.tier_of(late.digest()), Some(Tier::Hot));
        // Promoting `early` back makes `late` the stalest of three.
        registry.acquire(early.digest(), |m| Ok(csr_session(m))).unwrap().unwrap();
        assert_eq!(registry.tier_of(late.digest()), Some(Tier::Warm));
        let requests = |d| registry.scan().into_iter().find(|r| r.0 == d).unwrap().2;
        assert_eq!((requests(early.digest()), requests(late.digest())), (12, 2));
    }

    #[test]
    fn untouched_digests_are_coldest() {
        let registry = TieredRegistry::new(TieredConfig { max_hot: 3, max_warm: 8 });
        let members = [matrix(1), matrix(5), matrix(9)];
        for m in &members {
            registry.insert(m.clone(), csr_session(m.clone()), None);
        }
        // The newest member, as if no request had ever stamped it (a
        // digest registered from a store scan starts this way): stamp 0
        // sorts before the oldest real stamp.
        let newest = members[2].digest();
        lock_or_recover(&registry.inner).entries.get_mut(&newest).unwrap().last_used = 0;
        registry.insert(matrix(13), csr_session(matrix(13)), None);
        assert_eq!(registry.tier_of(newest), Some(Tier::Warm));
        assert_eq!(registry.tier_of(members[0].digest()), Some(Tier::Hot));
    }

    #[test]
    fn evict_then_reinsert_starts_from_zero_requests() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(21);
        let digest = m.digest();
        registry.insert(m.clone(), csr_session(m.clone()), None);
        for _ in 0..4 {
            registry.acquire(digest, |_| panic!("hot hit")).unwrap().unwrap();
        }
        assert_eq!(registry.scan(), vec![(digest, Tier::Hot, 5)]);
        assert!(registry.evict(digest, false));
        assert!(registry.scan().is_empty());
        // Nothing of the old entry is kept anywhere: the re-insert's own
        // touch is the only request on the books.
        registry.insert(m.clone(), csr_session(m), None);
        assert_eq!(registry.scan(), vec![(digest, Tier::Hot, 1)]);
    }

    #[test]
    fn a_promotion_that_loses_to_an_evict_does_not_bring_the_digest_back() {
        let registry = TieredRegistry::new(TieredConfig::default());
        let m = matrix(23);
        let digest = m.digest();
        registry.insert(m.clone(), csr_session(m), None);
        registry.demote(digest);
        // The evict lands between the lookup and the install (the build
        // runs outside the fleet lock, so it can be forced from there).
        let session = registry
            .acquire(digest, |loaded| {
                assert!(registry.evict(digest, false));
                Ok(csr_session(loaded))
            })
            .unwrap()
            .expect("the request in hand is still served");
        assert_eq!(session.run(&[1, 0]).unwrap(), vec![23, 0]);
        assert_eq!(registry.tier_of(digest), None);
        assert_eq!(registry.snapshot().promotions, 0);
    }

    /// Seeded stress of the one-map bookkeeping: four threads mix
    /// `acquire` / `insert` / `demote` / `evict` over twelve digests on a
    /// 2-hot / 3-warm store-backed registry. Each digest has one owner
    /// thread (the only one to insert or evict it, so the owner knows
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
                                registry.evict(digest, false);
                                owned_resident[k] = false;
                            }
                            7 => drop(registry.demote(digest)),
                            _ => {
                                if let Some(s) = registry.acquire(digest, |v| Ok(csr_session(v))).unwrap() {
                                    check(&m, &s);
                                }
                            }
                        }
                        // Every call that moves an entry rebalances
                        // before it unlocks, so both bounds hold at once.
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
        assert_eq!(registry.served_totals(), (1, 2));
    }
}
