//! The tier table: every residency decision of the fleet, as data.
//!
//! [`Tiers`] maps a digest to what is resident for it — a hot payload
//! `H` (the live engine), a warm payload `W` (the matrix's non-zeros),
//! whether
//! its bytes are on disk — plus an LRU stamp, under two bounds. It is
//! generic over both payloads and touches nothing outside itself: no
//! lock, no disk, no clock but its own counter. The registry in
//! [`crate::tiered`] takes its lock, calls one transition, and does the
//! reads, writes and engine builds the answer asks for outside it.
//!
//! The transitions are the ones production takes, one call each, so
//! their interleavings can be enumerated: `lookup` then (outside the
//! lock) a build then `promote`; `install`; `demote`; `forget`;
//! `register_cold`. Each leaves both bounds enforced before it returns
//! and reports the downward moves that took: the LRU hot entry gives up
//! `H`, the LRU warm entry *whose bytes are on disk* gives up `W`. The
//! tests below walk every reachable state of a three-digest fleet.

use smm_store::{Tier, TierCounts};
use std::collections::HashMap;

/// What is resident for one digest.
struct Entry<H, W> {
    hot: Option<H>,
    /// Kept while hot too, so a demotion is a drop, not a copy.
    warm: Option<W>,
    on_disk: bool,
    /// [`Tiers::clock`] at the last lookup or install; 0 = never, which
    /// sorts before every touched entry when a tier picks its victim.
    last_used: u64,
}

impl<H, W> Entry<H, W> {
    /// Nothing resident, never used.
    const COLD: Self = Self { hot: None, warm: None, on_disk: false, last_used: 0 };

    fn tier(&self) -> Tier {
        match (&self.hot, &self.warm) {
            (Some(_), _) => Tier::Hot,
            (None, Some(_)) => Tier::Warm,
            (None, None) => Tier::Cold,
        }
    }
}

/// [`Tiers::lookup`]: a hit, a promotion to run, or nothing.
pub(crate) enum Lookup<H, W> {
    /// The digest is hot; this is its payload.
    Hit(H),
    /// Known but not hot: build from `warm`, or from disk when it is
    /// `None`, then [`Tiers::promote`].
    Build { warm: Option<W> },
    /// Not in the table (and not remembered: unknown digests arrive
    /// straight off the wire).
    Unknown,
}

/// [`Tiers::promote`]: what became of a payload built outside the lock.
pub(crate) enum Promotion<H> {
    /// Installed hot; making room took `demoted` downward moves.
    Installed { demoted: u64 },
    /// A racing promotion or install won; its payload answers.
    LostTo(H),
    /// Forgotten meanwhile, and it stays gone: re-created here it would
    /// come back with nothing on disk behind it.
    Gone,
}

/// [`Tiers::install`]: what became of a freshly loaded digest.
pub(crate) enum Installation<H> {
    /// Installed hot; making room took `demoted` downward moves.
    Installed { demoted: u64 },
    /// Already hot; the resident payload answers.
    AlreadyHot(H),
    /// A new digest, no cold tier, both bounds reached, `loaded` resident.
    Full { loaded: u64 },
}

/// The table (see the module docs).
pub(crate) struct Tiers<H, W> {
    entries: HashMap<u64, Entry<H, W>>,
    /// Logical LRU clock: one tick per touch, so stamps are unique.
    clock: u64,
    max_hot: usize,
    max_warm: usize,
    /// Whether entries can go cold at all (a disk is attached); without
    /// it [`Tiers::full`] is what keeps memory bounded.
    has_cold: bool,
}

impl<H: Clone, W: Clone> Tiers<H, W> {
    /// An empty table; a hot bound of 0 is raised to 1.
    pub(crate) fn new(max_hot: usize, max_warm: usize, has_cold: bool) -> Self {
        Self { entries: HashMap::new(), clock: 0, max_hot: max_hot.max(1), max_warm, has_cold }
    }

    /// Finds `digest`, stamping it most recently used if it is known.
    pub(crate) fn lookup(&mut self, digest: u64) -> Lookup<H, W> {
        let Some(entry) = self.entries.get_mut(&digest) else {
            return Lookup::Unknown;
        };
        self.clock += 1;
        entry.last_used = self.clock;
        match &entry.hot {
            Some(hot) => Lookup::Hit(hot.clone()),
            None => Lookup::Build { warm: entry.warm.clone() },
        }
    }

    /// Makes `digest` hot with the payload a [`Lookup::Build`] led to;
    /// `warm` fills the entry's warm slot if it was read from disk.
    pub(crate) fn promote(&mut self, digest: u64, hot: H, warm: W) -> Promotion<H> {
        let Some(entry) = self.entries.get_mut(&digest) else {
            return Promotion::Gone;
        };
        if let Some(existing) = &entry.hot {
            return Promotion::LostTo(existing.clone());
        }
        entry.hot = Some(hot);
        entry.warm.get_or_insert(warm);
        Promotion::Installed { demoted: self.enforce() }
    }

    /// Makes a freshly loaded `digest` hot. First install wins; a new
    /// digest is refused when [`Tiers::full`].
    pub(crate) fn install(&mut self, digest: u64, hot: H, warm: W, on_disk: bool) -> Installation<H> {
        match (self.entries.get(&digest), self.full()) {
            (Some(Entry { hot: Some(existing), .. }), _) => {
                return Installation::AlreadyHot(existing.clone());
            }
            (None, Some(loaded)) => return Installation::Full { loaded },
            _ => {}
        }
        self.clock += 1;
        let entry = self.entries.entry(digest).or_insert(Entry::COLD);
        entry.hot = Some(hot);
        entry.warm = Some(warm);
        // Bytes once written stay written, whatever this persist did.
        entry.on_disk |= on_disk;
        entry.last_used = self.clock;
        Installation::Installed { demoted: self.enforce() }
    }

    /// Moves `digest` one tier down, then holds the tier it lands in to
    /// its bound — which may move it again. Returns its new tier and
    /// the downward moves made; `None` when it is unknown or cannot
    /// move (cold already, or warm with nothing on disk behind it).
    pub(crate) fn demote(&mut self, digest: u64) -> Option<(Tier, u64)> {
        self.step_down(digest)?;
        let moved = 1 + self.enforce();
        Some((self.tier_of(digest)?, moved))
    }

    /// Drops `digest` from the table (its cold bytes turned out stale
    /// or corrupt), returning the tier it was in.
    pub(crate) fn forget(&mut self, digest: u64) -> Option<Tier> {
        self.entries.remove(&digest).map(|e| e.tier())
    }

    /// Records that `digest`'s bytes are on disk (found there at boot).
    pub(crate) fn register_cold(&mut self, digest: u64) {
        self.entries.entry(digest).or_insert(Entry::COLD).on_disk = true;
    }

    /// The tier `digest` is in, if it is known at all.
    pub(crate) fn tier_of(&self, digest: u64) -> Option<Tier> {
        self.entries.get(&digest).map(Entry::tier)
    }

    /// Resident digests per tier.
    pub(crate) fn counts(&self) -> TierCounts {
        let mut counts = TierCounts::default();
        for e in self.entries.values() {
            match e.tier() {
                Tier::Hot => counts.hot += 1,
                Tier::Warm => counts.warm += 1,
                Tier::Cold => counts.cold += 1,
            }
        }
        counts
    }

    /// `Some(loaded)` when a *new* digest cannot be admitted: there is
    /// no cold tier and both in-memory tiers are at their bounds. With
    /// one, pressure always demotes instead.
    pub(crate) fn full(&self) -> Option<u64> {
        let full = !self.has_cold && self.entries.len() >= self.max_hot + self.max_warm;
        full.then_some(self.entries.len() as u64)
    }

    /// One tier down for `digest`: hot drops `H`, warm drops `W` if its
    /// bytes are on disk (refused otherwise, rather than silently
    /// losing a loaded matrix).
    fn step_down(&mut self, digest: u64) -> Option<()> {
        let entry = self.entries.get_mut(&digest)?;
        match entry.tier() {
            Tier::Hot => entry.hot = None,
            Tier::Warm if entry.on_disk => entry.warm = None,
            Tier::Warm | Tier::Cold => return None,
        }
        Some(())
    }

    /// Holds both tiers to their bounds, hot first (what hot gives up
    /// lands in warm); returns the downward moves made.
    fn enforce(&mut self) -> u64 {
        let mut moved = 0;
        for (tier, bound) in [(Tier::Hot, self.max_hot), (Tier::Warm, self.max_warm)] {
            loop {
                // One pass: the tier's occupancy and its coldest member
                // that can move down — a warm entry with nothing on disk
                // cannot, and must not shield the ones behind it.
                let (mut count, mut coldest) = (0, None::<(u64, u64)>);
                for (&digest, e) in self.entries.iter().filter(|(_, e)| e.tier() == tier) {
                    count += 1;
                    let movable = tier == Tier::Hot || e.on_disk;
                    if movable && coldest.is_none_or(|(_, stamp)| e.last_used < stamp) {
                        coldest = Some((digest, e.last_used));
                    }
                }
                // Within bound, or nothing can move (warm over its bound
                // with no disk: admission keeps that bounded instead).
                let Some((victim, _)) = coldest.filter(|_| count > bound) else {
                    break;
                };
                if self.step_down(victim).is_none() {
                    break;
                }
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};

    type Table = Tiers<(), ()>;
    /// One entry with its LRU stamp replaced by its rank (0 = never
    /// used): `(digest, hot, warm payload held, on_disk, rank)`.
    type Row = (u64, bool, bool, bool, u64);
    /// The table's rows plus, per digest, the promotions in flight: a
    /// `lookup` answered `Build` and its `promote` has yet to land.
    type State = (Vec<Row>, [u8; 3]);

    const DIGESTS: [u64; 3] = [0, 1, 2];

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Lookup(u64),
        Promote(u64),
        Install(u64, bool),
        Demote(u64),
        Forget(u64),
        RegisterCold(u64),
    }

    /// Stamps matter only by their order, so ranking them makes the
    /// state space finite and the walk end by itself.
    fn rows(table: &Table) -> Vec<Row> {
        // Touched stamps are unique, so a rank is a count of them.
        let stamps: Vec<u64> = table.entries.values().map(|e| e.last_used).collect();
        let rank = |stamp| stamps.iter().filter(|&&t| t != 0 && t <= stamp).count() as u64;
        let mut rows: Vec<Row> = table
            .entries
            .iter()
            .map(|(&d, e)| (d, e.hot.is_some(), e.warm.is_some(), e.on_disk, rank(e.last_used)))
            .collect();
        rows.sort_unstable();
        rows
    }

    fn table(rows: &[Row], has_cold: bool) -> Table {
        let mut table = Table::new(1, 1, has_cold);
        for &(d, hot, warm, on_disk, rank) in rows {
            let entry = Entry { hot: hot.then_some(()), warm: warm.then_some(()), on_disk, last_used: rank };
            table.entries.insert(d, entry);
            table.clock = table.clock.max(rank);
        }
        table
    }

    fn tier(rows: &[Row], d: u64) -> Option<Tier> {
        let &(_, hot, warm, ..) = rows.iter().find(|r| r.0 == d)?;
        Some(if hot { Tier::Hot } else if warm { Tier::Warm } else { Tier::Cold })
    }

    fn count(rows: &[Row], t: Tier) -> usize {
        rows.iter().filter(|r| tier(rows, r.0) == Some(t)).count()
    }

    /// Payloads held: one `H` per hot row, one `W` per row with one.
    fn payloads(rows: &[Row]) -> usize {
        rows.iter().map(|r| usize::from(r.1) + usize::from(r.2)).sum()
    }

    /// Applies `event` to `before`, checks everything that must hold of
    /// one transition, and returns the states it can lead to.
    fn step(before: &State, event: Event, has_cold: bool) -> Vec<State> {
        let (b, building) = before;
        let mut t = table(b, has_cold);
        let mut building = *building;
        let was = |d| tier(b, d);
        // Payloads handed in, payloads the event says it let go of, and
        // the digest an explicit `demote` moved (pressure did not pick it).
        let (mut handed, mut released, mut stepped) = (0, 0, None);
        let mut fork = None;
        match event {
            Event::Lookup(d) => match t.lookup(d) {
                Lookup::Hit(()) => assert_eq!(was(d), Some(Tier::Hot)),
                Lookup::Unknown => assert_eq!((was(d), rows(&t)), (None, b.clone())),
                Lookup::Build { warm } => {
                    assert_eq!(was(d), Some(if warm.is_some() { Tier::Warm } else { Tier::Cold }));
                    // The build may fail (no promote follows) or go on.
                    if building[d as usize] < 2 {
                        fork = Some(d);
                    }
                }
            },
            Event::Promote(d) => {
                building[d as usize] -= 1;
                match t.promote(d, (), ()) {
                    // PR 19's race: forgotten since the lookup, and it
                    // stays forgotten.
                    Promotion::Gone => assert_eq!((was(d), rows(&t)), (None, b.clone())),
                    Promotion::LostTo(()) => assert_eq!((was(d), rows(&t)), (Some(Tier::Hot), b.clone())),
                    Promotion::Installed { demoted } => {
                        assert!(matches!(was(d), Some(Tier::Warm | Tier::Cold)), "{before:?}");
                        handed = 1 + usize::from(was(d) == Some(Tier::Cold));
                        released = demoted;
                    }
                }
            }
            Event::Install(d, on_disk) => match t.install(d, (), (), on_disk) {
                Installation::AlreadyHot(()) => assert_eq!((was(d), rows(&t)), (Some(Tier::Hot), b.clone())),
                Installation::Full { loaded } => {
                    assert!(!has_cold && was(d).is_none() && b.len() >= 2, "{before:?}");
                    assert_eq!((loaded as usize, rows(&t)), (b.len(), b.clone()));
                }
                Installation::Installed { demoted } => {
                    assert!(has_cold || was(d).is_some() || b.len() < 2, "{before:?}");
                    assert_eq!(t.tier_of(d), Some(Tier::Hot), "the newest stamp is no victim");
                    handed = 2;
                    // The warm payload it replaced, if there was one.
                    released = demoted + u64::from(was(d) == Some(Tier::Warm));
                }
            },
            Event::Demote(d) => match t.demote(d) {
                None => {
                    let stuck = b.iter().any(|r| r.0 == d && !r.3) && was(d) == Some(Tier::Warm);
                    assert!(stuck || matches!(was(d), None | Some(Tier::Cold)), "{before:?}");
                    assert_eq!(rows(&t), b.clone());
                }
                Some((now, moved)) => {
                    assert_eq!((t.tier_of(d), was(d) < Some(now)), (Some(now), true));
                    (released, stepped) = (moved, Some(d));
                }
            },
            Event::Forget(d) => {
                assert_eq!(t.forget(d), was(d));
                released = b.iter().filter(|r| r.0 == d).map(|r| u64::from(r.1) + u64::from(r.2)).sum();
            }
            Event::RegisterCold(d) => t.register_cold(d),
        }
        let a = rows(&t);
        let context = || format!("{event:?}: {before:?} -> {a:?}");
        // The bounds, as strict invariants.
        assert!(count(&a, Tier::Hot) <= 1, "{}", context());
        let spillable = a.iter().any(|r| tier(&a, r.0) == Some(Tier::Warm) && r.3);
        assert!(count(&a, Tier::Warm) <= 1 || !spillable, "{}", context());
        assert!(has_cold || a.len() <= 2, "{}", context());
        // No entry that can neither serve nor be read back; hot keeps `W`.
        assert!(a.iter().all(|&(_, hot, warm, on_disk, _)| warm || on_disk && !hot), "{}", context());
        // The books: what was handed in is resident or was let go of.
        assert_eq!(payloads(b) + handed, payloads(&a) + released as usize, "{}", context());
        // Pressure picks the least recently used: whoever it pushed out
        // of a tier is older than whoever (movable) it left there.
        for (t, movable) in [(Tier::Hot, false), (Tier::Warm, true)] {
            let pushed = a.iter().filter(|r| {
                let before = if matches!(event, Event::Install(d, _) | Event::Promote(d) if d == r.0) {
                    Some(Tier::Hot)
                } else {
                    was(r.0)
                };
                before.is_some_and(|tier| tier <= t) && tier(&a, r.0) > Some(t)
                    && !(stepped == Some(r.0) && before == Some(t))
            });
            for out in pushed {
                let left = a.iter().filter(|r| tier(&a, r.0) == Some(t) && (r.3 || !movable));
                assert!(left.clone().all(|stays| out.4 < stays.4), "{}", context());
            }
        }
        let mut next = vec![(a.clone(), building)];
        if let Some(d) = fork {
            building[d as usize] += 1;
            next.push((a, building));
        }
        next
    }

    /// Breadth-first over every state reachable from the empty table.
    fn walk(has_cold: bool, persists: &[bool]) -> BTreeSet<State> {
        let mut seen = BTreeSet::from([(Vec::new(), [0u8; 3])]);
        let mut queue: VecDeque<State> = seen.iter().cloned().collect();
        while let Some(state) = queue.pop_front() {
            for d in DIGESTS {
                let mut events = vec![Event::Lookup(d), Event::Demote(d), Event::Forget(d)];
                events.extend(persists.iter().map(|&on_disk| Event::Install(d, on_disk)));
                events.extend((state.1[d as usize] > 0).then_some(Event::Promote(d)));
                // The boot listing runs before the registry is shared.
                let booting = has_cold && state.0.iter().all(|r| r.4 == 0) && state.1 == [0; 3];
                events.extend(booting.then_some(Event::RegisterCold(d)));
                for event in events {
                    for next in step(&state, event, has_cold) {
                        if seen.insert(next.clone()) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn every_reachable_state_of_a_three_digest_fleet_keeps_the_invariants() {
        // A store and every persist lands; no store; a store whose
        // persists sometimes fail.
        let with_store = walk(true, &[true]);
        let memory_only = walk(false, &[false]);
        let flaky_store = walk(true, &[true, false]);
        println!("{} / {} / {} states", with_store.len(), memory_only.len(), flaky_store.len());
        // The walks reached the corners the invariants are about: all
        // three tiers occupied at once; warm over its bound with no disk
        // to spill to; and an unspillable warm entry beside a spilled one.
        let reached = |states: &BTreeSet<State>, hot, warm, cold| {
            states.iter().any(|(rows, _)| {
                (count(rows, Tier::Hot), count(rows, Tier::Warm), count(rows, Tier::Cold)) == (hot, warm, cold)
            })
        };
        assert!(reached(&with_store, 1, 1, 1) && !reached(&with_store, 0, 2, 0));
        assert!(reached(&memory_only, 0, 2, 0) && !reached(&memory_only, 0, 0, 1));
        assert!(reached(&flaky_store, 1, 2, 0) && reached(&flaky_store, 0, 3, 0));
        assert!(with_store.is_subset(&flaky_store));
    }

    /// The bugs PRs 19, 21 and 22 left as found, each as the sequence
    /// that shows it (the walk above meets all of them on its own).
    #[test]
    fn the_bugs_left_as_found_replay_as_event_sequences() {
        use Tier::{Cold, Hot, Warm};
        let tiers = |t: &Table| DIGESTS.map(|d| t.tier_of(d));
        // PR 19: a promotion that loses to a forget finds the digest
        // gone and leaves it gone.
        let mut t = Table::new(1, 1, true);
        t.install(0, (), (), true);
        t.demote(0);
        assert!(matches!(t.lookup(0), Lookup::Build { warm: Some(()) }));
        assert_eq!(t.forget(0), Some(Warm));
        assert!(matches!(t.promote(0, (), ()), Promotion::Gone));
        assert_eq!(tiers(&t), [None; 3]);
        // Of two promotions of one digest, one installs and one loses.
        t.install(0, (), (), true);
        t.demote(0);
        t.lookup(0);
        t.lookup(0);
        assert!(matches!(t.promote(0, (), ()), Promotion::Installed { demoted: 0 }));
        assert!(matches!(t.promote(0, (), ()), Promotion::LostTo(())));
        // PR 21: an explicit demote into a full warm tier spills that
        // tier's LRU member in the same call.
        t.install(1, (), (), true);
        assert_eq!(tiers(&t), [Some(Warm), Some(Hot), None]);
        assert_eq!(t.demote(1), Some((Warm, 2)));
        assert_eq!(tiers(&t), [Some(Cold), Some(Warm), None]);
        // PR 22: a warm entry whose persist failed cannot spill, and
        // does not shield the younger one behind it.
        let mut t = Table::new(1, 1, true);
        t.install(0, (), (), false);
        t.install(1, (), (), true);
        t.install(2, (), (), true);
        assert_eq!(tiers(&t), [Some(Warm), Some(Cold), Some(Hot)]);
        // An unknown digest is not remembered and moves no clock.
        let clock = t.clock;
        assert!(matches!(t.lookup(9), Lookup::Unknown));
        assert_eq!((t.clock, t.entries.len()), (clock, 3));
    }
}
