//! The canonicalized, versioned result cache.
//!
//! Keys are [`CacheKey`]s — already-normalized queries — paired with the
//! snapshot version that computed the result, so a hot-swap invalidates
//! every cached answer *logically* (new version, new key space) without a
//! stop-the-world flush; stale generations simply age out of the LRU.
//! The map is sharded by the key's run-stable hash so concurrent workers
//! rarely contend on the same lock, and each shard runs its own LRU
//! bounded at `capacity / shards` entries.  Eviction is generation-aware:
//! when an insert under snapshot version `v` needs a victim, entries from
//! generations older than `v` (superseded — unreachable to any future
//! lookup at `v`) are evicted first, in LRU order among themselves; only
//! a shard holding nothing stale falls back to plain LRU.  Each shard
//! keeps one intrusive LRU list per resident generation, so a hit, an
//! insert and the victim choice are all O(1) in the shard's size.

use acic::{CacheKey, SystemConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, immutable top-k answer: `(configuration, predicted
/// improvement)` pairs, best first.  `Arc`d so a cache hit is a refcount
/// bump, not a copy of the candidate list.
pub type CachedTopK = Arc<Vec<(SystemConfig, f64)>>;

/// Slab link meaning "no node".
const NIL: u32 = u32::MAX;

/// One slab slot: a cached answer and its place in its generation's list.
#[derive(Debug)]
struct Node {
    key: (CacheKey, u64),
    /// `None` while the slot sits on the free list, so a freed slot drops
    /// its answer at once rather than when it is reused.
    value: Option<CachedTopK>,
    last_used: u64,
    prev: u32,
    next: u32,
}

/// The resident entries of one snapshot generation, coldest at `head`.
#[derive(Debug)]
struct Generation {
    version: u64,
    head: u32,
    tail: u32,
}

/// One LRU shard.  Entries live in a slab, linked into one intrusive list
/// per resident snapshot generation (two or three: a publish sweeps every
/// generation older than the previous one).  Every touch or insert takes a
/// fresh, shard-unique tick and moves its entry to the tail of its list,
/// so each list is in tick order and its head is its least recently used
/// entry.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(CacheKey, u64), u32>,
    slab: Vec<Node>,
    free: Vec<u32>,
    /// Never holds an empty list: a generation's list is dropped with its
    /// last entry.
    lists: Vec<Generation>,
    tick: u64,
}

impl Shard {
    fn list_of(&self, version: u64) -> usize {
        self.lists
            .iter()
            .position(|g| g.version == version)
            .expect("resident generation has a list")
    }

    fn unlink(&mut self, g: usize, slot: u32) {
        let (prev, next) = (self.slab[slot as usize].prev, self.slab[slot as usize].next);
        match prev {
            NIL => self.lists[g].head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.lists[g].tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, g: usize, slot: u32) {
        let tail = self.lists[g].tail;
        let node = &mut self.slab[slot as usize];
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.lists[g].head = slot,
            t => self.slab[t as usize].next = slot,
        }
        self.lists[g].tail = slot;
    }

    /// Stamp `slot` with a fresh tick and move it to the tail of its list.
    fn refresh(&mut self, slot: u32) {
        let node = &mut self.slab[slot as usize];
        node.last_used = self.tick;
        if node.next != NIL {
            let version = node.key.1;
            let g = self.list_of(version);
            self.unlink(g, slot);
            self.push_back(g, slot);
        }
    }

    /// Return `slot` to the free list, dropping its answer and its key.
    fn release(&mut self, slot: u32) {
        let node = &mut self.slab[slot as usize];
        node.value = None;
        self.map.remove(&node.key);
        self.free.push(slot);
    }

    fn touch(&mut self, key: &(CacheKey, u64)) -> Option<CachedTopK> {
        self.tick += 1;
        let slot = *self.map.get(key)?;
        self.refresh(slot);
        self.slab[slot as usize].value.clone()
    }

    fn insert(&mut self, key: (CacheKey, u64), value: CachedTopK, capacity: usize) {
        self.tick += 1;
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot as usize].value = Some(value);
            self.refresh(slot);
            return;
        }
        if self.map.len() >= capacity {
            self.evict_one(key.1);
        }
        let node = Node { key, value: Some(value), last_used: self.tick, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = node;
                slot
            }
            None => {
                self.slab.push(node);
                u32::try_from(self.slab.len() - 1).expect("shard slab fits u32 links")
            }
        };
        let g = match self.lists.iter().position(|g| g.version == key.1) {
            Some(g) => g,
            None => {
                self.lists.push(Generation { version: key.1, head: NIL, tail: NIL });
                self.lists.len() - 1
            }
        };
        self.push_back(g, slot);
        self.map.insert(key, slot);
    }

    /// Evict the entry an insert under `inserted_version` displaces.
    ///
    /// Victim choice is generation-aware: an entry from a snapshot
    /// generation older than the one being inserted is superseded — no
    /// future lookup under the new generation can hit it — so any such
    /// entry is evicted (LRU among them) before a same-generation entry is
    /// considered.  Only when every resident entry is at or above the
    /// inserted generation does plain LRU pick the victim.  The rule is
    /// `min_by_key((version >= inserted_version, last_used))` over every
    /// entry; since all entries of one list share the first component and
    /// each list's head holds its smallest tick, the same minimum over the
    /// list heads picks the same entry.  Ticks are unique per shard, so the
    /// victim is unambiguous either way.
    fn evict_one(&mut self, inserted_version: u64) {
        let g = (0..self.lists.len())
            .min_by_key(|&g| {
                let list = &self.lists[g];
                (list.version >= inserted_version, self.slab[list.head as usize].last_used)
            })
            .expect("a full shard has a resident generation");
        let victim = self.lists[g].head;
        self.unlink(g, victim);
        if self.lists[g].head == NIL {
            self.lists.swap_remove(g);
        }
        self.release(victim);
    }

    /// Drop every list of a generation older than `min_version`; returns
    /// how many entries went with them.
    fn evict_older_than(&mut self, min_version: u64) -> usize {
        let mut evicted = 0;
        let mut g = 0;
        while g < self.lists.len() {
            if self.lists[g].version >= min_version {
                g += 1;
                continue;
            }
            let mut slot = self.lists.swap_remove(g).head;
            while slot != NIL {
                let next = self.slab[slot as usize].next;
                self.release(slot);
                evicted += 1;
                slot = next;
            }
        }
        evicted
    }
}

/// Sharded LRU cache of top-k answers, namespaced by snapshot version.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache holding up to ~`capacity` results across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Look up a result computed under snapshot `version`.
    pub fn get(&self, key: &CacheKey, version: u64) -> Option<CachedTopK> {
        let found = self.shard(key).lock().touch(&(*key, version));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a result computed under snapshot `version`.
    pub fn insert(&self, key: CacheKey, version: u64, value: CachedTopK) {
        self.shard(&key).lock().insert((key, version), value, self.per_shard_capacity);
    }

    /// Drop every entry computed under a snapshot version older than
    /// `min_version`; returns how many entries were evicted.
    ///
    /// Versioned keys make stale generations *unreachable* the instant a
    /// hot-swap publishes, but unreachable is not evicted: under sustained
    /// republish churn with little new traffic, dead generations squatted
    /// in the LRU until capacity pressure happened to push them out — the
    /// cache's resident size tracked the number of publishes, not the
    /// working set.  [`crate::Server`] calls this on every publish, keeping
    /// the current and previous generations (in-flight batches may still
    /// answer on the generation they loaded).
    pub fn evict_older_than(&self, min_version: u64) -> usize {
        self.shards.iter().map(|s| s.lock().evict_older_than(min_version)).sum()
    }

    /// Entries currently cached (all shards, all versions).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::{Objective, SystemConfig};
    use acic_cloudsim::instance::InstanceType;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn key(nprocs: usize, k: usize) -> CacheKey {
        let mut app = SpacePoint::default_point().app;
        app.nprocs = nprocs;
        app.io_procs = nprocs;
        CacheKey::new(&app, Objective::Performance, InstanceType::Cc2_8xlarge, k)
    }

    fn result(tag: f64) -> CachedTopK {
        Arc::new(vec![(SystemConfig::baseline(), tag)])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(16, 2);
        let k = key(64, 3);
        assert!(c.get(&k, 1).is_none());
        c.insert(k, 1, result(1.5));
        let got = c.get(&k, 1).expect("cached");
        assert_eq!(got[0].1, 1.5);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn new_version_logically_invalidates() {
        let c = ResultCache::new(16, 2);
        let k = key(64, 3);
        c.insert(k, 1, result(1.0));
        assert!(c.get(&k, 2).is_none(), "v2 must never see v1's answer");
        c.insert(k, 2, result(2.0));
        assert_eq!(c.get(&k, 1).unwrap()[0].1, 1.0, "v1 entry still intact until evicted");
        assert_eq!(c.get(&k, 2).unwrap()[0].1, 2.0);
    }

    #[test]
    fn superseded_generations_are_evicted_before_in_generation_lru_victims() {
        // Single shard at capacity 4, filled across two snapshot
        // generations.  The gen-1 entries are deliberately made the *most*
        // recently used, so plain LRU would sacrifice the colder gen-2
        // entries — the versioned policy must instead clear out the
        // superseded generation first.
        let c = ResultCache::new(4, 1);
        let (a, b, x, y, z, w) = (key(32, 1), key(64, 2), key(128, 3), key(256, 4), key(32, 5), key(64, 6));
        c.insert(a, 1, result(1.0));
        c.insert(b, 1, result(1.1));
        c.insert(x, 2, result(2.0));
        c.insert(y, 2, result(2.1));
        // Touch the gen-1 entries: hottest by LRU, stale by generation.
        assert!(c.get(&a, 1).is_some());
        assert!(c.get(&b, 1).is_some());
        // Two more gen-2 inserts must claim both gen-1 slots (LRU order
        // within the stale class: a before b)...
        c.insert(z, 2, result(2.2));
        assert!(c.get(&a, 1).is_none(), "stale gen-1 LRU entry evicted first");
        assert!(c.get(&b, 1).is_some(), "stale class evicts in LRU order");
        c.insert(w, 2, result(2.3));
        assert!(c.get(&b, 1).is_none(), "second stale entry evicted next");
        for k in [&x, &y, &z, &w] {
            assert!(c.get(k, 2).is_some(), "no in-generation entry was sacrificed");
        }
        // ...and only once no superseded entry remains does LRU run within
        // the current generation (x is now coldest after the sweep above).
        let fresh = key(128, 7);
        let x_last_used_refreshed = c.get(&x, 2).is_some(); // touch x: now y is coldest
        assert!(x_last_used_refreshed);
        c.insert(fresh, 2, result(2.4));
        assert!(c.get(&y, 2).is_none(), "in-generation LRU victim once no stale entries remain");
        assert!(c.get(&x, 2).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // Single shard, capacity 2: touch the first entry, insert a third,
        // and the untouched second entry is the victim.
        let c = ResultCache::new(2, 1);
        let (k1, k2, k3) = (key(32, 1), key(64, 2), key(128, 3));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(2.0));
        assert!(c.get(&k1, 1).is_some());
        c.insert(k3, 1, result(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k1, 1).is_some(), "recently-used survives");
        assert!(c.get(&k2, 1).is_none(), "coldest entry evicted");
        assert!(c.get(&k3, 1).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = ResultCache::new(2, 1);
        let (k1, k2) = (key(32, 1), key(64, 2));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(2.0));
        c.insert(k1, 1, result(1.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k1, 1).unwrap()[0].1, 1.5);
        assert!(c.get(&k2, 1).is_some());
    }

    #[test]
    fn evict_older_than_drops_only_stale_generations() {
        let c = ResultCache::new(16, 2);
        let (k1, k2) = (key(32, 1), key(64, 2));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(1.0));
        c.insert(k1, 2, result(2.0));
        c.insert(k1, 3, result(3.0));
        assert_eq!(c.evict_older_than(2), 2, "both v1 entries go");
        assert!(c.get(&k1, 1).is_none());
        assert!(c.get(&k2, 1).is_none());
        assert_eq!(c.get(&k1, 2).unwrap()[0].1, 2.0, "v2 survives");
        assert_eq!(c.get(&k1, 3).unwrap()[0].1, 3.0);
        assert_eq!(c.evict_older_than(2), 0, "idempotent once clean");
    }

    #[test]
    fn memory_stays_bounded_across_a_hundred_republishes() {
        // The stale-generation bug: a big cache under republish churn with
        // a small working set accumulated one dead entry per (key, old
        // version) because LRU pressure alone never arrived.  With the
        // publish-time sweep (keep current + previous generation) the
        // resident size is bounded by 2 generations × working set,
        // regardless of how many versions have come and gone.
        let working_set: Vec<CacheKey> = (0..4).map(|i| key(32 << i, 3)).collect();
        let c = ResultCache::new(4096, 8);
        for version in 1..=100u64 {
            for k in &working_set {
                c.insert(*k, version, result(version as f64));
            }
            // What Server::publish does on each hot-swap.
            c.evict_older_than(version.saturating_sub(1));
            assert!(
                c.len() <= 2 * working_set.len(),
                "version {version}: {} entries resident, stale generations leaked",
                c.len()
            );
        }
        // Current generation still answers after all that churn.
        for k in &working_set {
            assert_eq!(c.get(k, 100).unwrap()[0].1, 100.0);
        }
    }

    /// The linear-scan shard the slab lists replaced, kept as the
    /// reference the victim-equivalence property compares against.
    #[derive(Debug, Default)]
    struct ScanShard {
        map: HashMap<(CacheKey, u64), (u64, CachedTopK)>,
        tick: u64,
    }

    impl ScanShard {
        fn touch(&mut self, key: &(CacheKey, u64)) -> Option<CachedTopK> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(key).map(|(last_used, value)| {
                *last_used = tick;
                value.clone()
            })
        }

        fn insert(&mut self, key: (CacheKey, u64), value: CachedTopK, capacity: usize) {
            self.tick += 1;
            if self.map.len() >= capacity && !self.map.contains_key(&key) {
                let inserted_version = key.1;
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|((_, v), (last_used, _))| (*v >= inserted_version, *last_used))
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key, (self.tick, value));
        }
    }

    /// [`ResultCache`]'s sharding and counters over [`ScanShard`]s.
    struct ScanCache {
        shards: Vec<ScanShard>,
        per_shard_capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl ScanCache {
        fn new(capacity: usize, shards: usize) -> Self {
            let reference = ResultCache::new(capacity, shards);
            Self {
                shards: (0..reference.shards.len()).map(|_| ScanShard::default()).collect(),
                per_shard_capacity: reference.per_shard_capacity,
                hits: 0,
                misses: 0,
            }
        }

        fn get(&mut self, key: &CacheKey, version: u64) -> Option<CachedTopK> {
            let n = self.shards.len();
            let found = self.shards[key.shard(n)].touch(&(*key, version));
            match found {
                Some(_) => self.hits += 1,
                None => self.misses += 1,
            }
            found
        }

        fn insert(&mut self, key: CacheKey, version: u64, value: CachedTopK) {
            let n = self.shards.len();
            self.shards[key.shard(n)].insert((key, version), value, self.per_shard_capacity);
        }

        fn evict_older_than(&mut self, min_version: u64) -> usize {
            self.shards
                .iter_mut()
                .map(|s| {
                    let before = s.map.len();
                    s.map.retain(|(_, v), _| *v >= min_version);
                    before - s.map.len()
                })
                .sum()
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.map.len()).sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get/insert/evict_older_than sequences over four
        /// versions (inserts under an older version after a newer one
        /// included) answer, count and evict exactly as the linear scan.
        #[test]
        fn slab_lists_pick_the_victim_the_linear_scan_picks(
            capacity in 1usize..=16,
            shards in 1usize..=4,
            ops in prop::collection::vec((0u8..9, 0usize..15, 1u64..=4), 1..300),
        ) {
            let keys: Vec<CacheKey> =
                (0..15).map(|i| key(16 << (i % 5), 1 + i / 5)).collect();
            let cache = ResultCache::new(capacity, shards);
            let mut scan = ScanCache::new(capacity, shards);
            for (step, &(op, k, version)) in ops.iter().enumerate() {
                let k = &keys[k];
                match op {
                    0..=3 => {
                        let got = cache.get(k, version).map(|r| r[0].1);
                        let want = scan.get(k, version).map(|r| r[0].1);
                        prop_assert_eq!(got, want, "get at step {step}");
                    }
                    4..=7 => {
                        cache.insert(*k, version, result(step as f64));
                        scan.insert(*k, version, result(step as f64));
                    }
                    _ => prop_assert_eq!(
                        cache.evict_older_than(version),
                        scan.evict_older_than(version),
                        "evict_older_than at step {step}"
                    ),
                }
                prop_assert_eq!(cache.len(), scan.len(), "len at step {step}");
                prop_assert_eq!((cache.hits(), cache.misses()), (scan.hits, scan.misses));
            }
        }
    }

    #[test]
    fn freed_slots_drop_their_answer_and_are_reused() {
        let c = ResultCache::new(2, 1);
        let (k1, k2, k3) = (key(32, 1), key(64, 2), key(128, 3));
        let first = result(1.0);
        c.insert(k1, 1, Arc::clone(&first));
        c.insert(k2, 1, result(2.0));
        c.insert(k3, 1, result(3.0));
        assert_eq!(Arc::strong_count(&first), 1, "the evicted answer is released");
        assert_eq!(c.evict_older_than(2), 2);
        c.insert(k1, 2, result(4.0));
        assert_eq!(c.shards[0].lock().slab.len(), 2, "freed slots are reused, not appended");
    }

    #[test]
    fn sharding_is_deterministic_and_capacity_splits() {
        let c = ResultCache::new(8, 4);
        assert_eq!(c.per_shard_capacity, 2);
        let k = key(64, 3);
        // Same key always lands in the same shard: inserting twice via
        // different call sites still yields exactly one entry.
        c.insert(k, 1, result(1.0));
        c.insert(k, 1, result(1.0));
        assert_eq!(c.len(), 1);
    }
}
