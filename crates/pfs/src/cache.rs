//! Per-node client cache state.
//!
//! GPFS clients cache metadata blocks and file data locally, protected
//! by tokens; the capacity limits of these caches are what give the
//! paper's Fig 1 its knees (512 entries for create, 1024 for
//! stat/utime/open, page pool for data).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;

/// A capacity-bounded LRU set of cache keys.
///
/// # Examples
///
/// ```
/// use pfs::cache::LruSet;
///
/// let mut lru = LruSet::new(2);
/// lru.touch("a");
/// lru.touch("b");
/// assert_eq!(lru.touch("c"), Some("a")); // evicts the oldest
/// assert!(lru.contains(&"b"));
/// assert!(!lru.contains(&"a"));
/// ```
#[derive(Debug, Clone)]
pub struct LruSet<K: Eq + Hash + Clone> {
    capacity: usize,
    stamps: HashMap<K, u64>,
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K: Eq + Hash + Clone> LruSet<K> {
    /// Creates an LRU set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruSet {
            capacity,
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Inserts or refreshes `key`; returns the evicted key, if any.
    pub fn touch(&mut self, key: K) -> Option<K> {
        self.clock += 1;
        if let Some(old) = self.stamps.insert(key.clone(), self.clock) {
            self.order.remove(&old);
            self.order.insert(self.clock, key);
            return None;
        }
        self.order.insert(self.clock, key);
        if self.stamps.len() > self.capacity {
            let (&oldest, _) = self.order.iter().next().expect("non-empty");
            let victim = self.order.remove(&oldest).expect("present");
            self.stamps.remove(&victim);
            Some(victim)
        } else {
            None
        }
    }

    /// True if `key` is cached (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.stamps.contains_key(key)
    }

    /// Removes `key` (e.g. on token revocation).
    pub fn remove(&mut self, key: &K) -> bool {
        match self.stamps.remove(key) {
            Some(stamp) => {
                self.order.remove(&stamp);
                true
            }
            None => false,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.stamps.clear();
        self.order.clear();
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over cached keys in least-recently-used-first order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.order.values()
    }
}

/// Data-cache accounting for one node's page pool: which files have
/// how many bytes cached, with whole-file LRU eviction.
#[derive(Debug, Clone)]
pub struct PagePool {
    capacity: u64,
    bytes: HashMap<u64, u64>,
    lru: LruSet<u64>,
    used: u64,
}

impl PagePool {
    /// Creates a page pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PagePool {
            capacity,
            bytes: HashMap::new(),
            lru: LruSet::new(1 << 20),
            used: 0,
        }
    }

    /// Adds `len` cached bytes for file `ino`, evicting least-recently
    /// used files as needed. Oversized files simply occupy the whole
    /// pool (and evict everyone else).
    pub fn insert(&mut self, ino: u64, len: u64) {
        let entry = self.bytes.entry(ino).or_insert(0);
        *entry += len;
        self.used += len;
        self.lru.touch(ino);
        while self.used > self.capacity {
            // Evict the least-recently-used file other than `ino`
            // when possible; otherwise trim `ino` itself.
            let victim = self.lru.oldest_other_than(ino).unwrap_or(ino);
            if victim == ino {
                let b = self.bytes.get_mut(&ino).expect("present");
                let trim = self.used - self.capacity;
                let cut = trim.min(*b);
                *b -= cut;
                self.used -= cut;
                if *b == 0 {
                    self.bytes.remove(&ino);
                    self.lru.remove(&ino);
                }
                break;
            } else {
                let freed = self.bytes.remove(&victim).unwrap_or(0);
                self.used -= freed;
                self.lru.remove(&victim);
            }
        }
    }

    /// Cached bytes for `ino` (refreshes recency).
    pub fn cached(&mut self, ino: u64) -> u64 {
        let n = self.bytes.get(&ino).copied().unwrap_or(0);
        if n > 0 {
            self.lru.touch(ino);
        }
        n
    }

    /// Drops a file's cached bytes (revocation or delete).
    pub fn invalidate(&mut self, ino: u64) {
        if let Some(b) = self.bytes.remove(&ino) {
            self.used -= b;
            self.lru.remove(&ino);
        }
    }

    /// Total bytes cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl LruSet<u64> {
    /// The least-recently-used key that is not `skip`, if any.
    fn oldest_other_than(&self, skip: u64) -> Option<u64> {
        self.order.values().find(|&&k| k != skip).copied()
    }
}

/// All cache state for one client node.
#[derive(Debug, Clone)]
pub struct NodeCache {
    /// Cached inode attributes (the stat cache), keyed by inode number.
    pub attr_entries: LruSet<u64>,
    /// Inodes with local dirty attributes (flushed on revoke).
    /// Ordered: flushes iterate this set, and what they flush must not
    /// depend on hasher state (lint rule D003). Changed only through
    /// [`Self::mark_attr_dirty`] and [`Self::clean_attr`], which keep
    /// `dirty_attr_blocks` in step.
    dirty_attr: BTreeSet<u64>,
    /// How many `dirty_attr` inodes each packed inode block holds
    /// (blocks with none are absent). Ordered: the write-behind
    /// throttle flushes the first block.
    dirty_attr_blocks: BTreeMap<u64, usize>,
    /// Cached directory entry blocks, keyed by (dir ino, block index,
    /// block-count generation).
    pub dir_blocks: LruSet<(u64, u64, u64)>,
    /// Dirty directory blocks per directory (ordered: revoke flushes
    /// and throttle victims iterate these).
    pub dirty_dir: BTreeMap<u64, BTreeSet<(u64, u64)>>,
    /// Directory blocks dirtied since this node last took the
    /// directory-inode token (what a revocation must flush).
    pub recent_dir_dirty: BTreeMap<u64, BTreeSet<(u64, u64)>>,
    /// Last inode block flushed by the background flusher (used to
    /// coalesce per-inode eviction writebacks into block writes).
    pub last_async_attr_block: Option<u64>,
    /// Data page pool.
    pub pagepool: PagePool,
    /// Unflushed dirty data bytes per file (ordered: the write-behind
    /// drain picks its next victim by iterating).
    pub dirty_data: BTreeMap<u64, u64>,
    /// Total dirty data bytes (== sum of `dirty_data` values).
    pub dirty_data_total: u64,
    /// Directories this node has already attached to (first-touch
    /// lease cost paid).
    pub attached_dirs: HashSet<u64>,
}

impl NodeCache {
    /// Creates cold caches with the given capacities.
    pub fn new(dir_cache_blocks: usize, attr_cache_entries: usize, pagepool_bytes: u64) -> Self {
        NodeCache {
            attr_entries: LruSet::new(attr_cache_entries),
            dirty_attr: BTreeSet::new(),
            dirty_attr_blocks: BTreeMap::new(),
            dir_blocks: LruSet::new(dir_cache_blocks),
            dirty_dir: BTreeMap::new(),
            recent_dir_dirty: BTreeMap::new(),
            last_async_attr_block: None,
            pagepool: PagePool::new(pagepool_bytes),
            dirty_data: BTreeMap::new(),
            dirty_data_total: 0,
            attached_dirs: HashSet::new(),
        }
    }

    /// Marks inode `ino`, packed in inode block `block`, as holding
    /// dirty attributes.
    pub fn mark_attr_dirty(&mut self, ino: u64, block: u64) {
        if self.dirty_attr.insert(ino) {
            *self.dirty_attr_blocks.entry(block).or_insert(0) += 1;
        }
    }

    /// Cleans inode `ino`, packed in inode block `block`; true if its
    /// attributes were dirty.
    ///
    /// # Panics
    ///
    /// Panics if `ino` is dirty but was marked under another block.
    pub fn clean_attr(&mut self, ino: u64, block: u64) -> bool {
        if !self.dirty_attr.remove(&ino) {
            return false;
        }
        let n = self
            .dirty_attr_blocks
            .get_mut(&block)
            .expect("a dirty inode is counted in its packed block");
        *n -= 1;
        if *n == 0 {
            self.dirty_attr_blocks.remove(&block);
        }
        true
    }

    /// Inodes with dirty attributes, in inode order.
    pub fn dirty_attrs(&self) -> &BTreeSet<u64> {
        &self.dirty_attr
    }

    /// Dirty inodes per packed inode block, in block order.
    pub fn dirty_attr_blocks(&self) -> &BTreeMap<u64, usize> {
        &self.dirty_attr_blocks
    }

    /// Forgets every dirty attribute, directory block and data byte
    /// (the background flushers have drained them).
    pub fn clear_dirty(&mut self) {
        self.dirty_attr.clear();
        self.dirty_attr_blocks.clear();
        self.dirty_dir.clear();
        self.dirty_data.clear();
        self.dirty_data_total = 0;
    }

    /// Count of dirty metadata blocks (attr + dir).
    pub fn dirty_meta_blocks(&self) -> usize {
        self.dirty_attr.len() + self.dirty_dir.values().map(|s| s.len()).sum::<usize>()
    }

    /// Records dirty data for `ino`.
    pub fn add_dirty_data(&mut self, ino: u64, len: u64) {
        *self.dirty_data.entry(ino).or_insert(0) += len;
        self.dirty_data_total += len;
    }

    /// Removes up to `len` dirty bytes from `ino`, returning how many
    /// were actually removed.
    pub fn drain_dirty_data(&mut self, ino: u64, len: u64) -> u64 {
        let Some(b) = self.dirty_data.get_mut(&ino) else {
            return 0;
        };
        let cut = len.min(*b);
        *b -= cut;
        self.dirty_data_total -= cut;
        if *b == 0 {
            self.dirty_data.remove(&ino);
        }
        cut
    }

    /// Dirty bytes buffered for `ino`.
    pub fn dirty_data_of(&self, ino: u64) -> u64 {
        self.dirty_data.get(&ino).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        let mut l = LruSet::new(3);
        for k in 1..=3 {
            assert_eq!(l.touch(k), None);
        }
        assert_eq!(l.touch(4), Some(1));
        assert_eq!(l.len(), 3);
        assert!(!l.contains(&1));
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut l = LruSet::new(2);
        l.touch("a");
        l.touch("b");
        l.touch("a"); // refresh a; b is now oldest
        assert_eq!(l.touch("c"), Some("b"));
        assert!(l.contains(&"a"));
    }

    #[test]
    fn lru_remove_and_clear() {
        let mut l = LruSet::new(2);
        l.touch(1);
        assert!(l.remove(&1));
        assert!(!l.remove(&1));
        l.touch(2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: LruSet<u8> = LruSet::new(0);
    }

    #[test]
    fn pagepool_accounts_and_evicts() {
        let mut p = PagePool::new(100);
        p.insert(1, 60);
        p.insert(2, 30);
        assert_eq!(p.used(), 90);
        assert_eq!(p.cached(1), 60);
        // Inserting 30 more for file 3 evicts the LRU file (2, since
        // cached(1) refreshed file 1... file 2 is oldest).
        p.insert(3, 30);
        assert_eq!(p.cached(2), 0);
        assert_eq!(p.used(), 90);
    }

    #[test]
    fn pagepool_oversized_file_trims_itself() {
        let mut p = PagePool::new(100);
        p.insert(1, 250);
        assert!(p.used() <= 100);
        assert!(p.cached(1) <= 100);
    }

    #[test]
    fn pagepool_invalidate() {
        let mut p = PagePool::new(100);
        p.insert(1, 40);
        p.invalidate(1);
        assert_eq!(p.used(), 0);
        assert_eq!(p.cached(1), 0);
        p.invalidate(99); // no-op
    }

    #[test]
    fn node_cache_dirty_data_accounting() {
        let mut nc = NodeCache::new(4, 4, 1000);
        nc.add_dirty_data(7, 100);
        nc.add_dirty_data(7, 50);
        nc.add_dirty_data(8, 25);
        assert_eq!(nc.dirty_data_total, 175);
        assert_eq!(nc.dirty_data_of(7), 150);
        assert_eq!(nc.drain_dirty_data(7, 200), 150);
        assert_eq!(nc.dirty_data_total, 25);
        assert_eq!(nc.drain_dirty_data(9, 10), 0);
    }

    #[test]
    fn node_cache_dirty_meta_count() {
        let mut nc = NodeCache::new(4, 4, 1000);
        nc.mark_attr_dirty(3, 0);
        nc.dirty_dir.entry(1).or_default().insert((0, 1));
        nc.dirty_dir.entry(1).or_default().insert((1, 1));
        assert_eq!(nc.dirty_meta_blocks(), 3);
    }
}
