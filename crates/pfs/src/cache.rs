//! Per-node client cache state.
//!
//! GPFS clients cache metadata blocks and file data locally, protected
//! by tokens; the capacity limits of these caches are what give the
//! paper's Fig 1 its knees (512 entries for create, 1024 for
//! stat/utime/open, page pool for data).
//!
//! No step of an ordinary operation scans a cache, so the model's host
//! cost per operation does not grow with cache capacity or directory
//! size. (Losing an inode-block token still scans the holder's
//! attribute cache for the inodes packed in that block; revocations
//! are rare next to operations.)
//!
//! - [`LruSet`] touches, removes, probes and evicts in O(1): a slab of
//!   slots linked in recency order, indexed by a fixed-hash map. Only
//!   [`LruSet::keys`] walks the list (least recently used first).
//! - [`PagePool`] charges and invalidates in O(1); eviction takes the
//!   LRU file (or the next one when that is the file being filled).
//! - [`NodeCache`] keeps its dirty inodes by packed inode block. The
//!   invariant: a dirty inode is listed once, under the block it was
//!   marked dirty in, and a block is listed only while it holds a dirty
//!   inode. Marking or cleaning one inode, or cleaning a whole block,
//!   is O(log blocks) plus a pass over that block's list, which holds
//!   at most its `inodes_per_block` inodes.
//! - Dirty directory blocks and dirty data stay in ordered maps,
//!   O(log n) per step: revocation flushes and throttle victims visit
//!   them in key order, and that order sets virtual time. Directory
//!   blocks keep a running count beside their map.
//! - So the write-behind throttle on every mutation reads both dirty
//!   block counts in O(1) and finds its victim, the first dirty block,
//!   in O(log blocks).

use simcore::hash::{FxHashMap, FxHashSet};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// The end of a recency list.
const NIL: usize = usize::MAX;

/// One slab slot of an [`LruSet`]: a key and its recency neighbours.
#[derive(Debug, Clone)]
struct Slot<K> {
    key: K,
    /// The next older slot, or [`NIL`].
    older: usize,
    /// The next newer slot, or [`NIL`].
    newer: usize,
}

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
    /// Each cached key's slot.
    index: FxHashMap<K, usize>,
    /// Every slot ever allocated; freed ones are listed in `free`.
    slots: Vec<Slot<K>>,
    free: Vec<usize>,
    /// The least and the most recently used slot ([`NIL`] when empty).
    oldest: usize,
    newest: usize,
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
            index: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Links slot `i` in as the most recently used.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Inserts or refreshes `key`; returns the evicted key, if any.
    pub fn touch(&mut self, key: K) -> Option<K> {
        if let Some(&i) = self.index.get(&key) {
            if i != self.newest {
                self.unlink(i);
                self.push_newest(i);
            }
            return None;
        }
        let slot = Slot {
            key: key.clone(),
            older: NIL,
            newer: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.push_newest(i);
        self.index.insert(key, i);
        if self.index.len() > self.capacity {
            let victim = self.oldest;
            self.unlink(victim);
            self.free.push(victim);
            let key = self.slots[victim].key.clone();
            self.index.remove(&key);
            Some(key)
        } else {
            None
        }
    }

    /// True if `key` is cached (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Removes `key` (e.g. on token revocation).
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                true
            }
            None => false,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over cached keys in least-recently-used-first order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        let mut at = self.oldest;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at)?;
            at = slot.newer;
            Some(&slot.key)
        })
    }
}

/// Data-cache accounting for one node's page pool: which files have
/// how many bytes cached, with whole-file LRU eviction.
#[derive(Debug, Clone)]
pub struct PagePool {
    capacity: u64,
    bytes: FxHashMap<u64, u64>,
    lru: LruSet<u64>,
    used: u64,
}

impl PagePool {
    /// Creates a page pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PagePool {
            capacity,
            bytes: FxHashMap::default(),
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
        self.keys().find(|&&k| k != skip).copied()
    }
}

/// All cache state for one client node.
#[derive(Debug, Clone)]
pub struct NodeCache {
    /// Cached inode attributes (the stat cache), keyed by inode number.
    pub attr_entries: LruSet<u64>,
    /// The inodes with local dirty attributes (flushed on revoke),
    /// listed under the packed inode block each was marked in (see the
    /// module docs). Ordered: the write-behind throttle flushes the
    /// first block.
    dirty_attr_blocks: BTreeMap<u64, Vec<u64>>,
    /// Cached directory entry blocks, keyed by (dir ino, block index,
    /// block-count generation).
    pub dir_blocks: LruSet<(u64, u64, u64)>,
    /// Dirty `(block, generation)` directory blocks per directory
    /// (directories with none are absent). Ordered: the throttle
    /// flushes the first block. Changed only through
    /// [`Self::mark_dir_dirty`] and [`Self::clean_dir_block`], which
    /// keep `dirty_dir_blocks` in step.
    dirty_dir: BTreeMap<u64, BTreeSet<(u64, u64)>>,
    /// How many blocks `dirty_dir` holds.
    dirty_dir_blocks: usize,
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
    pub attached_dirs: FxHashSet<u64>,
}

impl NodeCache {
    /// Creates cold caches with the given capacities.
    pub fn new(dir_cache_blocks: usize, attr_cache_entries: usize, pagepool_bytes: u64) -> Self {
        NodeCache {
            attr_entries: LruSet::new(attr_cache_entries),
            dirty_attr_blocks: BTreeMap::new(),
            dir_blocks: LruSet::new(dir_cache_blocks),
            dirty_dir: BTreeMap::new(),
            dirty_dir_blocks: 0,
            recent_dir_dirty: BTreeMap::new(),
            last_async_attr_block: None,
            pagepool: PagePool::new(pagepool_bytes),
            dirty_data: BTreeMap::new(),
            dirty_data_total: 0,
            attached_dirs: FxHashSet::default(),
        }
    }

    /// Marks inode `ino`, packed in inode block `block`, as holding
    /// dirty attributes.
    pub fn mark_attr_dirty(&mut self, ino: u64, block: u64) {
        let inos = self.dirty_attr_blocks.entry(block).or_default();
        if !inos.contains(&ino) {
            inos.push(ino);
        }
    }

    /// Cleans inode `ino`, packed in inode block `block`; true if its
    /// attributes were dirty.
    pub fn clean_attr(&mut self, ino: u64, block: u64) -> bool {
        let Some(inos) = self.dirty_attr_blocks.get_mut(&block) else {
            return false;
        };
        let Some(at) = inos.iter().position(|&i| i == ino) else {
            return false;
        };
        inos.swap_remove(at);
        if inos.is_empty() {
            self.dirty_attr_blocks.remove(&block);
        }
        true
    }

    /// Cleans every dirty inode of packed inode block `block`; true if
    /// it held one.
    pub fn clean_attr_block(&mut self, block: u64) -> bool {
        self.dirty_attr_blocks.remove(&block).is_some()
    }

    /// The dirty inodes of each packed inode block, in block order
    /// (inodes in no particular order).
    pub fn dirty_attr_blocks(&self) -> &BTreeMap<u64, Vec<u64>> {
        &self.dirty_attr_blocks
    }

    /// Marks block `blk` of generation `nb` of directory `dir` dirty.
    pub fn mark_dir_dirty(&mut self, dir: u64, blk: u64, nb: u64) {
        if self.dirty_dir.entry(dir).or_default().insert((blk, nb)) {
            self.dirty_dir_blocks += 1;
        }
    }

    /// Cleans block `blk` of generation `nb` of directory `dir`; true
    /// if it was dirty.
    pub fn clean_dir_block(&mut self, dir: u64, blk: u64, nb: u64) -> bool {
        let Some(blocks) = self.dirty_dir.get_mut(&dir) else {
            return false;
        };
        if !blocks.remove(&(blk, nb)) {
            return false;
        }
        if blocks.is_empty() {
            self.dirty_dir.remove(&dir);
        }
        self.dirty_dir_blocks -= 1;
        true
    }

    /// The first dirty directory block as `(dir, block, generation)`,
    /// in directory then block order.
    pub fn first_dirty_dir_block(&self) -> Option<(u64, u64, u64)> {
        let (&dir, blocks) = self.dirty_dir.iter().next()?;
        let &(blk, nb) = blocks
            .first()
            .expect("a listed directory has a dirty block");
        Some((dir, blk, nb))
    }

    /// Count of dirty directory blocks.
    pub fn dirty_dir_blocks(&self) -> usize {
        self.dirty_dir_blocks
    }

    /// Forgets every dirty attribute, directory block and data byte
    /// (the background flushers have drained them).
    pub fn clear_dirty(&mut self) {
        self.dirty_attr_blocks.clear();
        self.dirty_dir.clear();
        self.dirty_dir_blocks = 0;
        self.dirty_data.clear();
        self.dirty_data_total = 0;
    }

    /// Count of dirty metadata blocks (attr + dir).
    pub fn dirty_meta_blocks(&self) -> usize {
        self.dirty_attr_blocks.len() + self.dirty_dir_blocks
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
        nc.mark_dir_dirty(1, 0, 1);
        nc.mark_dir_dirty(1, 1, 1);
        nc.mark_dir_dirty(1, 1, 1);
        assert_eq!(nc.dirty_meta_blocks(), 3);
        assert_eq!(nc.first_dirty_dir_block(), Some((1, 0, 1)));
        assert!(nc.clean_dir_block(1, 0, 1));
        assert!(!nc.clean_dir_block(1, 0, 1));
        assert!(nc.clean_dir_block(1, 1, 1));
        assert_eq!(nc.first_dirty_dir_block(), None);
        assert_eq!(nc.dirty_meta_blocks(), 1);
    }
}
