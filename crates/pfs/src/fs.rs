//! The GPFS-like parallel filesystem simulator.
//!
//! [`PfsFs`] is *functional* — it maintains a real POSIX namespace by
//! delegating semantics to [`vfs::memfs::MemFs`] — and *timed*: every
//! operation's completion time is computed from the GPFS-style
//! protocol mechanisms the paper's observations hinge on. Each call
//! walks the reference namespace once, and takes the directory, entry
//! count and inode it prices from that call's [`vfs::memfs::Site`], so
//! a symlinked parent or a followed trailing link is priced as its
//! target. `create_in` and `mkdir_in` hand their parent hint (see
//! [`vfs::fs`]) to that call, which then skips the walk to the parent;
//! the price comes from the same site either way:
//!
//! 1. **Token delegation** (`dlm`): a node that already holds the
//!    right token operates on its local cache at microsecond cost.
//! 2. **Packed metadata blocks**: directory entries and inode
//!    attributes are packed ~32 per block; tokens are per block, so
//!    unrelated files false-share lock units.
//! 3. **Parent-directory serialization**: every create/unlink takes an
//!    exclusive token on the parent directory inode (size/mtime
//!    update), which ping-pongs between nodes creating in a shared
//!    directory.
//! 4. **Write-behind with flush-on-revoke**: dirty blocks are written
//!    back lazily, but a revocation forces a synchronous flush, making
//!    token handoffs expensive.
//! 5. **Capacity-limited client caches**: the attribute cache holds
//!    ~1024 entries and the directory cache ~512, producing the knees
//!    of paper Fig 1.

use crate::cache::NodeCache;
use crate::config::PfsConfig;
use dlm::{TokenId, TokenManager, TokenMode};
use netsim::cluster::Cluster;
use netsim::ids::NodeId;
use simcore::prelude::*;
use simcore::rng::{stable_hash, stable_hash_combine};
use vfs::error::FsError;
use vfs::fs::{FileSystem, FsResult, OpCtx, Timed};
use vfs::memfs::MemFs;
use vfs::path::VPath;
use vfs::types::{DirEntry, FileAttr, FileHandle, FsStats, Ino, Mode, OpenFlags, SetAttr};

/// What a token protects; hashed into a [`TokenId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// The directory inode itself (attributes, size, mtime): the
    /// serialization point for creates/unlinks in that directory.
    DirInode(u64),
    /// One directory-entry block. `nb` (current block count) is part
    /// of the identity: extensible-hash splits re-key every block.
    DirBlock {
        /// Directory inode number.
        dir: u64,
        /// Block index within the directory.
        blk: u64,
        /// Block-count generation.
        nb: u64,
    },
    /// One packed inode (attribute) block.
    InodeBlock(u64),
    /// One byte-range region of a file's data.
    Data {
        /// File inode number.
        ino: u64,
        /// Region index (offset / region size).
        region: u64,
    },
}

impl Scope {
    fn token(self) -> TokenId {
        let h = match self {
            Scope::DirInode(d) => stable_hash_combine(1, d),
            Scope::DirBlock { dir, blk, nb } => {
                stable_hash_combine(2, stable_hash_combine(dir, stable_hash_combine(blk, nb)))
            }
            Scope::InodeBlock(b) => stable_hash_combine(3, b),
            Scope::Data { ino, region } => stable_hash_combine(4, stable_hash_combine(ino, region)),
        };
        TokenId(h)
    }
}

/// What the model keeps per inode, indexed by inode number (`MemFs`
/// numbers inodes densely and never reuses one).
#[derive(Debug, Clone, Copy, Default)]
struct InodeInfo {
    /// The packed inode block its creating node allocated it in.
    packed: Option<u64>,
    /// Authoritative file size (needed for the whole-file cache-hit
    /// test without consulting the reference namespace by handle).
    size: u64,
    /// For a directory, the node that created it (attaching to your
    /// own directory is free; the lease is born with it).
    dir_creator: Option<NodeId>,
}

#[derive(Debug, Clone, Copy)]
struct PHandle {
    ino: u64,
    /// End offset of the last transfer, for seek detection.
    last_end: u64,
}

/// The parallel filesystem simulator.
///
/// # Examples
///
/// ```
/// use netsim::cluster::ClusterBuilder;
/// use netsim::ids::NodeId;
/// use pfs::config::PfsConfig;
/// use pfs::fs::PfsFs;
/// use vfs::fs::{FileSystem, OpCtx};
/// use vfs::path::vpath;
/// use vfs::types::Mode;
///
/// let cluster = ClusterBuilder::new().clients(4).servers(2).build();
/// let mut fs = PfsFs::new(cluster, PfsConfig::default());
/// let ctx = OpCtx::test(NodeId(0));
/// fs.mkdir(&ctx, &vpath("/shared"), Mode::dir_default())?;
/// let t = fs.create(&ctx, &vpath("/shared/f"), Mode::file_default())?;
/// assert!(t.end > ctx.now);
/// # Ok::<(), vfs::error::FsError>(())
/// ```
#[derive(Debug)]
pub struct PfsFs {
    cfg: PfsConfig,
    cluster: Cluster,
    ns: MemFs,
    tm: TokenManager,
    tm_node: NodeId,
    tm_cpu: FifoResource,
    server_cpu: Vec<FifoResource>,
    server_media: Vec<MultiResource>,
    server_data: Vec<FifoResource>,
    grant_done: FxHashMap<TokenId, SimTime>,
    /// Each node's caches, indexed by `NodeId` (grown on first use).
    caches: Vec<NodeCache>,
    handles: FxHashMap<u64, PHandle>,
    /// Per-inode state, indexed by inode number (grown on first use).
    inodes: Vec<InodeInfo>,
    /// GPFS allocates inodes from per-node segments, so files created
    /// by one node pack into that node's inode blocks. `arena` is each
    /// node's allocation cursor, indexed by `NodeId`; an inode's block
    /// carries its node's index in the high bits.
    arena: Vec<u64>,
    counters: Counters,
}

impl PfsFs {
    /// Creates a filesystem over the given cluster. The token manager
    /// and metadata services run on the cluster's file servers (token
    /// manager on server 0, as GPFS elects one token server).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers (the builder prevents this).
    pub fn new(cluster: Cluster, cfg: PfsConfig) -> Self {
        let servers = cluster.servers().to_vec();
        assert!(!servers.is_empty(), "cluster must have file servers");
        PfsFs {
            tm_node: servers[0],
            tm_cpu: FifoResource::new("token-manager"),
            server_cpu: servers
                .iter()
                .map(|s| FifoResource::new(format!("cpu-{s}")))
                .collect(),
            server_media: servers
                .iter()
                .map(|s| MultiResource::new(format!("media-{s}"), cfg.media_workers))
                .collect(),
            server_data: servers
                .iter()
                .map(|s| FifoResource::new(format!("data-{s}")))
                .collect(),
            cluster,
            ns: MemFs::new(),
            tm: TokenManager::new(),
            grant_done: FxHashMap::default(),
            caches: Vec::new(),
            handles: FxHashMap::default(),
            inodes: Vec::new(),
            arena: Vec::new(),
            counters: Counters::new(),
            cfg,
        }
    }

    /// The cost-model configuration.
    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Protocol counters (`block_fetches`, `block_writebacks`,
    /// `revoke_flushes`, …). Token counts live in [`Self::token_stats`].
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Token-manager statistics.
    pub fn token_stats(&self) -> &Counters {
        self.tm.stats()
    }

    /// The underlying cluster (for network statistics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Completes all background write-behind and forgets per-phase
    /// queue state, *without* invalidating caches or tokens. Benchmark
    /// harnesses call this between phases: in the real testbed the gap
    /// between metarates phases lets the daemons drain.
    pub fn quiesce(&mut self) {
        for cache in self.caches.iter_mut() {
            cache.clear_dirty();
        }
        self.reset_time();
    }

    /// Rewinds every queueing resource to virtual time zero so a new
    /// driver run can start at `t = 0`. Cache and token state persist.
    pub fn reset_time(&mut self) {
        self.tm_cpu.reset();
        for r in self
            .server_cpu
            .iter_mut()
            .chain(self.server_data.iter_mut())
        {
            r.reset();
        }
        for r in self.server_media.iter_mut() {
            r.reset();
        }
        self.cluster.reset();
        self.grant_done.clear();
    }

    // ---- internal helpers -------------------------------------------------

    fn cache_of(&mut self, node: NodeId) -> &mut NodeCache {
        let i = node.index();
        if i >= self.caches.len() {
            let cfg = &self.cfg;
            self.caches.resize_with(i + 1, || {
                NodeCache::new(
                    cfg.dir_cache_blocks,
                    cfg.attr_cache_entries,
                    cfg.pagepool_bytes,
                )
            });
        }
        &mut self.caches[i]
    }

    /// What the model knows of inode `ino` (defaults if nothing yet).
    fn inode(&self, ino: u64) -> InodeInfo {
        self.inodes.get(ino as usize).copied().unwrap_or_default()
    }

    fn inode_mut(&mut self, ino: u64) -> &mut InodeInfo {
        let i = ino as usize;
        if i >= self.inodes.len() {
            self.inodes.resize(i + 1, InodeInfo::default());
        }
        &mut self.inodes[i]
    }

    /// Assigns a freshly created inode a slot in its creating node's
    /// allocation segment (per-node inode packing, as in GPFS).
    fn assign_packed_block(&mut self, node: NodeId, ino: u64) -> u64 {
        let per_block = self.cfg.inodes_per_block as u64;
        let n = node.index();
        if n >= self.arena.len() {
            self.arena.resize(n + 1, 0);
        }
        let slot = self.arena[n];
        self.arena[n] += 1;
        let block = ((n as u64) << 32) | (slot / per_block);
        self.inode_mut(ino).packed = Some(block);
        block
    }

    /// The packed inode block an inode lives in (falls back to naive
    /// number-based packing for inodes predating the simulator, e.g.
    /// the root directory).
    fn packed_block_of(&self, ino: u64) -> u64 {
        self.inode(ino)
            .packed
            .unwrap_or_else(|| self.cfg.inode_block_of(ino))
    }

    fn server_index_for(&self, key: u64) -> usize {
        (key % self.cluster.servers().len() as u64) as usize
    }

    fn server_node(&self, idx: usize) -> NodeId {
        self.cluster.servers()[idx]
    }

    /// One-time per-(node, directory) attach: lease setup and hash-tree
    /// validation. Produces the elevated small-phase averages of the
    /// paper's Fig 4/5 left edges.
    fn attach(&mut self, node: NodeId, dir: u64, t: SimTime) -> SimTime {
        if self.inode(dir).dir_creator == Some(node) {
            return t; // creating a directory establishes the lease
        }
        if self.cache_of(node).attached_dirs.insert(dir) {
            self.counters.bump("dir_attaches");
            t + self.cfg.attach_cost
        } else {
            t
        }
    }

    /// Acquires a token, paying for the round trip to the token
    /// manager and any revocations (including the revoked holders'
    /// dirty flushes). Returns the grant time.
    fn acquire(&mut self, node: NodeId, scope: Scope, mode: TokenMode, t: SimTime) -> SimTime {
        let token = scope.token();
        let outcome = self.tm.acquire(node, token, mode);
        if outcome.already_held {
            return t;
        }
        let msg = self.cfg.msg_bytes;
        // Request to the token manager.
        let mut now = self.cluster.send(node, self.tm_node, msg, t);
        now = self.tm_cpu.acquire(now, self.cfg.tm_service).end;
        // Revoke conflicting holders, serially (the requester waits for
        // all of them).
        for r in &outcome.revocations {
            let mut rt = self.cluster.send(self.tm_node, r.holder, msg, now);
            // A holder cannot process a revoke before its own grant
            // completed.
            if let Some(&gd) = self.grant_done.get(&token) {
                rt = rt.max(gd);
            }
            if r.had == TokenMode::Exclusive {
                rt = self.flush_for_scope(r.holder, scope, rt);
            }
            if mode == TokenMode::Exclusive {
                // Full release: the holder's cached copy is invalid.
                self.invalidate_for_scope(r.holder, scope);
            }
            now = self.cluster.send(r.holder, self.tm_node, msg, rt);
        }
        now = self.cluster.send(self.tm_node, node, msg, now);
        self.grant_done.insert(token, now);
        now
    }

    /// Flushes the dirty state a holder keeps under `scope`.
    fn flush_for_scope(&mut self, holder: NodeId, scope: Scope, t: SimTime) -> SimTime {
        match scope {
            Scope::DirInode(dir) => {
                // Losing the directory token forces a synchronous flush
                // of the blocks dirtied under the current hold (older
                // dirty blocks stay with their own block tokens).
                let blocks: Vec<(u64, u64)> = self
                    .cache_of(holder)
                    .recent_dir_dirty
                    .remove(&dir)
                    .map(|s| s.into_iter().collect())
                    .unwrap_or_default();
                let mut now = t;
                for (blk, nb) in blocks {
                    now = self.writeback_meta(holder, stable_hash_combine(dir, blk), now);
                    self.counters.bump("revoke_flushes");
                    self.cache_of(holder).clean_dir_block(dir, blk, nb);
                }
                // The directory's own attributes may be dirty too.
                let b = self.packed_block_of(dir);
                if self.cache_of(holder).clean_attr(dir, b) {
                    now = self.writeback_meta(holder, dir, now);
                    self.counters.bump("revoke_flushes");
                }
                now
            }
            Scope::DirBlock { dir, blk, nb } => {
                if self.cache_of(holder).clean_dir_block(dir, blk, nb) {
                    self.counters.bump("revoke_flushes");
                    self.writeback_meta(holder, stable_hash_combine(dir, blk), t)
                } else {
                    t
                }
            }
            Scope::InodeBlock(b) => {
                // Flush every dirty inode the holder keeps in this
                // packed block — the false-sharing cost.
                if !self.cache_of(holder).clean_attr_block(b) {
                    return t;
                }
                self.counters.bump("revoke_flushes");
                // One block writeback covers all packed inodes.
                self.writeback_meta(holder, b, t)
            }
            Scope::Data { ino, .. } => {
                // Flush all dirty data for this file.
                let dirty = self.cache_of(holder).dirty_data_of(ino);
                let mut now = t;
                if dirty > 0 {
                    now = self.flush_data(holder, ino, dirty, now, true);
                    self.counters.bump("revoke_flushes");
                }
                now
            }
        }
    }

    /// Drops a holder's cached copy after a full (exclusive) revoke.
    fn invalidate_for_scope(&mut self, holder: NodeId, scope: Scope) {
        match scope {
            Scope::DirInode(_) => {}
            Scope::DirBlock { dir, blk, nb } => {
                self.cache_of(holder).dir_blocks.remove(&(dir, blk, nb));
            }
            Scope::InodeBlock(b) => {
                // Every cached attribute packed in this block becomes
                // stale when the block token is lost.
                let stale: Vec<u64> = {
                    let cached: Vec<u64> =
                        self.cache_of(holder).attr_entries.keys().copied().collect();
                    cached
                        .into_iter()
                        .filter(|&i| self.packed_block_of(i) == b)
                        .collect()
                };
                for i in stale {
                    self.cache_of(holder).attr_entries.remove(&i);
                }
            }
            Scope::Data { ino, .. } => {
                self.cache_of(holder).pagepool.invalidate(ino);
            }
        }
    }

    /// Queues one metadata block for background writeback. The client
    /// only stalls when the flusher has fallen too far behind
    /// (write-behind throttling); otherwise the cost lands on the
    /// server queues asynchronously.
    fn writeback_meta_async(&mut self, node: NodeId, block_key: u64, t: SimTime) -> SimTime {
        let idx = self.server_index_for(block_key);
        let server = self.server_node(idx);
        let sent = self.cluster.send(node, server, self.cfg.block_bytes, t);
        let svc = self.server_cpu[idx]
            .acquire(sent, self.cfg.server_service)
            .end;
        self.server_media[idx].acquire(svc, self.cfg.media_write);
        let backlog = self.server_media[idx].free_at().saturating_since(t);
        if backlog > self.cfg.writeback_backlog {
            t + (backlog - self.cfg.writeback_backlog)
        } else {
            t
        }
    }

    /// Queues the writeback for an evicted dirty attribute. The
    /// flusher writes whole inode blocks, so consecutive evictions
    /// from the same packed block coalesce into one block write.
    fn flush_evicted_attr(&mut self, node: NodeId, ino: u64, t: SimTime) -> SimTime {
        let block = self.packed_block_of(ino);
        if self.cache_of(node).last_async_attr_block == Some(block) {
            return t;
        }
        self.cache_of(node).last_async_attr_block = Some(block);
        self.writeback_meta_async(node, block, t)
    }

    /// Writes one metadata block back to its server, synchronously
    /// (used on token revocation, where the new holder must wait).
    fn writeback_meta(&mut self, node: NodeId, block_key: u64, t: SimTime) -> SimTime {
        self.counters.bump("block_writebacks");
        let idx = self.server_index_for(block_key);
        let server = self.server_node(idx);
        let now = self.cluster.send(node, server, self.cfg.block_bytes, t);
        let now = self.server_cpu[idx]
            .acquire(now, self.cfg.server_service)
            .end;
        let now = self.server_media[idx]
            .acquire(now, self.cfg.media_write)
            .end;
        // Small ack back to the client.
        self.cluster.send(server, node, self.cfg.msg_bytes, now)
    }

    /// Fetches one metadata block from its server.
    fn fetch_meta(&mut self, node: NodeId, block_key: u64, t: SimTime) -> SimTime {
        self.counters.bump("block_fetches");
        let idx = self.server_index_for(block_key);
        let server = self.server_node(idx);
        let sent = self.cluster.send(node, server, self.cfg.msg_bytes, t);
        let cpu = self.server_cpu[idx]
            .acquire(sent, self.cfg.server_service)
            .end;
        let media = self.server_media[idx].acquire(cpu, self.cfg.media_read).end;
        self.cluster.send(server, node, self.cfg.block_bytes, media)
    }

    /// Ensures the node has the inode block of `ino` cached under a
    /// token of `mode`; marks it dirty when `dirty`.
    fn touch_inode_block(
        &mut self,
        node: NodeId,
        ino: u64,
        mode: TokenMode,
        dirty: bool,
        t: SimTime,
    ) -> SimTime {
        self.touch_inode_block_inner(node, ino, mode, dirty, false, t)
    }

    /// As [`Self::touch_inode_block`], but for an inode this node just
    /// allocated: it is born in the client cache, so no server fetch.
    fn install_new_inode(&mut self, node: NodeId, ino: u64, t: SimTime) -> SimTime {
        self.touch_inode_block_inner(node, ino, TokenMode::Exclusive, true, true, t)
    }

    fn touch_inode_block_inner(
        &mut self,
        node: NodeId,
        ino: u64,
        mode: TokenMode,
        dirty: bool,
        fresh: bool,
        t: SimTime,
    ) -> SimTime {
        let ib = self.packed_block_of(ino);
        let mut now = self.acquire(node, Scope::InodeBlock(ib), mode, t);
        if fresh {
            if let Some(victim) = self.cache_of(node).attr_entries.touch(ino) {
                now = self.evict_attr(node, victim, now);
            }
            if dirty {
                self.cache_of(node).mark_attr_dirty(ino, ib);
            }
            return now;
        }
        if !self.cache_of(node).attr_entries.contains(&ino) {
            // A stat-cache miss re-reads this inode from its server —
            // per inode, not per block, so sequential scans past the
            // cache capacity pay a full fetch per file (Fig 1's cliff).
            now = self.fetch_meta(node, ino, now);
            self.counters.bump("attr_misses");
            if let Some(victim) = self.cache_of(node).attr_entries.touch(ino) {
                now = self.evict_attr(node, victim, now);
            }
        } else {
            self.cache_of(node).attr_entries.touch(ino);
            self.counters.bump("attr_hits");
        }
        if dirty {
            self.cache_of(node).mark_attr_dirty(ino, ib);
        }
        now
    }

    /// Handles the attribute cache evicting `victim`: a dirty victim
    /// queues a writeback. The token is retained (GPFS keeps tokens
    /// beyond cache residency), so re-access misses pay only the fetch.
    fn evict_attr(&mut self, node: NodeId, victim: u64, t: SimTime) -> SimTime {
        let b = self.packed_block_of(victim);
        if self.cache_of(node).clean_attr(victim, b) {
            self.flush_evicted_attr(node, victim, t)
        } else {
            t
        }
    }

    /// Ensures the node has the directory-entry block for `name` in
    /// directory `dir` (with `entries` current entries) cached under a
    /// token of `mode`; marks it dirty when `dirty`.
    #[allow(clippy::too_many_arguments)] // private helper; args mirror the protocol step
    fn touch_dir_block(
        &mut self,
        node: NodeId,
        dir: u64,
        name: &str,
        entries: u64,
        mode: TokenMode,
        dirty: bool,
        t: SimTime,
    ) -> SimTime {
        let nb = self.cfg.dir_blocks_for(entries);
        let blk = stable_hash(name.as_bytes()) % nb;
        let scope = Scope::DirBlock { dir, blk, nb };
        let mut now = self.acquire(node, scope, mode, t);
        let key = (dir, blk, nb);
        if !self.cache_of(node).dir_blocks.contains(&key) {
            if entries > 0 {
                // An empty directory's first block is born in the
                // client cache; only populated blocks are fetched.
                now = self.fetch_meta(node, stable_hash_combine(dir, blk), now);
            }
            self.counters.bump("dir_misses");
            if let Some((vdir, vblk, vnb)) = self.cache_of(node).dir_blocks.touch(key) {
                if self.cache_of(node).clean_dir_block(vdir, vblk, vnb) {
                    now = self.writeback_meta_async(node, stable_hash_combine(vdir, vblk), now);
                }
                let victim = Scope::DirBlock {
                    dir: vdir,
                    blk: vblk,
                    nb: vnb,
                };
                self.tm.release(node, victim.token());
            }
        } else {
            self.cache_of(node).dir_blocks.touch(key);
            self.counters.bump("dir_hits");
        }
        if dirty {
            self.cache_of(node).mark_dir_dirty(dir, blk, nb);
            self.cache_of(node)
                .recent_dir_dirty
                .entry(dir)
                .or_default()
                .insert((blk, nb));
        }
        now
    }

    /// Write-behind throttle: when a node holds too many dirty
    /// metadata *blocks* (dirty inodes count at packed-block
    /// granularity), the mutating operation synchronously flushes one
    /// block before proceeding.
    fn throttle_dirty_meta(&mut self, node: NodeId, t: SimTime) -> SimTime {
        let limit = self.cfg.dirty_block_limit;
        let cache = self.cache_of(node);
        if cache.dirty_attr_blocks().len() + cache.dirty_dir_blocks() <= limit {
            return t;
        }
        self.counters.bump("dirty_throttle_flushes");
        // Flush one whole attribute block if any (the first, so the
        // victim is the same on every platform), else one dir block.
        if let Some(&b) = self.cache_of(node).dirty_attr_blocks().keys().next() {
            self.cache_of(node).clean_attr_block(b);
            return self.writeback_meta_async(node, b, t);
        }
        if let Some((dir, blk, nb)) = self.cache_of(node).first_dirty_dir_block() {
            self.cache_of(node).clean_dir_block(dir, blk, nb);
            return self.writeback_meta_async(node, stable_hash_combine(dir, blk), t);
        }
        t
    }

    /// The extra create cost on large directories (hash-tree
    /// maintenance, block splits): `cost × log2(entries / threshold)`.
    fn create_growth(&self, entries: u64) -> SimDuration {
        let th = self.cfg.create_growth_threshold.max(1);
        if entries <= th {
            return SimDuration::ZERO;
        }
        let factor = ((entries as f64) / (th as f64)).log2().max(0.0);
        self.cfg.create_growth_cost.mul_f64(factor)
    }

    /// Transfers `len` bytes of file data between `node` and the
    /// striped servers, chunk by chunk. `write` selects direction and
    /// media cost; `seek` charges the non-sequential penalty on the
    /// first chunk.
    ///
    /// Disk service is *pipelined* with the network: writes land in
    /// the server's write-behind (the client waits only for the wire,
    /// unless the disk backlog exceeds the write-behind window), and
    /// sequential reads ride the server's readahead (only the first
    /// chunk, or a seek, waits for the media).
    #[allow(clippy::too_many_arguments)] // private helper; args mirror the protocol step
    fn transfer_data(
        &mut self,
        node: NodeId,
        ino: u64,
        offset: u64,
        len: u64,
        write: bool,
        seek: bool,
        t: SimTime,
    ) -> SimTime {
        let chunk = self.cfg.chunk_bytes.max(1);
        let mut now = t;
        let mut remaining = len;
        let mut idx = offset / chunk;
        let mut first = true;
        while remaining > 0 {
            let this = remaining.min(chunk);
            let sidx = self.server_index_for(ino.wrapping_add(idx));
            let server = self.server_node(sidx);
            let media =
                SimDuration::from_secs_f64(this as f64 / self.cfg.disk_bytes_per_sec as f64)
                    + if seek && first {
                        self.cfg.seek_penalty
                    } else {
                        SimDuration::ZERO
                    };
            if write {
                now = self.cluster.send(node, server, this, now);
                let grant = self.server_data[sidx].acquire(now, media);
                // Server write-behind: the client waits only if the
                // disk has fallen too far behind the wire.
                let backlog = grant.end.saturating_since(now);
                if backlog > self.cfg.writeback_backlog {
                    now += backlog - self.cfg.writeback_backlog;
                }
            } else {
                let req = self.cluster.send(node, server, self.cfg.msg_bytes, now);
                let grant = self.server_data[sidx].acquire(req, media);
                let ready = if first {
                    // Cold or post-seek read waits for the media.
                    grant.end
                } else {
                    // Readahead keeps sequential chunks wire-bound
                    // unless the disk backlog exceeds the window.
                    let backlog = grant.end.saturating_since(req);
                    if backlog > self.cfg.writeback_backlog {
                        grant.end - self.cfg.writeback_backlog
                    } else {
                        req
                    }
                };
                now = self.cluster.send(server, node, this, ready);
            }
            remaining -= this;
            idx += 1;
            first = false;
        }
        now
    }

    /// Drains `len` dirty bytes of `ino` from `node` to the servers.
    fn flush_data(&mut self, node: NodeId, ino: u64, len: u64, t: SimTime, all: bool) -> SimTime {
        let take = if all {
            len
        } else {
            len.min(self.cfg.chunk_bytes)
        };
        let drained = self.cache_of(node).drain_dirty_data(ino, take);
        if drained == 0 {
            return t;
        }
        self.transfer_data(node, ino, 0, drained, true, false, t)
    }

    /// Per-byte page-pool copy cost.
    fn memcopy(&self, len: u64) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.cfg.memcopy_bytes_per_sec as f64)
    }

    /// Common fast-path cost of entering the GPFS client code.
    fn base(&self, ctx: &OpCtx) -> SimTime {
        ctx.now + self.cfg.client_op
    }
}

impl FileSystem for PfsFs {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        self.mkdir_in(ctx, path, None, mode).map(|t| t.map(|_| ()))
    }

    fn mkdir_in(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> FsResult<Option<Ino>> {
        let site = self.ns.mkdir_at(ctx, path, parent, mode)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, pino, t);
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = path.file_name().expect("mkdir target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        // New directory inode goes into this node's allocation segment.
        self.assign_packed_block(ctx.node, ino);
        self.inode_mut(ino).dir_creator = Some(ctx.node);
        t = self.install_new_inode(ctx.node, ino, t);
        t = self.throttle_dirty_meta(ctx.node, t);
        Ok(Timed::new(Some(site.ino), t))
    }

    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        let site = self.ns.rmdir_at(ctx, path)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        let mut t = self.base(ctx);
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = path.file_name().expect("rmdir target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        t = self.touch_inode_block(ctx.node, ino, TokenMode::Exclusive, true, t);
        self.tm.drop_token(Scope::DirInode(ino).token());
        Ok(Timed::new((), t))
    }

    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle> {
        self.create_in(ctx, path, None, mode)
    }

    fn create_in(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> FsResult<FileHandle> {
        let (fh, site) = self.ns.create_at(ctx, path, parent, mode)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        self.inode_mut(ino).size = 0;
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, pino, t);
        // Parent-directory serialization: the expensive token under
        // parallel shared-directory creates.
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = path.file_name().expect("create target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        // Base create work plus large-directory maintenance cost
        // (Fig 1: steady growth above 512 entries).
        t += self.cfg.create_base;
        t += self.create_growth(entries + 1);
        // The new inode packs into this node's allocation segment and
        // is born in the client cache (no server fetch).
        self.assign_packed_block(ctx.node, ino);
        t = self.install_new_inode(ctx.node, ino, t);
        t = self.throttle_dirty_meta(ctx.node, t);
        self.handles.insert(fh.0, PHandle { ino, last_end: 0 });
        Ok(Timed::new(fh, t))
    }

    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        let (fh, site) = self.ns.open_at(ctx, path, flags)?;
        let ino = site.ino.0;
        if flags.truncate {
            self.inode_mut(ino).size = 0;
        }
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, site.dir.0, t);
        // Opening checks permissions: the inode's attributes must be
        // current (shared token + cached block).
        let mode = if flags.write || flags.truncate {
            TokenMode::Exclusive
        } else {
            TokenMode::Shared
        };
        t = self.touch_inode_block(ctx.node, ino, mode, flags.write || flags.truncate, t);
        self.handles.insert(fh.0, PHandle { ino, last_end: 0 });
        Ok(Timed::new(fh, t))
    }

    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()> {
        let h = self.handles.remove(&fh.0);
        self.ns.close(ctx, fh)?;
        let mut t = self.base(ctx);
        // POSIX close flushes this file's write-behind data.
        if let Some(h) = h {
            let dirty = self.cache_of(ctx.node).dirty_data_of(h.ino);
            if dirty > 0 {
                t = self.flush_data(ctx.node, h.ino, dirty, t, true);
            }
        }
        Ok(Timed::new((), t))
    }

    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let got = self.ns.read(ctx, fh, offset, len)?.value;
        let h = *self
            .handles
            .get(&fh.0)
            .ok_or_else(|| FsError::new(vfs::error::Errno::EBADF, "read", fh.to_string()))?;
        let mut t = self.base(ctx);
        if got == 0 {
            return Ok(Timed::new(0, t));
        }
        // Shared data tokens over the touched regions; revokes a
        // remote writer (forcing its flush).
        let first = self.cfg.data_region_of(offset);
        let last = self.cfg.data_region_of(offset + got - 1);
        for region in first..=last {
            t = self.acquire(
                ctx.node,
                Scope::Data { ino: h.ino, region },
                TokenMode::Shared,
                t,
            );
        }
        let cached = self.cache_of(ctx.node).pagepool.cached(h.ino);
        let seek = offset != h.last_end;
        // The pool tracks cached bytes per file (not ranges); a read
        // is a hit only when the whole file is resident — files larger
        // than the pool always go to the servers (the "< 32 MB per
        // node" boundary of paper Table I).
        let size = self.inode(h.ino).size;
        if size > 0 && cached >= size {
            // Fully cached: page-pool copy only (the GPFS fast path
            // that makes small-file rereads near-memory-speed).
            self.counters.bump("data_cache_hits");
            t += self.memcopy(got);
        } else {
            self.counters.bump("data_cache_misses");
            t = self.transfer_data(ctx.node, h.ino, offset, got, false, seek, t);
            t += self.memcopy(got);
            self.cache_of(ctx.node).pagepool.insert(h.ino, got);
        }
        if let Some(h) = self.handles.get_mut(&fh.0) {
            h.last_end = offset + got;
        }
        Ok(Timed::new(got, t))
    }

    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let wrote = self.ns.write(ctx, fh, offset, len)?.value;
        let h = *self
            .handles
            .get(&fh.0)
            .ok_or_else(|| FsError::new(vfs::error::Errno::EBADF, "write", fh.to_string()))?;
        let mut t = self.base(ctx);
        if wrote == 0 {
            return Ok(Timed::new(0, t));
        }
        let first = self.cfg.data_region_of(offset);
        let last = self.cfg.data_region_of(offset + wrote - 1);
        for region in first..=last {
            t = self.acquire(
                ctx.node,
                Scope::Data { ino: h.ino, region },
                TokenMode::Exclusive,
                t,
            );
        }
        // Into the page pool (write-behind), then drain if over limit.
        t += self.memcopy(wrote);
        let end = offset + wrote;
        let sz = &mut self.inode_mut(h.ino).size;
        *sz = (*sz).max(end);
        self.cache_of(ctx.node).add_dirty_data(h.ino, wrote);
        self.cache_of(ctx.node).pagepool.insert(h.ino, wrote);
        while self.cache_of(ctx.node).dirty_data_total > self.cfg.writebehind_bytes {
            // Synchronous drain, chunk by chunk, of this file first.
            let target = if self.cache_of(ctx.node).dirty_data_of(h.ino) > 0 {
                h.ino
            } else {
                match self.cache_of(ctx.node).dirty_data.keys().next().copied() {
                    Some(i) => i,
                    None => break,
                }
            };
            let before = self.cache_of(ctx.node).dirty_data_total;
            t = self.flush_data(ctx.node, target, self.cfg.chunk_bytes, t, false);
            if self.cache_of(ctx.node).dirty_data_total >= before {
                break; // defensive: nothing drained
            }
        }
        if let Some(h) = self.handles.get_mut(&fh.0) {
            h.last_end = offset + wrote;
        }
        Ok(Timed::new(wrote, t))
    }

    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr> {
        let (attr, site) = self.ns.stat_at(ctx, path)?;
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, site.dir.0, t);
        t = self.touch_inode_block(ctx.node, attr.ino.0, TokenMode::Shared, false, t);
        Ok(Timed::new(attr, t))
    }

    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        let (attr, site) = self.ns.setattr_at(ctx, path, set)?;
        if let Some(sz) = set.size {
            self.inode_mut(attr.ino.0).size = sz;
        }
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, site.dir.0, t);
        // Attribute updates dirty the packed inode block under an
        // exclusive token — the false-sharing path for parallel utime.
        t = self.touch_inode_block(ctx.node, attr.ino.0, TokenMode::Exclusive, true, t);
        t = self.throttle_dirty_meta(ctx.node, t);
        Ok(Timed::new(attr, t))
    }

    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        let (entries, site) = self.ns.readdir_at(ctx, path)?;
        let dir = site.ino.0;
        let mut t = self.base(ctx);
        t = self.attach(ctx.node, dir, t);
        t = self.acquire(ctx.node, Scope::DirInode(dir), TokenMode::Shared, t);
        // Read every entry block not already cached.
        let n = entries.len() as u64;
        let nb = self.cfg.dir_blocks_for(n);
        for blk in 0..nb {
            let key = (dir, blk, nb);
            if !self.cache_of(ctx.node).dir_blocks.contains(&key) {
                t = self.fetch_meta(ctx.node, stable_hash_combine(dir, blk), t);
                self.cache_of(ctx.node).dir_blocks.touch(key);
            }
        }
        Ok(Timed::new(entries, t))
    }

    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        let site = self.ns.unlink_at(ctx, path)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        let mut t = self.base(ctx);
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = path.file_name().expect("unlink target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        t = self.touch_inode_block(ctx.node, ino, TokenMode::Exclusive, true, t);
        t = self.throttle_dirty_meta(ctx.node, t);
        // Forget data state for the (possibly) deleted inode.
        self.inode_mut(ino).size = 0;
        self.cache_of(ctx.node).pagepool.invalidate(ino);
        let dirty = self.cache_of(ctx.node).dirty_data_of(ino);
        if dirty > 0 {
            self.cache_of(ctx.node).drain_dirty_data(ino, dirty);
        }
        Ok(Timed::new((), t))
    }

    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        let (src, dst) = self.ns.rename_at(ctx, from, to)?;
        let (from_pino, from_entries) = (src.dir.0, src.entries);
        let (to_pino, to_entries) = (dst.dir.0, dst.entries);
        let mut t = self.base(ctx);
        t = self.acquire(
            ctx.node,
            Scope::DirInode(from_pino),
            TokenMode::Exclusive,
            t,
        );
        if to_pino != from_pino {
            t = self.acquire(ctx.node, Scope::DirInode(to_pino), TokenMode::Exclusive, t);
        }
        let fname = from.file_name().expect("rename source has a name");
        let tname = to.file_name().expect("rename target has a name");
        t = self.touch_dir_block(
            ctx.node,
            from_pino,
            fname,
            from_entries,
            TokenMode::Exclusive,
            true,
            t,
        );
        t = self.touch_dir_block(
            ctx.node,
            to_pino,
            tname,
            to_entries,
            TokenMode::Exclusive,
            true,
            t,
        );
        t = self.throttle_dirty_meta(ctx.node, t);
        Ok(Timed::new((), t))
    }

    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        let site = self.ns.link_at(ctx, existing, new)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        let mut t = self.base(ctx);
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = new.file_name().expect("link target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        t = self.touch_inode_block(ctx.node, ino, TokenMode::Exclusive, true, t);
        Ok(Timed::new((), t))
    }

    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        let site = self.ns.symlink_at(ctx, target, new)?;
        let (pino, entries, ino) = (site.dir.0, site.entries, site.ino.0);
        self.assign_packed_block(ctx.node, ino);
        let mut t = self.base(ctx);
        t = self.acquire(ctx.node, Scope::DirInode(pino), TokenMode::Exclusive, t);
        let name = new.file_name().expect("symlink target has a name");
        t = self.touch_dir_block(ctx.node, pino, name, entries, TokenMode::Exclusive, true, t);
        t = self.install_new_inode(ctx.node, ino, t);
        Ok(Timed::new((), t))
    }

    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        let (target, site) = self.ns.readlink_at(ctx, path)?;
        let mut t = self.base(ctx);
        t = self.touch_inode_block(ctx.node, site.ino.0, TokenMode::Shared, false, t);
        Ok(Timed::new(target, t))
    }

    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats> {
        let stats = self.ns.statfs(ctx)?.value;
        // One round trip to a server.
        let server = self.server_node(0);
        let t = self
            .cluster
            .round_trip(ctx.node, server, self.cfg.msg_bytes, self.base(ctx));
        Ok(Timed::new(stats, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cluster::ClusterBuilder;
    use netsim::ids::Pid;
    use vfs::path::vpath;

    fn small_fs() -> PfsFs {
        let cluster = ClusterBuilder::new().clients(8).servers(2).build();
        PfsFs::new(cluster, PfsConfig::default())
    }

    fn quick_cfg() -> PfsConfig {
        PfsConfig {
            attach_cost: SimDuration::ZERO,
            ..PfsConfig::default()
        }
    }

    #[test]
    fn functional_namespace_matches_memfs_semantics() {
        let mut fs = small_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 4096).unwrap();
        fs.close(&ctx, fh).unwrap();
        let attr = fs.stat(&ctx, &vpath("/d/f")).unwrap().value;
        assert_eq!(attr.size, 4096);
        assert!(fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap_err()
            .is(vfs::error::Errno::EEXIST));
        fs.unlink(&ctx, &vpath("/d/f")).unwrap();
        assert!(fs
            .stat(&ctx, &vpath("/d/f"))
            .unwrap_err()
            .is(vfs::error::Errno::ENOENT));
    }

    #[test]
    fn single_node_repeat_stat_is_cached() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        // First stat may fetch; the second must be a pure cache hit.
        let t1 = fs.stat(&ctx, &vpath("/d/f")).unwrap().end;
        let ctx2 = ctx.at(t1);
        let t2 = fs.stat(&ctx2, &vpath("/d/f")).unwrap().end;
        let second_cost = t2.saturating_since(t1);
        assert!(
            second_cost < SimDuration::from_micros(200),
            "cached stat should be local, took {second_cost}"
        );
    }

    #[test]
    fn remote_stat_revokes_creator() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let creator = OpCtx::test(NodeId(0));
        fs.mkdir(&creator, &vpath("/d"), Mode::dir_default())
            .unwrap();
        let fh = fs
            .create(&creator, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&creator, fh).unwrap();
        let other = OpCtx::test(NodeId(1));
        let before = fs.token_stats().get("revocations");
        let t = fs.stat(&other, &vpath("/d/f")).unwrap().end;
        assert!(fs.token_stats().get("revocations") > before);
        // Remote first stat pays real protocol cost.
        assert!(t.saturating_since(other.now) > SimDuration::from_micros(500));
    }

    #[test]
    fn parallel_create_costs_more_than_local() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let a = OpCtx::test(NodeId(0));
        let b = OpCtx::test(NodeId(1)).with_pid(Pid(2));
        fs.mkdir(&a, &vpath("/shared"), Mode::dir_default())
            .unwrap();
        // Node 0 creates one file; cheap-ish (first token grabs).
        let t0 = fs
            .create(&a, &vpath("/shared/f0"), Mode::file_default())
            .unwrap()
            .end;
        // Node 0 again: local tokens, cheap.
        let a2 = a.at(t0);
        let t1 = fs
            .create(&a2, &vpath("/shared/f1"), Mode::file_default())
            .unwrap()
            .end;
        let local_cost = t1.saturating_since(t0);
        // Node 1 creating in the same directory must revoke node 0's
        // parent-dir token and flush its dirty blocks.
        let b1 = b.at(t1);
        let t2 = fs
            .create(&b1, &vpath("/shared/g0"), Mode::file_default())
            .unwrap()
            .end;
        let remote_cost = t2.saturating_since(t1);
        assert!(
            remote_cost > local_cost * 3,
            "handoff {remote_cost} should dwarf local {local_cost}"
        );
    }

    #[test]
    fn attr_cache_capacity_produces_fig1_knee() {
        let cluster = ClusterBuilder::new().clients(1).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let mut now = SimTime::ZERO;
        // Create 2048 files (beyond the 1024-attr cache).
        for i in 0..2048 {
            let c = ctx.at(now);
            let t = fs
                .create(&c, &vpath(&format!("/d/f{i}")), Mode::file_default())
                .unwrap();
            let c2 = ctx.at(t.end);
            now = fs.close(&c2, t.value).unwrap().end;
        }
        // Stat them in creation order: everything was evicted by the
        // time we come back around -> misses.
        let mut misses_cost = SimDuration::ZERO;
        for i in 0..512 {
            let c = ctx.at(now);
            let t = fs.stat(&c, &vpath(&format!("/d/f{i}"))).unwrap().end;
            misses_cost += t.saturating_since(now);
            now = t;
        }
        let avg_miss = misses_cost / 512;
        assert!(
            avg_miss > SimDuration::from_micros(300),
            "beyond-cache stats should pay server fetches, got {avg_miss}"
        );
        assert!(fs.counters().get("attr_misses") > 0);
    }

    #[test]
    fn create_growth_kicks_in_above_threshold() {
        let fs = small_fs();
        assert_eq!(fs.create_growth(100), SimDuration::ZERO);
        assert_eq!(fs.create_growth(512), SimDuration::ZERO);
        let g1024 = fs.create_growth(1024);
        let g4096 = fs.create_growth(4096);
        assert!(g1024 > SimDuration::ZERO);
        assert!(g4096 > g1024 * 2);
    }

    #[test]
    fn write_behind_defers_then_close_flushes() {
        let cluster = ClusterBuilder::new().clients(1).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let ctx = OpCtx::test(NodeId(0));
        let tc = fs.create(&ctx, &vpath("/f"), Mode::file_default()).unwrap();
        let fh = tc.value;
        // 1 MiB write: far below the write-behind limit, so the write
        // itself is a memory-speed copy.
        let t0 = fs.stat(&ctx.at(tc.end), &vpath("/f")).unwrap().end;
        let c = ctx.at(t0);
        let tw = fs.write(&c, fh, 0, 1024 * 1024).unwrap().end;
        assert!(
            tw.saturating_since(t0) < SimDuration::from_millis(2),
            "buffered write too slow: {}",
            tw.saturating_since(t0)
        );
        // Close pays the network drain.
        let c2 = ctx.at(tw);
        let tc = fs.close(&c2, fh).unwrap().end;
        assert!(
            tc.saturating_since(tw) > SimDuration::from_millis(5),
            "close should flush ~1MiB over the network: {}",
            tc.saturating_since(tw)
        );
    }

    #[test]
    fn cached_read_is_memory_speed() {
        let cluster = ClusterBuilder::new().clients(1).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let ctx = OpCtx::test(NodeId(0));
        let tc = fs.create(&ctx, &vpath("/f"), Mode::file_default()).unwrap();
        let fh = tc.value;
        let mb = 1024 * 1024;
        let t0 = fs.write(&ctx.at(tc.end), fh, 0, 4 * mb).unwrap().end;
        // Read back on the same node: page-pool hit.
        let c = ctx.at(t0);
        let t1 = fs.read(&c, fh, 0, 4 * mb).unwrap().end;
        let hit_cost = t1.saturating_since(t0);
        assert!(
            hit_cost < SimDuration::from_millis(15),
            "cached read should be near memory speed, got {hit_cost}"
        );
        assert!(fs.counters().get("data_cache_hits") >= 1);
    }

    #[test]
    fn remote_read_pays_network_and_disk() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let writer = OpCtx::test(NodeId(0));
        let tc = fs
            .create(&writer, &vpath("/f"), Mode::file_default())
            .unwrap();
        let fh = tc.value;
        let mb = 1024 * 1024;
        let t0 = fs.write(&writer.at(tc.end), fh, 0, 8 * mb).unwrap().end;
        let c = writer.at(t0);
        let t1 = fs.close(&c, fh).unwrap().end;
        // Another node reads: must come from servers.
        let reader = OpCtx::test(NodeId(1)).at(t1);
        let rfh = fs
            .open(&reader, &vpath("/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        let r1 = reader.at(fs.stat(&reader, &vpath("/f")).unwrap().end);
        let t2 = fs.read(&r1, rfh, 0, 8 * mb).unwrap().end;
        let cost = t2.saturating_since(r1.now);
        // 8 MiB at ~110 MiB/s is ≥ 70 ms.
        assert!(
            cost > SimDuration::from_millis(50),
            "remote read should be network-bound, got {cost}"
        );
    }

    #[test]
    fn quiesce_clears_dirty_and_resets_time() {
        let mut fs = small_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        for i in 0..10 {
            fs.create(&ctx, &vpath(&format!("/d/f{i}")), Mode::file_default())
                .unwrap();
        }
        assert!(fs.cache_of(NodeId(0)).dirty_meta_blocks() > 0);
        fs.quiesce();
        assert_eq!(fs.cache_of(NodeId(0)).dirty_meta_blocks(), 0);
        // Resources rewound: a new op at t=0 is served immediately.
        let t = fs.stat(&ctx, &vpath("/d/f0")).unwrap().end;
        assert!(t < SimTime::from_millis(50));
    }

    /// The throttle and inode-block revocations clean the dirty inodes
    /// the per-block index lists; every listed inode must sit under the
    /// block `packed_block_of` gives it, once, and no block may be
    /// listed empty.
    #[test]
    fn dirty_attr_block_counts_match_the_dirty_set() {
        fn assert_counts(fs: &PfsFs) {
            for cache in &fs.caches {
                let mut seen = FxHashSet::default();
                for (&b, inos) in cache.dirty_attr_blocks() {
                    assert!(!inos.is_empty(), "block {b} listed with no dirty inode");
                    for &ino in inos {
                        assert_eq!(fs.packed_block_of(ino), b, "inode {ino}");
                        assert!(seen.insert(ino), "inode {ino} listed twice");
                    }
                }
            }
        }
        let cluster = ClusterBuilder::new().clients(3).servers(2).build();
        // A tiny attribute cache evicts, a low limit throttles, and
        // small packed blocks are shared between files.
        let cfg = PfsConfig {
            attr_cache_entries: 8,
            dirty_block_limit: 4,
            inodes_per_block: 4,
            ..quick_cfg()
        };
        let mut fs = PfsFs::new(cluster, cfg);
        fs.mkdir(&OpCtx::test(NodeId(0)), &vpath("/d"), Mode::dir_default())
            .unwrap();
        let mut rng = SimRng::seed_from(3);
        let mut files: Vec<VPath> = Vec::new();
        let mut now = SimTime::ZERO;
        for i in 0..600 {
            if i == 300 {
                fs.quiesce();
                now = SimTime::ZERO;
            }
            let ctx = OpCtx::test(NodeId(rng.below(3) as u32)).at(now);
            let pick = if files.is_empty() { 0 } else { rng.below(6) };
            now = match pick {
                0..=2 => {
                    let path = vpath(&format!("/d/f{i}"));
                    let t = fs.create(&ctx, &path, Mode::file_default()).unwrap();
                    files.push(path);
                    fs.close(&ctx.at(t.end), t.value).unwrap().end
                }
                3 => {
                    let path = rng.choose(&files).clone();
                    fs.utime(&ctx, &path, now, now).unwrap().end
                }
                4 => {
                    let path = rng.choose(&files).clone();
                    fs.stat(&ctx, &path).unwrap().end
                }
                _ => {
                    let path = files.swap_remove(rng.below(files.len() as u64) as usize);
                    fs.unlink(&ctx, &path).unwrap().end
                }
            };
            assert_counts(&fs);
        }
        // Every path the counts follow actually ran.
        let c = fs.counters();
        assert!(c.get("dirty_throttle_flushes") > 0, "no throttle flush");
        assert!(c.get("revoke_flushes") > 0, "no revoke flush");
        assert!(c.get("attr_misses") > 0, "no attribute cache miss");
    }

    #[test]
    fn readdir_scales_with_directory_blocks() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, quick_cfg());
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        for i in 0..256 {
            fs.create(&ctx, &vpath(&format!("/d/f{i}")), Mode::file_default())
                .unwrap();
        }
        // A *remote* node lists the directory: all blocks must be fetched.
        let other = OpCtx::test(NodeId(1));
        let t = fs.readdir(&other, &vpath("/d")).unwrap();
        assert_eq!(t.value.len(), 256);
        let cost = t.end.saturating_since(other.now);
        assert!(
            cost > SimDuration::from_millis(5),
            "remote readdir of 8 blocks should pay fetches, got {cost}"
        );
    }

    #[test]
    fn rename_and_links_work_with_timing() {
        let mut fs = small_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/a"), Mode::dir_default()).unwrap();
        fs.mkdir(&ctx, &vpath("/b"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/a/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.link(&ctx, &vpath("/a/f"), &vpath("/a/g")).unwrap();
        fs.rename(&ctx, &vpath("/a/f"), &vpath("/b/f")).unwrap();
        assert!(fs.stat(&ctx, &vpath("/b/f")).unwrap().value.is_file());
        assert_eq!(fs.stat(&ctx, &vpath("/a/g")).unwrap().value.nlink, 2);
        fs.symlink(&ctx, "/b/f", &vpath("/a/s")).unwrap();
        assert_eq!(fs.readlink(&ctx, &vpath("/a/s")).unwrap().value, "/b/f");
        let stats = fs.statfs(&ctx).unwrap().value;
        assert!(stats.inodes >= 4);
    }

    /// The model charges the directory and inode a call resolves to, so
    /// working through a symlinked parent, or opening through a trailing
    /// link, costs exactly what working on the link's target costs.
    #[test]
    fn symlinks_are_charged_as_their_targets() {
        let run = |dir: &str, link: &str| {
            let cluster = ClusterBuilder::new().clients(2).servers(2).build();
            let mut fs = PfsFs::new(cluster, PfsConfig::default());
            let (a, b) = (OpCtx::test(NodeId(0)), OpCtx::test(NodeId(1)));
            fs.mkdir(&a, &vpath("/real"), Mode::dir_default()).unwrap();
            fs.symlink(&a, "/real", &vpath("/alias")).unwrap();
            let mut ends = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..4 {
                let ctx = if i % 2 == 0 { a.at(now) } else { b.at(now) };
                let t = fs
                    .create(&ctx, &vpath(&format!("{dir}/f{i}")), Mode::file_default())
                    .unwrap();
                now = fs.close(&ctx.at(t.end), t.value).unwrap().end;
                ends.push(now);
            }
            fs.symlink(&a.at(now), "/real/f0", &vpath("/lnk")).unwrap();
            let fh = fs
                .open(&b.at(now), &vpath(link), OpenFlags::RDONLY)
                .unwrap();
            ends.push(fs.close(&b.at(fh.end), fh.value).unwrap().end);
            let t = fs.stat(&b.at(now), &vpath(&format!("{dir}/f1"))).unwrap();
            ends.push(t.end);
            let t = fs
                .unlink(&a.at(t.end), &vpath(&format!("{dir}/f2")))
                .unwrap();
            ends.push(t.end);
            let counts = |c: &Counters| c.iter().collect::<Vec<_>>();
            (ends, counts(fs.counters()), counts(fs.token_stats()))
        };
        assert_eq!(run("/alias", "/lnk"), run("/real", "/real/f0"));
    }

    #[test]
    fn attach_cost_charged_once_per_node_dir() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut fs = PfsFs::new(cluster, PfsConfig::default());
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let attaches_before = fs.counters().get("dir_attaches");
        fs.stat(&ctx, &vpath("/d/f")).unwrap();
        fs.stat(&ctx, &vpath("/d/f")).unwrap();
        let attaches_after = fs.counters().get("dir_attaches");
        // Already attached during create: stats add no attaches.
        assert_eq!(attaches_before, attaches_after);
        // A different node attaches once.
        let other = OpCtx::test(NodeId(1));
        fs.stat(&other, &vpath("/d/f")).unwrap();
        fs.stat(&other, &vpath("/d/f")).unwrap();
        assert_eq!(fs.counters().get("dir_attaches"), attaches_after + 1);
    }

    /// Runs a script of mkdirs and creates from three nodes, through
    /// `mkdir_in`/`create_in` naming each parent's inode when `hinted`,
    /// else through `mkdir`/`create`. Returns each step's handle (for a
    /// create) and end, or its errno; the counters and token stats
    /// after the script; and the inode of every path made, by `stat`
    /// after those.
    #[allow(clippy::type_complexity)]
    fn run_hint_script(
        hinted: bool,
    ) -> (
        Vec<Result<(Option<FileHandle>, SimTime), vfs::error::Errno>>,
        String,
        Vec<(VPath, Option<Ino>, Ino)>,
    ) {
        let mut fs = small_fs();
        let ctx = OpCtx::test(NodeId(0));
        let root = fs.stat(&ctx, &VPath::root()).unwrap();
        let mut dirs = std::collections::HashMap::from([(VPath::root(), root.value.ino)]);
        let mut script = vec![(true, vpath("/a")), (true, vpath("/a/b"))];
        for i in 0..60 {
            script.push((false, vpath(&format!("/a/b/f{i}"))));
            if i % 20 == 0 {
                script.push((true, vpath(&format!("/a/d{i}"))));
                script.push((false, vpath(&format!("/a/d{i}/g"))));
            }
        }
        script.push((false, vpath("/a/b/f7")));
        let mut steps = Vec::new();
        let mut made = Vec::new();
        let mut t = root.end;
        for (i, (is_dir, path)) in script.into_iter().enumerate() {
            let ctx = OpCtx::test(NodeId(i as u32 % 3)).at(t);
            let parent = path.parent().unwrap();
            let hint = dirs.get(&parent).copied().filter(|_| hinted);
            let step = if is_dir {
                let done = if hinted {
                    fs.mkdir_in(&ctx, &path, hint, Mode::dir_default())
                } else {
                    fs.mkdir(&ctx, &path, Mode::dir_default())
                        .map(|t| t.map(|()| None))
                };
                if let Ok(done) = &done {
                    if let Some(ino) = done.value {
                        dirs.insert(path.clone(), ino);
                    }
                    made.push((path, done.value));
                }
                done.map(|t| (None, t.end))
            } else {
                let done = if hinted {
                    fs.create_in(&ctx, &path, hint, Mode::file_default())
                } else {
                    fs.create(&ctx, &path, Mode::file_default())
                };
                if done.is_ok() {
                    made.push((path, None));
                }
                done.map(|t| (Some(t.value), t.end))
            };
            if let Ok((_, end)) = step {
                t = end;
            }
            steps.push(step.map_err(|e| e.errno()));
        }
        let stats = format!("{:?} {:?}", fs.counters(), fs.token_stats());
        let inodes = made
            .into_iter()
            .map(|(path, reported)| {
                let ino = fs.stat(&ctx.at(t), &path).unwrap().value.ino;
                (path, reported, ino)
            })
            .collect();
        (steps, stats, inodes)
    }

    #[test]
    fn a_parent_hint_changes_no_price() {
        let (walked, walked_stats, walked_inodes) = run_hint_script(false);
        let (hinted, hinted_stats, hinted_inodes) = run_hint_script(true);
        assert_eq!(hinted, walked);
        assert_eq!(hinted_stats, walked_stats);
        // The same inodes, and `mkdir_in` reported each directory's.
        for ((path, reported, ino), (_, unreported, walked_ino)) in
            hinted_inodes.iter().zip(&walked_inodes)
        {
            assert_eq!(ino, walked_ino, "{path}");
            assert_eq!(*unreported, None, "{path}");
            if reported.is_some() {
                assert_eq!(*reported, Some(*ino), "{path}");
            }
        }
        assert_eq!(hinted_inodes.len(), walked_inodes.len());
        // The script contends for tokens and fails a create.
        assert!(hinted_stats.contains("revoke"), "{hinted_stats}");
        assert!(hinted.contains(&Err(vfs::error::Errno::EEXIST)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the parent hint names another directory")]
    fn a_wrong_parent_hint_is_caught() {
        let mut fs = small_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/a"), Mode::dir_default()).unwrap();
        let b = fs
            .mkdir_in(&ctx, &vpath("/b"), None, Mode::dir_default())
            .unwrap()
            .value;
        let _ = fs.mkdir_in(&ctx, &vpath("/a/c"), b, Mode::dir_default());
    }
}
