//! Cost-model configuration for the parallel filesystem simulator.
//!
//! Every latency the simulator charges is derived from these knobs.
//! Defaults are calibrated against the paper's testbed measurements
//! (GPFS v3.1 on IBM JS20 blades, 1 Gb Ethernet, two file servers):
//! Fig 1 (single-node knees at ~512/1024 entries), Fig 2 (parallel
//! create ≈ 20 ms @ 4 nodes / 30 ms @ 8 nodes), Fig 5 (parallel stat
//! ≈ 5–7 ms plateau). The calibration tests in `cofs-tests` pin the
//! resulting shapes.

use simcore::time::SimDuration;

/// Tunable parameters of the GPFS-like filesystem model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfsConfig {
    // ---- metadata layout ----
    /// Directory entries packed per directory block. Lock granularity
    /// for directory updates is the block, so smaller values reduce
    /// false sharing at the cost of more blocks.
    pub dir_block_entries: u32,
    /// Inodes packed per inode block; attribute lock granularity.
    pub inodes_per_block: u32,

    // ---- client caches (per node) ----
    /// Cached directory-entry blocks per node (directory blocks share
    /// the page pool in GPFS, so this is generous; the 512-entry
    /// create knee of Fig 1 comes from `create_growth_threshold`).
    pub dir_cache_blocks: usize,
    /// Cached inode attributes per node (the GPFS stat cache). 1024
    /// entries — the paper's stat/utime/open knee. Misses re-read the
    /// individual inode from a server, so (unlike tokens) there is no
    /// per-block amortization.
    pub attr_cache_entries: usize,
    /// Page-pool (data cache) bytes per node. 64 MiB places the
    /// paper's "< 32 MB per node" boundary for cached small-file reads.
    pub pagepool_bytes: u64,
    /// Dirty metadata blocks a node may accumulate before a creating
    /// operation must synchronously flush one (write-behind throttle).
    pub dirty_block_limit: usize,
    /// Dirty data bytes a node may buffer before writes drain
    /// synchronously to the servers.
    pub writebehind_bytes: u64,

    // ---- service times ----
    /// Client-side CPU per filesystem call (VFS + GPFS client code).
    pub client_op: SimDuration,
    /// Token-manager CPU per token request.
    pub tm_service: SimDuration,
    /// Metadata-server CPU per request.
    pub server_service: SimDuration,
    /// Concurrent media operations each server's storage array can
    /// service (command queuing); keeps many-node metadata load from
    /// serializing fully on one spindle.
    pub media_workers: usize,
    /// Media read of one metadata block at a server (disk/cache mix).
    pub media_read: SimDuration,
    /// Media write of one metadata block at a server.
    pub media_write: SimDuration,
    /// How far the background flusher may fall behind before a
    /// mutating operation stalls on it.
    pub writeback_backlog: SimDuration,
    /// Base client-side cost of a create beyond `client_op` (inode
    /// initialization, log record).
    pub create_base: SimDuration,
    /// Extra create-path cost that grows with directory size
    /// (hash-tree maintenance and block splits). Charged as
    /// `cost × log2(entries / growth_threshold)` above the threshold.
    pub create_growth_cost: SimDuration,
    /// Directory size above which the create-growth term applies
    /// (paper: "steady increase above 512 entries").
    pub create_growth_threshold: u64,
    /// One-time per-(node, directory) attach cost: directory lease
    /// setup on first touch. Contributes a mild per-phase fixed cost
    /// that is most visible when few files per node are accessed
    /// (Fig 4/5 left edges).
    pub attach_cost: SimDuration,

    // ---- data path ----
    /// Page-pool memory copy bandwidth (bytes/s).
    pub memcopy_bytes_per_sec: u64,
    /// Server storage streaming bandwidth per server (bytes/s).
    pub disk_bytes_per_sec: u64,
    /// Extra per-chunk latency for non-sequential access (seek).
    pub seek_penalty: SimDuration,
    /// Transfer chunk size for data striping.
    pub chunk_bytes: u64,
    /// Byte-range token granularity for file data.
    pub data_region_bytes: u64,

    // ---- control messages ----
    /// Size of a token/metadata request message on the wire.
    pub msg_bytes: u64,
    /// Size of a metadata block on the wire (entry/inode block fetch).
    pub block_bytes: u64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            dir_block_entries: 32,
            inodes_per_block: 32,
            dir_cache_blocks: 256,
            attr_cache_entries: 1024,
            pagepool_bytes: 64 * 1024 * 1024,
            dirty_block_limit: 128,
            writebehind_bytes: 16 * 1024 * 1024,
            client_op: SimDuration::from_micros(25),
            tm_service: SimDuration::from_micros(40),
            server_service: SimDuration::from_micros(90),
            media_workers: 2,
            media_read: SimDuration::from_micros(2100),
            media_write: SimDuration::from_micros(700),
            writeback_backlog: SimDuration::from_millis(40),
            create_base: SimDuration::from_micros(280),
            create_growth_cost: SimDuration::from_micros(600),
            create_growth_threshold: 512,
            attach_cost: SimDuration::from_millis(2),
            memcopy_bytes_per_sec: 1536 * 1024 * 1024,
            disk_bytes_per_sec: 180 * 1024 * 1024,
            seek_penalty: SimDuration::from_micros(500),
            chunk_bytes: 1024 * 1024,
            data_region_bytes: 16 * 1024 * 1024,
            msg_bytes: 192,
            block_bytes: 16 * 1024,
        }
    }
}

impl PfsConfig {
    /// Number of directory blocks a directory with `entries` entries
    /// occupies (extensible hashing: powers of two).
    pub fn dir_blocks_for(&self, entries: u64) -> u64 {
        let needed = entries.div_ceil(self.dir_block_entries as u64).max(1);
        needed.next_power_of_two()
    }

    /// The inode block an inode number lives in.
    pub fn inode_block_of(&self, ino: u64) -> u64 {
        ino / self.inodes_per_block as u64
    }

    /// The data region index of a byte offset.
    pub fn data_region_of(&self, offset: u64) -> u64 {
        offset / self.data_region_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_knees() {
        let c = PfsConfig::default();
        assert_eq!(c.create_growth_threshold, 512, "create knee");
        assert!(c.dir_cache_blocks >= 64);
        assert_eq!(c.attr_cache_entries, 1024, "stat knee");
        assert_eq!(c.pagepool_bytes, 64 * 1024 * 1024);
    }

    #[test]
    fn dir_blocks_round_to_powers_of_two() {
        let c = PfsConfig::default();
        assert_eq!(c.dir_blocks_for(0), 1);
        assert_eq!(c.dir_blocks_for(1), 1);
        assert_eq!(c.dir_blocks_for(32), 1);
        assert_eq!(c.dir_blocks_for(33), 2);
        assert_eq!(c.dir_blocks_for(100), 4);
        assert_eq!(c.dir_blocks_for(1024), 32);
        assert_eq!(c.dir_blocks_for(1025), 64);
    }

    #[test]
    fn block_and_region_mapping() {
        let c = PfsConfig::default();
        assert_eq!(c.inode_block_of(0), 0);
        assert_eq!(c.inode_block_of(31), 0);
        assert_eq!(c.inode_block_of(32), 1);
        assert_eq!(c.data_region_of(0), 0);
        assert_eq!(c.data_region_of(16 * 1024 * 1024), 1);
    }
}
