//! # cofs — COmposite File System
//!
//! The paper's primary contribution: a virtualization layer above a
//! native (parallel) filesystem that decouples the user-visible
//! namespace and metadata management from the underlying directory
//! tree, "mitigating bottlenecks by taking advantage of the native
//! file system optimizations and limiting the effects of potentially
//! harmful application behavior".
//!
//! Architecture (paper Fig 3):
//!
//! - a FUSE-style interposition layer on each client diverts every
//!   filesystem request ([`fs::CofsFs`]);
//! - the **placement driver** ([`placement`]) maps new regular files to
//!   underlying directories chosen by `hash(node, virtual parent,
//!   pid)` with a randomized second level and a 512-entry cap, so the
//!   native filesystem only ever sees small, mostly single-node
//!   directories;
//! - the **metadata driver** forwards pure metadata operations
//!   (stat, utime, chmod, readdir, rename, links, directories) to a
//!   **metadata service** built on database tables ([`mds`], priced
//!   by [`config::DbCostModel`] in place of Erlang/Mnesia; each shard
//!   counts its row work in [`mds_cluster::ShardUsage`]) — centralized
//!   in the paper, and optionally *sharded* here ([`mds_cluster`]): the paper
//!   frames the virtualization layer as the enabler for distributing
//!   metadata across multiple servers, and [`mds_cluster::MdsCluster`]
//!   models exactly that extension;
//! - only file-content requests (open/read/write/close) reach the
//!   underlying filesystem, via the mapping stored in the service.
//!
//! # Examples
//!
//! ```
//! use cofs::prelude::*;
//! use netsim::ids::NodeId;
//! use simcore::time::SimDuration;
//! use vfs::fs::{FileSystem, OpCtx};
//! use vfs::memfs::MemFs;
//! use vfs::path::vpath;
//! use vfs::types::Mode;
//!
//! // COFS over a plain in-memory filesystem (it layers over anything
//! // implementing `FileSystem` — the benchmarks use `pfs::PfsFs`).
//! let net = MdsNetwork::uniform(SimDuration::from_micros(250));
//! let mut fs = CofsFs::new(MemFs::new(), CofsConfig::default(), net, 1);
//! let ctx = OpCtx::test(NodeId(0));
//! fs.mkdir(&ctx, &vpath("/results"), Mode::dir_default())?;
//! let fh = fs.create(&ctx, &vpath("/results/run0.dat"), Mode::file_default())?.value;
//! fs.write(&ctx, fh, 0, 4096)?;
//! fs.close(&ctx, fh)?;
//! assert_eq!(fs.stat(&ctx, &vpath("/results/run0.dat"))?.value.size, 4096);
//! # Ok::<(), vfs::error::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client_cache;
pub mod config;
pub mod elastic;
pub mod fault;
pub mod fs;
pub mod mds;
pub mod mds_cluster;
pub mod placement;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::batch::{BatchConfig, BatchPipeline, BatchStats};
    pub use crate::client_cache::{CacheStats, ClientCache, ClientCacheConfig, EntryKind};
    pub use crate::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
    pub use crate::elastic::{ElasticConfig, ElasticPolicy};
    pub use crate::fault::{FaultPlan, FaultStats, FaultSummary, RetryConfig, RetryStats};
    pub use crate::fs::CofsFs;
    pub use crate::mds::Mds;
    pub use crate::mds_cluster::{MdsCluster, Shape, ShardId, ShardPolicy, ShardUsage};
    pub use crate::placement::{HashedPlacement, PassthroughPlacement, PlacementPolicy};
}

#[cfg(test)]
mod cost;
