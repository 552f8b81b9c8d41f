//! # metadb — metadata-database cost model (Mnesia substitute)
//!
//! The paper implements the COFS metadata service on the Mnesia
//! database from Erlang/OTP: "metadata is maintained as a small set of
//! database tables having the information about files and directories,
//! and pure metadata operations are translated to the appropriate
//! database queries." Mnesia is unavailable here. What the simulator
//! needs from it is its *price*:
//!
//! - [`cost::DbCostModel`] — virtual-time service demands mirroring
//!   Mnesia disc-copies (memory reads, log-append writes, periodic
//!   fsync to the locally attached ext3 disk);
//! - [`cost::DbCostTracker`] — the commit counter that lands the
//!   periodic fsync deterministically, plus group-commit, memoization
//!   and journal accounting.
//!
//! That price is all this crate holds: its one module is [`cost`].
//! The COFS metadata service (`cofs::mds`) keeps its two tables itself
//! (a dense inode vector and one hashed directory-entry map per
//! directory, keyed by name; a listing sorts what it copies), counts
//! the rows each operation reads and writes, and charges those counts
//! through this cost model against a queueing resource, so the
//! service's CPU is a proper bottleneck at scale.
//!
//! # Examples
//!
//! ```
//! use metadb::cost::{DbCostModel, DbCostTracker};
//!
//! let model = DbCostModel::default();
//! let mut tracker = DbCostTracker::new();
//! // A create resolving four rows and writing three:
//! let read = tracker.query_cost(&model, 4);
//! let write = tracker.txn_cost(&model, 3);
//! assert_eq!(read, model.lookup * 4);
//! assert_eq!(write, model.commit + model.write * 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::cost::{DbCostModel, DbCostTracker};
}
