//! # simcore — discrete-virtual-time simulation kernel
//!
//! Foundation crate for the COFS reproduction. Everything above this
//! crate (network model, parallel filesystem, COFS layer, benchmark
//! harnesses) computes latencies analytically in *virtual time*:
//!
//! - [`time::SimTime`] / [`time::SimDuration`] — nanosecond-resolution
//!   instants and spans;
//! - [`resource::FifoResource`] / [`resource::MultiResource`] —
//!   queueing servers (metadata CPUs, disks, token managers);
//! - [`bandwidth::BandwidthLink`] — capacity-limited links;
//! - [`rng::SimRng`] — deterministic pseudo-randomness;
//! - [`stats::Summary`] / [`stats::Counters`] — measurement capture.
//!
//! The simulation style is the *min-clock* discipline: each simulated
//! client owns a private clock; the driver (in the `vfs` crate) always
//! executes the next operation of the client with the smallest clock,
//! so shared resources observe arrivals in global time order and FIFO
//! queueing is faithful. Equal clocks run in client-index order, which
//! makes the order, and with it every queueing delay, a function of
//! the scripts alone. The driver keeps runnable clients in a heap
//! ordered by `(clock, index)`, so picking the next one costs
//! O(log n) in the number of clients.
//!
//! # Examples
//!
//! ```
//! use simcore::prelude::*;
//!
//! // A disk serving two requests that arrive together.
//! let mut disk = FifoResource::new("disk");
//! let g1 = disk.acquire(SimTime::ZERO, SimDuration::from_millis(4));
//! let g2 = disk.acquire(SimTime::ZERO, SimDuration::from_millis(4));
//! assert_eq!(g1.end.as_millis(), 4);
//! assert_eq!(g2.end.as_millis(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bandwidth;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::admission::{Admit, TokenBucket};
    pub use crate::bandwidth::{Bandwidth, BandwidthLink};
    pub use crate::resource::{FifoResource, Grant, MultiResource, TwoLaneResource};
    pub use crate::rng::{stable_hash, stable_hash_combine, SimRng};
    pub use crate::stats::{Counters, Summary};
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod integration {
    use crate::prelude::*;

    /// A queueing sanity check tying the pieces together: ten clients
    /// hammer one server; mean latency must exceed service time and
    /// total busy time must equal the aggregate demand.
    #[test]
    fn saturated_server_builds_queue() {
        let mut server = FifoResource::new("mds");
        let mut lat = Summary::new("latency");
        let service = SimDuration::from_micros(100);
        for i in 0..10u64 {
            let arrival = SimTime::from_micros(i * 10); // faster than service
            let g = server.acquire(arrival, service);
            lat.record(g.latency(arrival));
        }
        assert!(lat.mean() > service);
        assert_eq!(server.busy_time(), service * 10);
        assert!(server.total_wait() > SimDuration::ZERO);
    }
}
