//! Host-time measurement. This module holds the benchmark's only
//! wall-clock read; virtual time never depends on it.

use std::collections::BTreeMap;
use std::rc::Rc;

/// Seconds of host time since the clock was made.
pub type Clock = Rc<dyn Fn() -> f64>;

/// Starts a host-time clock.
pub fn clock() -> Clock {
    // cofs-lint: allow(D001, bench-only wall clock; never feeds the simulation)
    let start = std::time::Instant::now();
    Rc::new(move || start.elapsed().as_secs_f64())
}

/// Host seconds a fixed reference computation takes right now. It
/// builds and probes an ordered map of path-like string keys, the kind
/// of work the simulator does, so the host's speed of the moment moves
/// both alike, and dividing one by the other cancels it. The code is
/// the benchmark's own, so no change to the program under test can
/// speed it up.
pub fn reference_s() -> f64 {
    let clock = clock();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        map.insert(format!("/ref/d{}/f.{i}", next(64)), i);
    }
    let mut found = 0u64;
    for _ in 0..120_000 {
        let key = format!("/ref/d{}/f.{}", next(64), next(40_000));
        found += map.get(&key).copied().unwrap_or(0);
    }
    std::hint::black_box(found);
    clock()
}
