//! Seeded rule violations for the CI self-check: `cofs-analyze
//! --strict crates/analyze/fixtures` must exit nonzero, proving the
//! gate actually trips. This directory is excluded from the normal
//! workspace scan (see `config::EXCLUDED_DIRS`) and is not compiled.

use std::collections::HashMap;
use std::time::Instant; // D001: std::time import

fn wall_clock() -> u64 {
    let t = Instant::now(); // D001: wall-clock read
    t.elapsed().as_nanos() as u64
}

fn ambient_rng() -> u64 {
    let mut rng = thread_rng(); // D002: ambient randomness
    rand::random() // D002
}

struct Registry {
    holders: HashMap<u64, u64>,
}

impl Registry {
    fn visit(&self) -> u64 {
        let mut sum = 0;
        for (k, v) in self.holders.iter() {
            // D003: unordered iteration
            sum += k + v;
        }
        sum
    }
}

type FxHashMap<K, V> = HashMap<K, V>;

struct Directories {
    per_dir: Vec<FxHashMap<String, u64>>,
}

impl Directories {
    fn names(&self, dir: usize) -> Vec<String> {
        // D003: an aliased hash map, nested in a Vec, iterated through an index
        self.per_dir[dir].keys().cloned().collect()
    }
}

static mut GLOBAL: u64 = 0; // D004: unaudited global mutable state

fn parallelism() {
    let lock = std::sync::Mutex::new(0u64); // D004
    let h = std::thread::spawn(move || *lock.lock().unwrap()); // D004
    let _ = h.join();
}

fn moved_away() -> u64 {
    // cofs-lint: allow(D001, the wall-clock read this covered has moved)
    7 // A002: the escape above suppresses nothing
}
