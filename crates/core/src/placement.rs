//! The COFS placement driver.
//!
//! Maps regular files in the virtual view onto the underlying
//! filesystem layout. The paper's policy (§III-B):
//!
//! > "The currently implemented policy computes the underlying path
//! > name at creation time from a hash function applied to a
//! > combination of the following parameters: the node issuing the
//! > creation request, the parent directory in the virtual view of the
//! > file hierarchy, and the process creating the file. […] a
//! > randomization factor is used, resulting in files being further
//! > distributed in a subdirectory level below the path determined by
//! > the hash function. […] we applied a limit of 512 entries to the
//! > underlying directory size."

use netsim::ids::{NodeId, Pid};
use simcore::rng::{stable_hash, stable_hash_combine, SimRng};
use std::collections::HashMap;
use vfs::path::VPath;

/// Chooses the underlying directory for each newly created file.
///
/// Implementations are deterministic state machines (any randomness
/// comes from an owned, seeded RNG) so experiment runs are exactly
/// reproducible.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Returns the underlying directory for a file named `name`
    /// created by (`node`, `pid`) under virtual parent `vparent`. The
    /// caller appends the (unique) underlying file name itself.
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &VPath, name: &str) -> VPath;

    /// A short label for reports and ablation tables.
    fn label(&self) -> &'static str;
}

/// The paper's hashed placement policy.
///
/// Layout: `<root>/n<node>/h<hash(node, vparent, pid)>/d<slot>` where
/// `slot` is a randomized subdirectory that is retired once it
/// accumulates `dir_limit` entries. The per-node level keeps even the
/// *creation of hash directories themselves* conflict-free: every
/// directory a node ever makes lives under a parent only it touches
/// (without it, concurrent first-creates from many processes would
/// ping-pong the root directory's token — the very pathology COFS
/// exists to avoid).
///
/// # Examples
///
/// ```
/// use cofs::placement::{HashedPlacement, PlacementPolicy};
/// use netsim::ids::{NodeId, Pid};
/// use vfs::path::vpath;
///
/// let mut p = HashedPlacement::new(vpath("/.cofs"), 512, 8, 42);
/// let a = p.place(NodeId(0), Pid(1), &vpath("/shared"), "x");
/// let b = p.place(NodeId(1), Pid(1), &vpath("/shared"), "y");
/// // Different nodes map to different underlying directories.
/// assert_ne!(a.parent(), b.parent());
/// ```
#[derive(Debug)]
pub struct HashedPlacement {
    root: VPath,
    dir_limit: u32,
    spread: u32,
    rng: SimRng,
    /// Every slot directory opened so far, keyed by `(node, hash,
    /// slot)` — the three numbers its path spells out.
    slot_dirs: HashMap<(u32, u64, u32), SlotDir>,
    /// Next fresh slot number per hash directory.
    next_slot: HashMap<u64, u32>,
    /// Active slot per (hash dir, spread lane).
    lanes: HashMap<(u64, u32), u32>,
}

/// One underlying slot directory: its path, built once when the slot
/// opens, and the entries placed in it so far.
#[derive(Debug)]
struct SlotDir {
    path: VPath,
    entries: u32,
}

impl HashedPlacement {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `dir_limit` or `spread` is zero.
    pub fn new(root: VPath, dir_limit: u32, spread: u32, seed: u64) -> Self {
        assert!(dir_limit > 0, "directory limit must be positive");
        assert!(spread > 0, "spread must be positive");
        HashedPlacement {
            root,
            dir_limit,
            spread,
            rng: SimRng::seed_from(seed),
            slot_dirs: HashMap::new(),
            next_slot: HashMap::new(),
            lanes: HashMap::new(),
        }
    }

    fn hash_of(node: NodeId, pid: Pid, vparent: &VPath) -> u64 {
        let h = stable_hash(vparent.as_str().as_bytes());
        stable_hash_combine(stable_hash_combine(h, node.index() as u64), pid.0 as u64)
    }

    /// Entries placed so far in `dir` (for tests and invariants).
    pub fn entries_in(&self, dir: &VPath) -> u32 {
        self.slot_key(dir)
            .and_then(|key| self.slot_dirs.get(&key))
            .filter(|slot| slot.path == *dir)
            .map_or(0, |slot| slot.entries)
    }

    /// The `(node, hash, slot)` key spelled by `dir` if it has the
    /// shape `<root>/n<node>/h<hash>/d<slot>`.
    fn slot_key(&self, dir: &VPath) -> Option<(u32, u64, u32)> {
        let rest = if self.root.is_root() {
            dir.as_str()
        } else {
            dir.as_str().strip_prefix(self.root.as_str())?
        };
        let mut parts = rest.strip_prefix('/')?.split('/');
        let node = parts.next()?.strip_prefix('n')?.parse().ok()?;
        let hash = u64::from_str_radix(parts.next()?.strip_prefix('h')?, 16).ok()?;
        let slot = parts.next()?.strip_prefix('d')?.parse().ok()?;
        parts.next().is_none().then_some((node, hash, slot))
    }

    /// The configured per-directory limit.
    pub fn dir_limit(&self) -> u32 {
        self.dir_limit
    }
}

impl PlacementPolicy for HashedPlacement {
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &VPath, _name: &str) -> VPath {
        let h = Self::hash_of(node, pid, vparent);
        // Randomization level: pick a lane, use its active slot; retire
        // the slot when it reaches the limit.
        let lane = self.rng.below(self.spread as u64) as u32;
        let slot = *self.lanes.entry((h, lane)).or_insert_with(|| {
            let s = self.next_slot.entry(h).or_insert(0);
            let v = *s;
            *s += 1;
            v
        });
        let dir = self
            .slot_dirs
            .entry((node.0, h, slot))
            .or_insert_with(|| SlotDir {
                path: self
                    .root
                    .join(&format!("n{}", node.index()))
                    .join(&format!("h{h:016x}"))
                    .join(&format!("d{slot}")),
                entries: 0,
            });
        dir.entries += 1;
        if dir.entries >= self.dir_limit {
            // Retire this slot: the lane gets a fresh directory next time.
            let s = self.next_slot.entry(h).or_insert(0);
            let fresh = *s;
            *s += 1;
            self.lanes.insert((h, lane), fresh);
        }
        dir.path.clone()
    }

    fn label(&self) -> &'static str {
        "hashed(node,parent,pid)+rand"
    }
}

/// Ablation policy: map every file into one underlying directory (no
/// decoupling — the layout the applications wanted in the first
/// place). Used to isolate how much of COFS's win comes from placement
/// versus the metadata service.
#[derive(Debug)]
pub struct PassthroughPlacement {
    root: VPath,
}

impl PassthroughPlacement {
    /// Creates the policy rooted at `root`.
    pub fn new(root: VPath) -> Self {
        PassthroughPlacement { root }
    }
}

impl PlacementPolicy for PassthroughPlacement {
    fn place(&mut self, _node: NodeId, _pid: Pid, vparent: &VPath, _name: &str) -> VPath {
        // Mirror the virtual parent under the root: a single shared
        // underlying directory per virtual directory.
        let mut dir = self.root.clone();
        for c in vparent.components() {
            dir = dir.join(c);
        }
        dir
    }

    fn label(&self) -> &'static str {
        "passthrough"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::path::vpath;

    fn policy() -> HashedPlacement {
        HashedPlacement::new(vpath("/.cofs"), 512, 8, 7)
    }

    #[test]
    fn same_inputs_same_hash_dir() {
        let mut p = policy();
        let a = p.place(NodeId(0), Pid(1), &vpath("/v"), "a");
        let b = p.place(NodeId(0), Pid(1), &vpath("/v"), "b");
        // Same hash dir (parent of the slot dir) even if lanes differ.
        assert_eq!(a.parent().unwrap().parent(), b.parent().unwrap().parent());
        assert!(a.starts_with(&vpath("/.cofs")));
    }

    #[test]
    fn node_parent_pid_all_matter() {
        let mut p = policy();
        let base = p.place(NodeId(0), Pid(1), &vpath("/v"), "f");
        let other_node = p.place(NodeId(1), Pid(1), &vpath("/v"), "f");
        let other_pid = p.place(NodeId(0), Pid(2), &vpath("/v"), "f");
        let other_parent = p.place(NodeId(0), Pid(1), &vpath("/w"), "f");
        let hash_dir = |p: &VPath| p.parent().unwrap().as_str().to_string();
        assert!(base.starts_with(&vpath("/.cofs/n0")));
        assert!(other_node.starts_with(&vpath("/.cofs/n1")));
        assert_ne!(hash_dir(&base), hash_dir(&other_node));
        assert_ne!(hash_dir(&base), hash_dir(&other_pid));
        assert_ne!(hash_dir(&base), hash_dir(&other_parent));
    }

    #[test]
    fn dir_limit_is_never_exceeded() {
        let mut p = HashedPlacement::new(vpath("/.cofs"), 64, 4, 3);
        let mut counts: HashMap<VPath, u32> = HashMap::new();
        for i in 0..2000 {
            let d = p.place(NodeId(0), Pid(1), &vpath("/v"), &format!("f{i}"));
            *counts.entry(d).or_insert(0) += 1;
        }
        for (d, n) in &counts {
            assert!(*n <= 64, "{d} holds {n} > limit");
            assert_eq!(p.entries_in(d), *n);
        }
        // The spread keeps several directories active.
        assert!(counts.len() >= 2000 / 64);
    }

    #[test]
    fn spread_uses_multiple_lanes() {
        let mut p = policy();
        let mut slots = std::collections::HashSet::new();
        for i in 0..64 {
            let d = p.place(NodeId(0), Pid(1), &vpath("/v"), &format!("f{i}"));
            slots.insert(d.file_name().unwrap().to_string());
        }
        assert!(slots.len() > 1, "randomization should spread files");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = HashedPlacement::new(vpath("/.cofs"), 512, 8, 99);
        let mut b = HashedPlacement::new(vpath("/.cofs"), 512, 8, 99);
        for i in 0..100 {
            let name = format!("f{i}");
            assert_eq!(
                a.place(NodeId(2), Pid(3), &vpath("/v"), &name),
                b.place(NodeId(2), Pid(3), &vpath("/v"), &name)
            );
        }
    }

    #[test]
    fn passthrough_mirrors_parent() {
        let mut p = PassthroughPlacement::new(vpath("/.under"));
        let d = p.place(NodeId(5), Pid(9), &vpath("/a/b"), "f");
        assert_eq!(d, vpath("/.under/a/b"));
        assert_eq!(p.label(), "passthrough");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_panics() {
        HashedPlacement::new(vpath("/x"), 0, 8, 1);
    }
}
