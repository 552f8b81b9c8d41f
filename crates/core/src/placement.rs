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
//!
//! A policy also owns the hidden directories it hands out, so no create
//! looks one up by its path text. With the directory, [`Placed`] says
//! how many of its trailing levels the underlying filesystem does not
//! have yet, and the underlying inode of the deepest level it has. The
//! caller makes the missing levels root-down, hinting each at the
//! inode of the level above ([`vfs::fs::FileSystem::mkdir_in`]), then
//! reports the chain with [`PlacementPolicy::made`] and creates the
//! file with the directory's inode as its parent hint
//! ([`vfs::fs::FileSystem::create_in`]). A hint is only a shortcut (see
//! "Parent hints" in [`vfs::fs`]): an inode the underlying filesystem
//! does not report stays `None`, and that filesystem then walks the
//! path. A level that already exists (`EEXIST`) counts as made. A chain
//! in which any other mkdir failed is not reported, so the next create
//! that needs it makes it again.

use netsim::ids::{NodeId, Pid};
use simcore::hash::FxHashMap;
use simcore::rng::{stable_hash, stable_hash_combine, SimRng};
use vfs::path::VPath;
use vfs::types::Ino;

/// Room for a formatted entry name: a letter and a `u64`, in decimal
/// or in hex.
pub(crate) const NAME_BUF: usize = 21;

/// `args` formatted in `buf`: a placement directory's or an underlying
/// file's name, so that joining it to a path is the only allocation.
pub(crate) fn format_name<'b>(buf: &'b mut [u8; NAME_BUF], args: std::fmt::Arguments) -> &'b str {
    use std::io::Write as _;
    let mut rest = &mut buf[..];
    rest.write_fmt(args).expect("a letter and a u64 fit");
    let len = NAME_BUF - rest.len();
    std::str::from_utf8(&buf[..len]).expect("formatted text")
}

/// Where [`PlacementPolicy::place`] puts a file.
#[derive(Debug, Clone, Copy)]
pub struct Placed<'p> {
    /// The underlying directory; the caller appends the (unique)
    /// underlying file name itself.
    pub dir: &'p VPath,
    /// How many of `dir`'s trailing levels are not made yet: 0 once
    /// `dir` is, at most `dir.depth()`.
    pub missing: usize,
    /// The underlying inode of the deepest level made (`dir` itself
    /// when `missing` is 0), if the underlying filesystem reported it;
    /// `None` when no level is made yet.
    pub ino: Option<Ino>,
}

/// Chooses the underlying directory for each newly created file.
///
/// Implementations are deterministic state machines (any randomness
/// comes from an owned, seeded RNG) so experiment runs are exactly
/// reproducible.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Places a file named `name` created by (`node`, `pid`) under the
    /// virtual parent whose path text is `vparent`.
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &str, name: &str) -> Placed<'_>;

    /// Records that the missing levels of the directory the last
    /// [`Self::place`] returned are made. `inos` holds, root-down, the
    /// inode the underlying filesystem reported for each (`None` if
    /// none); its length is that placement's `missing`.
    fn made(&mut self, inos: &[Option<Ino>]);

    /// A short label for reports and ablation tables.
    fn label(&self) -> &'static str;
}

/// One hidden directory level: `None` until it is made, then its
/// underlying inode if the underlying filesystem reported one.
type Level = Option<Option<Ino>>;

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
/// use vfs::types::Ino;
///
/// let mut p = HashedPlacement::new(vpath("/.cofs"), 512, 8, 42);
/// let a = p.place(NodeId(0), Pid(1), "/shared", "x");
/// // Nothing is made yet: `/.cofs`, its node, hash and slot levels.
/// assert_eq!((a.missing, a.ino), (4, None));
/// let a = a.dir.clone();
/// p.made(&[Some(Ino(2)), Some(Ino(3)), Some(Ino(4)), Some(Ino(5))]);
/// let b = p.place(NodeId(1), Pid(1), "/shared", "y");
/// // Different nodes map to different underlying directories, and a
/// // new node needs its node, hash and slot levels under `/.cofs`.
/// assert_ne!(a.parent(), b.dir.parent());
/// assert_eq!((b.missing, b.ino), (3, Some(Ino(2))));
/// ```
#[derive(Debug)]
pub struct HashedPlacement {
    root: VPath,
    dir_limit: u32,
    spread: u32,
    rng: SimRng,
    /// The root's own levels, made all at once by the first chain
    /// (always made when the root is `/`).
    root_dir: Level,
    /// Each node's directory `<root>/n<node>`, indexed by node.
    node_dirs: Vec<Level>,
    /// One record per `(node, hash)` group: its hash directory and
    /// slots.
    groups: FxHashMap<(u32, u64), Group>,
    /// The group and slot the last placement returned, for `made`.
    last: ((u32, u64), u32),
}

/// The hash directory `<root>/n<node>/h<hash>` of one `(node, hash)`
/// group and the slot directories under it.
#[derive(Debug)]
struct Group {
    /// Active slot per spread lane; `None` until the lane first places.
    lanes: Vec<Option<u32>>,
    /// The hash directory.
    dir: Level,
    /// Every slot opened so far, indexed by slot number; the next
    /// fresh slot is the length.
    slots: Vec<Slot>,
}

/// One slot directory: its path, built once when the slot opens, the
/// entries placed in it so far, and whether it is made.
#[derive(Debug)]
struct Slot {
    path: VPath,
    entries: u32,
    dir: Level,
}

impl Group {
    /// Opens the next fresh slot of hash `h`'s group on `node` and
    /// returns its number.
    fn open(&mut self, root: &VPath, node: NodeId, h: u64) -> u32 {
        let slot = self.slots.len() as u32;
        let mut buf = [0; NAME_BUF];
        let path = root.join(format_name(&mut buf, format_args!("n{}", node.index())));
        let path = path.join(format_name(&mut buf, format_args!("h{h:016x}")));
        let path = path.join(format_name(&mut buf, format_args!("d{slot}")));
        self.slots.push(Slot {
            path,
            entries: 0,
            dir: None,
        });
        slot
    }
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
        let root_dir = root.is_root().then_some(None);
        HashedPlacement {
            root,
            dir_limit,
            spread,
            rng: SimRng::seed_from(seed),
            root_dir,
            node_dirs: Vec::new(),
            groups: FxHashMap::default(),
            last: ((0, 0), 0),
        }
    }

    fn hash_of(node: NodeId, pid: Pid, vparent: &str) -> u64 {
        let h = stable_hash(vparent.as_bytes());
        stable_hash_combine(stable_hash_combine(h, node.index() as u64), pid.0 as u64)
    }

    /// Entries placed so far in `dir` (for tests and invariants).
    pub fn entries_in(&self, dir: &VPath) -> u32 {
        self.slot_key(dir)
            .and_then(|(node, hash, slot)| self.groups.get(&(node, hash))?.slots.get(slot as usize))
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
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &str, _name: &str) -> Placed<'_> {
        let h = Self::hash_of(node, pid, vparent);
        // Randomization level: pick a lane, use its active slot; retire
        // the slot when it reaches the limit.
        let lane = self.rng.below(self.spread as u64) as usize;
        let key = (node.0, h);
        let spread = self.spread as usize;
        let group = self.groups.entry(key).or_insert_with(|| Group {
            lanes: vec![None; spread],
            dir: None,
            slots: Vec::new(),
        });
        let slot = match group.lanes[lane] {
            Some(slot) => slot,
            None => group.open(&self.root, node, h),
        };
        group.slots[slot as usize].entries += 1;
        group.lanes[lane] = if group.slots[slot as usize].entries >= self.dir_limit {
            // Retire this slot: the lane gets a fresh directory next time.
            Some(group.open(&self.root, node, h))
        } else {
            Some(slot)
        };
        self.last = (key, slot);
        let dir = &group.slots[slot as usize];
        // The deepest made level, from the slot up to the root.
        let node_dir = self.node_dirs.get(node.index()).copied().flatten();
        let levels = [dir.dir, group.dir, node_dir, self.root_dir];
        let (missing, ino) = levels
            .iter()
            .enumerate()
            .find_map(|(missing, level)| Some((missing, (*level)?)))
            .unwrap_or_else(|| (3 + self.root.depth(), None));
        Placed {
            dir: &dir.path,
            missing,
            ino,
        }
    }

    fn made(&mut self, inos: &[Option<Ino>]) {
        let ((node, h), slot) = self.last;
        let group = self.groups.get_mut(&(node, h)).expect("made after place");
        // Bottom-up: the slot, its hash directory, its node's directory
        // and the root's deepest level, which stands for all the root's.
        let mut made = inos.iter().rev().map(|&ino| Some(ino));
        let mut record = |level: &mut Level| {
            if let Some(now) = made.next() {
                *level = now;
            }
        };
        record(&mut group.slots[slot as usize].dir);
        record(&mut group.dir);
        let node = node as usize;
        if self.node_dirs.len() <= node {
            self.node_dirs.resize(node + 1, None);
        }
        record(&mut self.node_dirs[node]);
        record(&mut self.root_dir);
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
    /// The directory the last placement returned.
    dir: VPath,
    /// Every directory made so far, with its inode if reported.
    made: FxHashMap<VPath, Option<Ino>>,
}

impl PassthroughPlacement {
    /// Creates the policy rooted at `root`.
    pub fn new(root: VPath) -> Self {
        PassthroughPlacement {
            dir: root.clone(),
            root,
            made: FxHashMap::default(),
        }
    }
}

impl PlacementPolicy for PassthroughPlacement {
    fn place(&mut self, _node: NodeId, _pid: Pid, vparent: &str, _name: &str) -> Placed<'_> {
        // Mirror the virtual parent under the root: a single shared
        // underlying directory per virtual directory.
        let mut dir = self.root.clone();
        for c in vparent.split('/').filter(|c| !c.is_empty()) {
            dir = dir.join(c);
        }
        self.dir = dir;
        // Walk up to the deepest made level (or the root `/`).
        let (mut missing, mut ino) = (0, None);
        let mut level = Some(self.dir.as_str());
        while let Some(d) = level.filter(|&d| d != "/") {
            if let Some(&made) = self.made.get(d) {
                ino = made;
                break;
            }
            missing += 1;
            level = d.rfind('/').map(|i| if i == 0 { "/" } else { &d[..i] });
        }
        Placed {
            dir: &self.dir,
            missing,
            ino,
        }
    }

    fn made(&mut self, inos: &[Option<Ino>]) {
        let mut dir = self.dir.clone();
        for &ino in inos.iter().rev() {
            let up = dir.parent();
            self.made.insert(dir, ino);
            dir = up.unwrap_or_else(VPath::root);
        }
    }

    fn label(&self) -> &'static str {
        "passthrough"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use vfs::path::vpath;

    fn policy() -> HashedPlacement {
        HashedPlacement::new(vpath("/.cofs"), 512, 8, 7)
    }

    /// The directory `p` places the file in.
    fn place(
        p: &mut dyn PlacementPolicy,
        node: NodeId,
        pid: Pid,
        vparent: &str,
        name: &str,
    ) -> VPath {
        p.place(node, pid, vparent, name).dir.clone()
    }

    #[test]
    fn same_inputs_same_hash_dir() {
        let mut p = policy();
        let a = place(&mut p, NodeId(0), Pid(1), "/v", "a");
        let b = place(&mut p, NodeId(0), Pid(1), "/v", "b");
        // Same hash dir (parent of the slot dir) even if lanes differ.
        assert_eq!(a.parent().unwrap().parent(), b.parent().unwrap().parent());
        assert!(a.starts_with(&vpath("/.cofs")));
    }

    #[test]
    fn node_parent_pid_all_matter() {
        let mut p = policy();
        let base = place(&mut p, NodeId(0), Pid(1), "/v", "f");
        let other_node = place(&mut p, NodeId(1), Pid(1), "/v", "f");
        let other_pid = place(&mut p, NodeId(0), Pid(2), "/v", "f");
        let other_parent = place(&mut p, NodeId(0), Pid(1), "/w", "f");
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
            let d = place(&mut p, NodeId(0), Pid(1), "/v", &format!("f{i}"));
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
            let d = place(&mut p, NodeId(0), Pid(1), "/v", &format!("f{i}"));
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
                place(&mut a, NodeId(2), Pid(3), "/v", &name),
                place(&mut b, NodeId(2), Pid(3), "/v", &name)
            );
        }
    }

    #[test]
    fn passthrough_mirrors_parent() {
        let mut p = PassthroughPlacement::new(vpath("/.under"));
        let d = place(&mut p, NodeId(5), Pid(9), "/a/b", "f");
        assert_eq!(d, vpath("/.under/a/b"));
        assert_eq!(p.label(), "passthrough");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_panics() {
        HashedPlacement::new(vpath("/x"), 0, 8, 1);
    }
}
