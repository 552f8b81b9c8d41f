//! The COFS metadata service.
//!
//! Maintains the *virtual* view of the filesystem hierarchy and all
//! pure metadata, as database tables (paper §III-C): an inode table
//! and a directory-entry table, with "pure metadata operations …
//! translated to the appropriate database queries". Crucially, the
//! service stores no block locations: file contents stay entirely in
//! the underlying filesystem, reachable through each file's `mapping`
//! path.
//!
//! Inode numbers are handed out sequentially and never reused, so the
//! inode table is a dense vector indexed by number. The entry table is
//! one hash map per directory ([`simcore::hash::FxHashMap`], keyed by
//! [`Name`], which keeps short names inline in the bucket), kept in a
//! second vector indexed the same way — the shape of the paper's keyed
//! reads of a `(parent, name)` row. Path resolution walks the path's
//! text and probes each directory's map with the borrowed component's
//! bytes, so a lookup is one hash probe per component and allocates
//! nothing; a name is copied only when it is inserted. Name
//! order is produced in one place, [`Mds::entries`], which sorts the
//! listing it copies; counting a directory ([`Mds::entry_len`]) never
//! sorts. Each entry carries its child's type, so listing a directory
//! reads no child inode, and a walk spots a symlink without reading its
//! inode. Reads return borrowed records ([`Mds::getattr`],
//! [`Mds::lookup`]); callers copy what they keep.
//!
//! The service is deliberately *state only*: every operation returns
//! the [`DbOps`] it performed (rows read, rows written) and the
//! composite filesystem charges virtual time for them against the
//! service's CPU queue and the network.

use simcore::hash::FxHashMap;
use simcore::rng::{stable_hash, stable_hash_combine};
use simcore::time::SimTime;
use vfs::error::{Errno, FsError};
use vfs::path::{splice_link, walk, Name, VPath};
use vfs::types::{DirEntry, FileAttr, FileType, Gid, Ino, Mode, SetAttr, Uid, MAX_NAME_LEN};

/// Maximum symlink indirections during resolution (matches `MemFs`).
const MAX_SYMLINK_DEPTH: u32 = 8;

/// Nominal directory-entry size for directory `size` attributes
/// (matches `MemFs` so differential tests see identical attrs).
const DIR_ENTRY_SIZE: u64 = 32;

/// A row in the virtual-inode table.
#[derive(Debug, Clone, PartialEq)]
pub struct InodeRec {
    /// Virtual inode number.
    pub ino: u64,
    /// Object kind.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Owner.
    pub uid: Uid,
    /// Group.
    pub gid: Gid,
    /// Hard-link count.
    pub nlink: u32,
    /// File size (updated on close; directories report entries × 32).
    pub size: u64,
    /// Entry count for directories (authoritative).
    pub entries: u64,
    /// Access time.
    pub atime: SimTime,
    /// Modification time.
    pub mtime: SimTime,
    /// Change time.
    pub ctime: SimTime,
    /// Symlink target, for symlinks.
    pub target: Option<String>,
    /// Underlying filesystem path, for regular files.
    pub mapping: Option<VPath>,
}

impl InodeRec {
    /// The `stat`-visible attributes of this record.
    pub fn attr(&self) -> FileAttr {
        FileAttr {
            ino: Ino(self.ino),
            ftype: self.ftype,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            nlink: self.nlink,
            size: if self.ftype == FileType::Directory {
                self.entries * DIR_ENTRY_SIZE
            } else if let Some(t) = &self.target {
                t.len() as u64
            } else {
                self.size
            },
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }
}

/// A row in the directory-entry table, keyed by name in its parent's
/// map. The child's type rides along (an inode never changes type), so a
/// listing needs no inode lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dentry {
    ino: u64,
    ftype: FileType,
}

/// Database work performed by one service call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbOps {
    /// Rows read (lookups and scan steps).
    pub reads: u64,
    /// Rows written (inserts, updates, deletes).
    pub writes: u64,
}

/// Stable identifier of one database row in the cost model's eyes —
/// what per-batch read memoization and write coalescing dedupe on.
pub type RowKey = u64;

/// The keys of the rows an operation shares with other operations in
/// its batch. An op carries two sets: the *memoizable* rows its path
/// resolution reads ([`Self::resolution_chain`]) and the *coalescable*
/// row it writes ([`Self::parent_row`]). The shard charges each
/// distinct read row once per batch
/// ([`crate::mds_cluster::MdsCluster::request`]) and, under
/// write-behind, applies each distinct written row once
/// ([`crate::batch::coalesce_writes`]); both count repeats with
/// [`Self::merge`].
///
/// Keys identify rows for *pricing*, not for semantics: the unified
/// namespace is still consulted synchronously for every operation, so
/// neither can change an outcome byte. Invariant: a set never names
/// more rows than its operation's matching [`DbOps`] count
/// (op-private rows — the duplicate-name probe, the final attribute
/// read, the child inode, the new dentry — carry no key and are always
/// charged), and its keys are distinct, so a batch of one memoizes and
/// coalesces nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    keys: Vec<RowKey>,
}

impl RowSet {
    /// A set naming no rows (every read charged, every write applied).
    pub fn empty() -> Self {
        RowSet::default()
    }

    /// A set over explicit keys (harnesses and property tests);
    /// duplicates are dropped, preserving first-occurrence order, so
    /// the distinct-keys invariant holds however the keys were drawn.
    pub fn from_keys(keys: impl IntoIterator<Item = RowKey>) -> Self {
        let mut out = RowSet::default();
        for k in keys {
            out.push_unique(k);
        }
        out
    }

    /// Appends `key` unless already present and returns whether it was
    /// new — the single home of the distinct-keys invariant (sets are a
    /// handful of rows, so the linear scan beats hashing).
    fn push_unique(&mut self, key: RowKey) -> bool {
        let new = !self.keys.contains(&key);
        if new {
            self.keys.push(key);
        }
        new
    }

    /// The ancestor-chain rows read while resolving the *parent* of
    /// `path` — exactly the rows the service's path resolution touches
    /// before the final component: the inode of each directory the walk
    /// passes through and the dentry of each component it follows.
    /// Every mutation under the same parent re-reads them.
    ///
    /// # Examples
    ///
    /// ```
    /// use cofs::mds::RowSet;
    /// use vfs::path::vpath;
    ///
    /// // Resolving /shared/out walks inode(/) and dentry(/shared):
    /// let rs = RowSet::resolution_chain(&vpath("/shared/out"));
    /// assert_eq!(rs.len(), 2);
    /// // Siblings share the whole chain:
    /// assert_eq!(rs, RowSet::resolution_chain(&vpath("/shared/log")));
    /// // A file in the root has no chain to share.
    /// assert!(RowSet::resolution_chain(&vpath("/f")).is_empty());
    /// ```
    pub fn resolution_chain(path: &VPath) -> Self {
        let mut keys = Vec::new();
        if let Some(parent) = path.parent_str() {
            for (dir, _, rest) in walk(parent) {
                keys.push(stable_hash_combine(1, stable_hash(dir.as_bytes())));
                let followed = &parent[..parent.len() - rest.len()];
                keys.push(stable_hash_combine(2, stable_hash(followed.as_bytes())));
            }
        }
        RowSet { keys }
    }

    /// The parent directory's inode row of `path` — the row
    /// `touch_parent` updates on every mutation beneath it, and the one
    /// row sibling mutations share. Empty for the root itself (no
    /// parent to touch). Tagged apart from the chain's inode keys (3
    /// vs. 1): reading a directory's inode and rewriting its entry
    /// count are different kinds of row work and must never
    /// memoize/coalesce across each other.
    ///
    /// # Examples
    ///
    /// ```
    /// use cofs::mds::RowSet;
    /// use vfs::path::vpath;
    ///
    /// // Sibling creates share their parent row:
    /// let a = RowSet::parent_row(&vpath("/shared/out"));
    /// let b = RowSet::parent_row(&vpath("/shared/log"));
    /// assert_eq!(a, b);
    /// assert_eq!(a.len(), 1);
    /// // Different parents do not:
    /// assert_ne!(a, RowSet::parent_row(&vpath("/other/out")));
    /// ```
    pub fn parent_row(path: &VPath) -> Self {
        let key = |parent: &str| stable_hash_combine(3, stable_hash(parent.as_bytes()));
        RowSet {
            keys: path.parent_str().map(key).into_iter().collect(),
        }
    }

    /// Merges `other` in, skipping keys already present, and returns
    /// how many of its keys were — the one repeat count behind read
    /// memoization and write coalescing: merging a batch's sets into an
    /// empty one in batch order counts, per op, the keys an earlier op
    /// already named. Rename and link merge two sets whose rows overlap;
    /// each shared row appears once.
    pub fn merge(&mut self, other: &RowSet) -> u64 {
        other.keys.iter().filter(|&&k| !self.push_unique(k)).count() as u64
    }

    /// Keeps at most the first `max` keys — chain rows are the *first*
    /// reads a resolution performs, so clamping to the op's actual row
    /// count preserves the invariant for operations that short-circuit
    /// (e.g. pure size publication reads nothing).
    pub fn truncated(mut self, max: u64) -> Self {
        self.keys.truncate(max as usize);
        self
    }

    /// The row keys, in resolution (or write) order.
    pub fn keys(&self) -> &[RowKey] {
        &self.keys
    }

    /// Number of rows named.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rows are named.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl DbOps {
    fn read(&mut self, n: u64) {
        self.reads += n;
    }
    fn write(&mut self, n: u64) {
        self.writes += n;
    }
    /// Merges another op count into this one.
    pub fn merge(&mut self, other: DbOps) {
        self.reads += other.reads;
        self.writes += other.writes;
    }
}

/// Identity of a caller, as the service sees it.
#[derive(Debug, Clone, Copy)]
pub struct Cred {
    /// Effective user.
    pub uid: Uid,
    /// Effective group.
    pub gid: Gid,
}

const ROOT_INO: u64 = 1;

/// The metadata service state: the inode and directory-entry tables.
#[derive(Debug)]
pub struct Mds {
    /// Inode rows indexed by inode number; `None` for number 0 and for
    /// freed inodes. The next number to hand out is the length.
    inodes: Vec<Option<InodeRec>>,
    /// Directory-entry rows: one hash map per directory, indexed like
    /// `inodes` (empty for every other inode).
    dentries: Vec<FxHashMap<Name, Dentry>>,
}

impl Mds {
    /// Creates a service with an empty (root-only) namespace. The root
    /// is world-writable like a scratch filesystem.
    pub fn new() -> Self {
        let root = InodeRec {
            ino: ROOT_INO,
            ftype: FileType::Directory,
            mode: Mode::new(0o777),
            uid: Uid(0),
            gid: Gid(0),
            nlink: 2,
            size: 0,
            entries: 0,
            atime: SimTime::ZERO,
            mtime: SimTime::ZERO,
            ctime: SimTime::ZERO,
            target: None,
            mapping: None,
        };
        Mds {
            inodes: vec![None, Some(root)],
            dentries: vec![FxHashMap::default(), FxHashMap::default()],
        }
    }

    /// Number of virtual inodes (including the root).
    pub fn inode_count(&self) -> u64 {
        self.inodes.iter().flatten().count() as u64
    }

    /// Number of virtual directories (including the root).
    pub fn directory_count(&self) -> u64 {
        self.inodes
            .iter()
            .flatten()
            .filter(|r| r.ftype == FileType::Directory)
            .count() as u64
    }

    /// Uncharged child count of the directory at `path` — statistics
    /// plumbing for the elastic shard policy, not a metadata operation:
    /// no permission checks, no symlink traversal, no [`DbOps`] (the
    /// operations that populated the policy's window already paid).
    /// Missing paths and non-directories count zero. `dir` is
    /// normalized path text (a [`VPath`]'s, or a parent's borrowed
    /// text).
    pub fn entry_count(&self, dir: &str) -> u64 {
        let mut cur = ROOT_INO;
        for (_, comp, _) in walk(dir) {
            match self.dentries[cur as usize].get(comp.as_bytes()) {
                Some(d) => cur = d.ino,
                None => return 0,
            }
        }
        let rec = self.get(cur);
        if rec.ftype == FileType::Directory {
            rec.entries
        } else {
            0
        }
    }

    fn get(&self, ino: u64) -> &InodeRec {
        self.inodes[ino as usize]
            .as_ref()
            .expect("dangling virtual inode")
    }

    fn get_mut(&mut self, ino: u64) -> &mut InodeRec {
        self.inodes[ino as usize]
            .as_mut()
            .expect("dangling virtual inode")
    }

    fn free_inode(&mut self, ino: u64) {
        self.inodes[ino as usize]
            .take()
            .expect("dangling virtual inode");
    }

    /// The entry `name` in directory `parent`, if any.
    fn entry(&self, parent: u64, name: &str) -> Option<Dentry> {
        self.dentries[parent as usize].get(name.as_bytes()).copied()
    }

    /// Inserts the `(parent, name)` entry for `ino`, copying its type.
    fn link_entry(&mut self, parent: u64, name: &str, ino: u64) {
        let entry = Dentry {
            ino,
            ftype: self.get(ino).ftype,
        };
        let prev = self.dentries[parent as usize].insert(Name::from(name), entry);
        debug_assert!(prev.is_none(), "caller checked the name was free");
    }

    fn unlink_entry(&mut self, parent: u64, name: &str) {
        self.dentries[parent as usize]
            .remove(name.as_bytes())
            .expect("entry existed");
    }

    /// Resolves normalized path text to an inode number, following
    /// intermediate symlinks (and the final one when `follow_last`).
    fn resolve(
        &self,
        cred: Cred,
        path: &str,
        op: &'static str,
        follow_last: bool,
        depth: u32,
        ops: &mut DbOps,
    ) -> Result<u64, FsError> {
        let mut cur = ROOT_INO;
        for (dir, comp, rest) in walk(path) {
            let node = self.get(cur);
            ops.read(1);
            if node.ftype != FileType::Directory {
                return Err(FsError::new(Errno::ENOTDIR, op, path));
            }
            if !node
                .mode
                .allows_exec(cred.uid, cred.gid, node.uid, node.gid)
            {
                return Err(FsError::new(Errno::EACCES, op, path));
            }
            let dent = self
                .entry(cur, comp)
                .ok_or_else(|| FsError::new(Errno::ENOENT, op, path))?;
            ops.read(1);
            if dent.ftype == FileType::Symlink && (!rest.is_empty() || follow_last) {
                if depth >= MAX_SYMLINK_DEPTH {
                    return Err(FsError::new(Errno::EINVAL, op, path));
                }
                let target = self.get(dent.ino).target.as_deref();
                let full = splice_link(dir, target.expect("symlink has target"), rest)?;
                return self.resolve(cred, full.as_str(), op, follow_last, depth + 1, ops);
            }
            cur = dent.ino;
        }
        Ok(cur)
    }

    /// Resolves the parent of `path` and validates the final name,
    /// which is borrowed from `path`.
    fn resolve_parent<'p>(
        &self,
        cred: Cred,
        path: &'p VPath,
        op: &'static str,
        ops: &mut DbOps,
    ) -> Result<(u64, &'p str), FsError> {
        let (Some(parent), Some(name)) = (path.parent_str(), path.file_name()) else {
            return Err(FsError::new(Errno::EINVAL, op, path.as_str()));
        };
        if name.len() > MAX_NAME_LEN {
            return Err(FsError::new(Errno::ENAMETOOLONG, op, path.as_str()));
        }
        let pino = self.resolve(cred, parent, op, true, 0, ops)?;
        if self.get(pino).ftype != FileType::Directory {
            return Err(FsError::new(Errno::ENOTDIR, op, path.as_str()));
        }
        Ok((pino, name))
    }

    fn check_parent_write(
        &self,
        cred: Cred,
        pino: u64,
        op: &'static str,
        path: &VPath,
    ) -> Result<(), FsError> {
        let p = self.get(pino);
        if !p.mode.allows_write(cred.uid, cred.gid, p.uid, p.gid)
            || !p.mode.allows_exec(cred.uid, cred.gid, p.uid, p.gid)
        {
            return Err(FsError::new(Errno::EACCES, op, path.as_str()));
        }
        Ok(())
    }

    fn touch_parent(&mut self, pino: u64, now: SimTime, entry_delta: i64, ops: &mut DbOps) {
        let r = self.get_mut(pino);
        r.mtime = now;
        r.ctime = now;
        r.entries = (r.entries as i64 + entry_delta).max(0) as u64;
        ops.write(1);
    }

    fn new_inode(
        &mut self,
        cred: Cred,
        ftype: FileType,
        mode: Mode,
        now: SimTime,
        target: Option<String>,
        mapping: Option<VPath>,
    ) -> u64 {
        let ino = self.inodes.len() as u64;
        self.dentries.push(FxHashMap::default());
        self.inodes.push(Some(InodeRec {
            ino,
            ftype,
            mode,
            uid: cred.uid,
            gid: cred.gid,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            size: 0,
            entries: 0,
            atime: now,
            mtime: now,
            ctime: now,
            target,
            mapping,
        }));
        ino
    }

    // ---- public service calls --------------------------------------------

    /// `getattr` with lstat semantics on the final component.
    ///
    /// # Errors
    ///
    /// Lookup errors (`ENOENT`, `ENOTDIR`, `EACCES`).
    pub fn getattr(&self, cred: Cred, path: &VPath) -> Result<(&InodeRec, DbOps), FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, path.as_str(), "stat", false, 0, &mut ops)?;
        ops.read(1);
        Ok((self.get(ino), ops))
    }

    /// Looks up a regular file (following symlinks) and returns its
    /// record — used by `open` to find the mapping.
    ///
    /// # Errors
    ///
    /// Lookup errors; `EISDIR` guarding is left to the caller, which
    /// knows the open flags.
    pub fn lookup(&self, cred: Cred, path: &VPath) -> Result<(&InodeRec, DbOps), FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, path.as_str(), "open", true, 0, &mut ops)?;
        ops.read(1);
        Ok((self.get(ino), ops))
    }

    /// Creates a regular file mapped to `mapping` in the underlying
    /// filesystem.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the name is taken, plus lookup errors.
    pub fn create(
        &mut self,
        cred: Cred,
        path: &VPath,
        mode: Mode,
        mapping: VPath,
        now: SimTime,
    ) -> Result<(&InodeRec, DbOps), FsError> {
        let mut ops = DbOps::default();
        let (pino, name) = self.resolve_parent(cred, path, "create", &mut ops)?;
        self.check_parent_write(cred, pino, "create", path)?;
        if self.entry(pino, name).is_some() {
            return Err(FsError::new(Errno::EEXIST, "create", path.as_str()));
        }
        ops.read(1);
        let ino = self.new_inode(cred, FileType::Regular, mode, now, None, Some(mapping));
        self.link_entry(pino, name, ino);
        ops.write(2);
        self.touch_parent(pino, now, 1, &mut ops);
        Ok((self.get(ino), ops))
    }

    /// Creates a virtual directory (no underlying presence at all —
    /// the decoupling at the heart of COFS).
    ///
    /// # Errors
    ///
    /// `EEXIST`, plus lookup errors.
    pub fn mkdir(
        &mut self,
        cred: Cred,
        path: &VPath,
        mode: Mode,
        now: SimTime,
    ) -> Result<DbOps, FsError> {
        let mut ops = DbOps::default();
        let (pino, name) = self.resolve_parent(cred, path, "mkdir", &mut ops)?;
        self.check_parent_write(cred, pino, "mkdir", path)?;
        if self.entry(pino, name).is_some() {
            return Err(FsError::new(Errno::EEXIST, "mkdir", path.as_str()));
        }
        ops.read(1);
        let ino = self.new_inode(cred, FileType::Directory, mode, now, None, None);
        self.link_entry(pino, name, ino);
        ops.write(2);
        self.get_mut(pino).nlink += 1;
        ops.write(1);
        self.touch_parent(pino, now, 1, &mut ops);
        Ok(ops)
    }

    /// Removes an empty virtual directory.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY`, `ENOTDIR`, `EINVAL` for the root, plus lookup errors.
    pub fn rmdir(&mut self, cred: Cred, path: &VPath, now: SimTime) -> Result<DbOps, FsError> {
        if path.is_root() {
            return Err(FsError::new(Errno::EINVAL, "rmdir", path.as_str()));
        }
        let mut ops = DbOps::default();
        let (pino, name) = self.resolve_parent(cred, path, "rmdir", &mut ops)?;
        self.check_parent_write(cred, pino, "rmdir", path)?;
        let dent = self
            .entry(pino, name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rmdir", path.as_str()))?;
        ops.read(1);
        let node = self.get(dent.ino);
        if node.ftype != FileType::Directory {
            return Err(FsError::new(Errno::ENOTDIR, "rmdir", path.as_str()));
        }
        if node.entries > 0 {
            return Err(FsError::new(Errno::ENOTEMPTY, "rmdir", path.as_str()));
        }
        self.unlink_entry(pino, name);
        self.free_inode(dent.ino);
        self.get_mut(pino).nlink -= 1;
        ops.write(3);
        self.touch_parent(pino, now, -1, &mut ops);
        Ok(ops)
    }

    /// Removes a name; returns the underlying mapping to delete when
    /// the last link to a regular file went away.
    ///
    /// # Errors
    ///
    /// `EISDIR` for directories, plus lookup errors.
    pub fn unlink(
        &mut self,
        cred: Cred,
        path: &VPath,
        now: SimTime,
    ) -> Result<(Option<VPath>, DbOps), FsError> {
        let mut ops = DbOps::default();
        let (pino, name) = self.resolve_parent(cred, path, "unlink", &mut ops)?;
        self.check_parent_write(cred, pino, "unlink", path)?;
        let dent = self
            .entry(pino, name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "unlink", path.as_str()))?;
        ops.read(1);
        if dent.ftype == FileType::Directory {
            return Err(FsError::new(Errno::EISDIR, "unlink", path.as_str()));
        }
        self.unlink_entry(pino, name);
        ops.write(1);
        let rec = self.get_mut(dent.ino);
        rec.nlink -= 1;
        rec.ctime = now;
        ops.write(1);
        let gone = if rec.nlink == 0 {
            let mapping = rec.mapping.take();
            self.free_inode(dent.ino);
            ops.write(1);
            mapping
        } else {
            None
        };
        self.touch_parent(pino, now, -1, &mut ops);
        Ok((gone, ops))
    }

    /// Applies attribute changes; pure database work.
    ///
    /// # Errors
    ///
    /// `EPERM`/`EACCES` permission failures, `EISDIR` when truncating
    /// a directory, plus lookup errors.
    pub fn setattr(
        &mut self,
        cred: Cred,
        path: &VPath,
        set: SetAttr,
        now: SimTime,
    ) -> Result<(&InodeRec, DbOps), FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, path.as_str(), "setattr", true, 0, &mut ops)?;
        let node = self.get(ino);
        ops.read(1);
        let is_owner = cred.uid == Uid(0) || cred.uid == node.uid;
        if (set.mode.is_some() || set.uid.is_some() || set.gid.is_some()) && !is_owner {
            return Err(FsError::new(Errno::EPERM, "setattr", path.as_str()));
        }
        if (set.atime.is_some() || set.mtime.is_some())
            && !is_owner
            && !node
                .mode
                .allows_write(cred.uid, cred.gid, node.uid, node.gid)
        {
            return Err(FsError::new(Errno::EPERM, "setattr", path.as_str()));
        }
        if set.size.is_some()
            && !is_owner
            && !node
                .mode
                .allows_write(cred.uid, cred.gid, node.uid, node.gid)
        {
            return Err(FsError::new(Errno::EACCES, "setattr", path.as_str()));
        }
        if set.size.is_some() && node.ftype != FileType::Regular {
            return Err(FsError::new(Errno::EISDIR, "setattr", path.as_str()));
        }
        let r = self.get_mut(ino);
        if let Some(m) = set.mode {
            r.mode = m;
        }
        if let Some(u) = set.uid {
            r.uid = u;
        }
        if let Some(g) = set.gid {
            r.gid = g;
        }
        if let Some(s) = set.size {
            r.size = s;
            r.mtime = now;
        }
        if let Some(t) = set.atime {
            r.atime = t;
        }
        if let Some(t) = set.mtime {
            r.mtime = t;
        }
        r.ctime = now;
        ops.write(1);
        Ok((self.get(ino), ops))
    }

    /// Records a file's size (called by the layer on close-after-write,
    /// since writes never contact the service).
    pub fn set_size(&mut self, ino: u64, size: u64, now: SimTime) -> DbOps {
        let mut ops = DbOps::default();
        if let Some(Some(r)) = self.inodes.get_mut(ino as usize) {
            r.size = size;
            r.mtime = now;
            ops.write(1);
        }
        ops
    }

    /// Lists a virtual directory straight from the dentry table:
    /// resolves `path`, checks that it is a directory the caller may
    /// read, prices the scan of its entries and stamps its atime.
    /// Returns the directory's inode number, whose entries
    /// [`Self::entries`] copies and [`Self::entry_len`] counts, both
    /// uncharged.
    ///
    /// # Errors
    ///
    /// `ENOTDIR`, `EACCES`, plus lookup errors.
    pub fn readdir(
        &mut self,
        cred: Cred,
        path: &VPath,
        now: SimTime,
    ) -> Result<(u64, DbOps), FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, path.as_str(), "readdir", true, 0, &mut ops)?;
        let node = self.get(ino);
        ops.read(1);
        if node.ftype != FileType::Directory {
            return Err(FsError::new(Errno::ENOTDIR, "readdir", path.as_str()));
        }
        if !node
            .mode
            .allows_read(cred.uid, cred.gid, node.uid, node.gid)
        {
            return Err(FsError::new(Errno::EACCES, "readdir", path.as_str()));
        }
        ops.read(self.entry_len(ino) + 1);
        self.get_mut(ino).atime = now;
        ops.write(1);
        Ok((ino, ops))
    }

    /// The entries of directory `dir`, in name order — the only place
    /// a listing is sorted.
    pub fn entries(&self, dir: u64) -> Vec<DirEntry> {
        let mut rows: Vec<(&Name, Dentry)> = self.dentries[dir as usize]
            // cofs-lint: allow(D003, sorted by name before it is copied)
            .iter()
            .map(|(name, d)| (name, *d))
            .collect();
        // Names are unique within a directory, so the order is total.
        rows.sort_unstable_by_key(|&(name, _)| name);
        rows.into_iter()
            .map(|(name, d)| DirEntry {
                name: name.as_str().to_string(),
                ino: Ino(d.ino),
                ftype: d.ftype,
            })
            .collect()
    }

    /// How many entries directory `dir` has.
    pub fn entry_len(&self, dir: u64) -> u64 {
        self.dentries[dir as usize].len() as u64
    }

    /// Creates a hard link — pure metadata in COFS, regardless of
    /// where the underlying file lives.
    ///
    /// # Errors
    ///
    /// `EPERM` for directories, `EEXIST`, plus lookup errors.
    pub fn link(
        &mut self,
        cred: Cred,
        existing: &VPath,
        new: &VPath,
        now: SimTime,
    ) -> Result<DbOps, FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, existing.as_str(), "link", true, 0, &mut ops)?;
        if self.get(ino).ftype == FileType::Directory {
            return Err(FsError::new(Errno::EPERM, "link", existing.as_str()));
        }
        let (pino, name) = self.resolve_parent(cred, new, "link", &mut ops)?;
        self.check_parent_write(cred, pino, "link", new)?;
        if self.entry(pino, name).is_some() {
            return Err(FsError::new(Errno::EEXIST, "link", new.as_str()));
        }
        ops.read(1);
        self.link_entry(pino, name, ino);
        let r = self.get_mut(ino);
        r.nlink += 1;
        r.ctime = now;
        ops.write(2);
        self.touch_parent(pino, now, 1, &mut ops);
        Ok(ops)
    }

    /// Creates a symbolic link (pure metadata).
    ///
    /// # Errors
    ///
    /// `EEXIST`, plus lookup errors.
    pub fn symlink(
        &mut self,
        cred: Cred,
        target: &str,
        new: &VPath,
        now: SimTime,
    ) -> Result<DbOps, FsError> {
        let mut ops = DbOps::default();
        let (pino, name) = self.resolve_parent(cred, new, "symlink", &mut ops)?;
        self.check_parent_write(cred, pino, "symlink", new)?;
        if self.entry(pino, name).is_some() {
            return Err(FsError::new(Errno::EEXIST, "symlink", new.as_str()));
        }
        ops.read(1);
        let mut cred_link = cred;
        cred_link.uid = cred.uid;
        let ino = self.new_inode(
            cred_link,
            FileType::Symlink,
            Mode::new(0o777),
            now,
            Some(target.to_string()),
            None,
        );
        self.link_entry(pino, name, ino);
        ops.write(2);
        self.touch_parent(pino, now, 1, &mut ops);
        Ok(ops)
    }

    /// Reads a symlink target.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the object is not a symlink, plus lookup errors.
    pub fn readlink(&self, cred: Cred, path: &VPath) -> Result<(String, DbOps), FsError> {
        let mut ops = DbOps::default();
        let ino = self.resolve(cred, path.as_str(), "readlink", false, 0, &mut ops)?;
        ops.read(1);
        match &self.get(ino).target {
            Some(t) => Ok((t.clone(), ops)),
            None => Err(FsError::new(Errno::EINVAL, "readlink", path.as_str())),
        }
    }

    /// Atomically renames within the virtual namespace — never touches
    /// the underlying filesystem (the mapping moves with the inode).
    ///
    /// # Errors
    ///
    /// As `MemFs::rename`: `EINVAL` (into own subtree), `EISDIR`,
    /// `ENOTDIR`, `ENOTEMPTY`, plus lookup errors.
    pub fn rename(
        &mut self,
        cred: Cred,
        from: &VPath,
        to: &VPath,
        now: SimTime,
    ) -> Result<DbOps, FsError> {
        let mut ops = DbOps::default();
        if from == to {
            // POSIX: same-name rename succeeds only if the name exists.
            self.resolve(cred, from.as_str(), "rename", false, 0, &mut ops)?;
            return Ok(ops);
        }
        if to.starts_with(from) {
            return Err(FsError::new(Errno::EINVAL, "rename", to.as_str()));
        }
        let (from_pino, from_name) = self.resolve_parent(cred, from, "rename", &mut ops)?;
        self.check_parent_write(cred, from_pino, "rename", from)?;
        let (to_pino, to_name) = self.resolve_parent(cred, to, "rename", &mut ops)?;
        self.check_parent_write(cred, to_pino, "rename", to)?;
        let src = self
            .entry(from_pino, from_name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rename", from.as_str()))?;
        ops.read(1);
        let src_is_dir = src.ftype == FileType::Directory;
        if let Some(dst) = self.entry(to_pino, to_name) {
            ops.read(1);
            if dst.ino == src.ino {
                // POSIX: both names link the same file, so the rename
                // succeeds and changes nothing.
                return Ok(ops);
            }
            match (src_is_dir, dst.ftype == FileType::Directory) {
                (true, false) => return Err(FsError::new(Errno::ENOTDIR, "rename", to.as_str())),
                (false, true) => return Err(FsError::new(Errno::EISDIR, "rename", to.as_str())),
                (true, true) => {
                    if self.get(dst.ino).entries > 0 {
                        return Err(FsError::new(Errno::ENOTEMPTY, "rename", to.as_str()));
                    }
                    self.unlink_entry(to_pino, to_name);
                    self.free_inode(dst.ino);
                    self.get_mut(to_pino).nlink -= 1;
                    self.touch_parent(to_pino, now, -1, &mut ops);
                    ops.write(3);
                }
                (false, false) => {
                    self.unlink_entry(to_pino, to_name);
                    let r = self.get_mut(dst.ino);
                    r.nlink -= 1;
                    r.ctime = now;
                    if r.nlink == 0 {
                        // Underlying cleanup is the caller's business;
                        // rename replacing a file returns no mapping in
                        // the current API, so the layer re-checks.
                        self.free_inode(dst.ino);
                    }
                    self.touch_parent(to_pino, now, -1, &mut ops);
                    ops.write(2);
                }
            }
        }
        self.unlink_entry(from_pino, from_name);
        self.link_entry(to_pino, to_name, src.ino);
        ops.write(2);
        if src_is_dir && from_pino != to_pino {
            self.get_mut(from_pino).nlink -= 1;
            self.get_mut(to_pino).nlink += 1;
            ops.write(2);
        }
        self.touch_parent(from_pino, now, -1, &mut ops);
        self.touch_parent(to_pino, now, 1, &mut ops);
        self.get_mut(src.ino).ctime = now;
        ops.write(1);
        Ok(ops)
    }
}

impl Default for Mds {
    fn default() -> Self {
        Mds::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::SimRng;
    use std::collections::BTreeSet;
    use vfs::path::vpath;

    fn cred() -> Cred {
        Cred {
            uid: Uid(1000),
            gid: Gid(1000),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn create_and_getattr() {
        let mut mds = Mds::new();
        let (rec, ops) = mds
            .create(
                cred(),
                &vpath("/f"),
                Mode::file_default(),
                vpath("/.u/f"),
                t(1),
            )
            .unwrap();
        let rec = rec.clone();
        assert_eq!(rec.ftype, FileType::Regular);
        assert_eq!(rec.mapping, Some(vpath("/.u/f")));
        assert!(ops.writes >= 2);
        let (got, _) = mds.getattr(cred(), &vpath("/f")).unwrap();
        assert_eq!(got.ino, rec.ino);
        assert_eq!(got.attr().nlink, 1);
    }

    #[test]
    fn duplicate_create_is_eexist() {
        let mut mds = Mds::new();
        mds.create(
            cred(),
            &vpath("/f"),
            Mode::file_default(),
            vpath("/.u/a"),
            t(1),
        )
        .unwrap();
        let err = mds
            .create(
                cred(),
                &vpath("/f"),
                Mode::file_default(),
                vpath("/.u/b"),
                t(2),
            )
            .unwrap_err();
        assert!(err.is(Errno::EEXIST));
    }

    #[test]
    fn virtual_directories_have_no_mapping() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/d"), Mode::dir_default(), t(1))
            .unwrap();
        let (rec, _) = mds.getattr(cred(), &vpath("/d")).unwrap();
        assert_eq!(rec.ftype, FileType::Directory);
        assert_eq!(rec.mapping, None);
        assert_eq!(rec.attr().nlink, 2);
        // Parent nlink bumped.
        let (root, _) = mds.getattr(cred(), &VPath::root()).unwrap();
        assert_eq!(root.nlink, 3);
    }

    #[test]
    fn unlink_returns_mapping_on_last_link() {
        let mut mds = Mds::new();
        mds.create(
            cred(),
            &vpath("/f"),
            Mode::file_default(),
            vpath("/.u/f"),
            t(1),
        )
        .unwrap();
        mds.link(cred(), &vpath("/f"), &vpath("/g"), t(2)).unwrap();
        let (gone, _) = mds.unlink(cred(), &vpath("/f"), t(3)).unwrap();
        assert_eq!(gone, None, "still linked via /g");
        let (gone, _) = mds.unlink(cred(), &vpath("/g"), t(4)).unwrap();
        assert_eq!(gone, Some(vpath("/.u/f")), "last link returns mapping");
        assert_eq!(mds.inode_count(), 1);
    }

    /// A thousand names of 1 to 40 bytes, on both sides of `Name`'s
    /// inline limit, created in a shuffled order and then thinned and
    /// renamed in place, so a hash table cannot list them in name order
    /// by chance.
    #[test]
    fn readdir_lists_virtual_view() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/d"), Mode::dir_default(), t(1))
            .unwrap();
        let mut names: Vec<String> = (0..1000usize)
            .map(|i| {
                let id = format!("{i:x}");
                let pad = if i % 3 == 0 { "é" } else { "x" };
                let fill = (i % 40 + 1).saturating_sub(id.len()) / pad.len();
                format!("{}{id}", pad.repeat(fill))
            })
            .collect();
        assert_eq!(names.iter().map(String::len).min(), Some(1));
        assert_eq!(names.iter().map(String::len).max(), Some(40));
        SimRng::seed_from(20).shuffle(&mut names);
        for name in &names {
            mds.create(
                cred(),
                &vpath(&format!("/d/{name}")),
                Mode::file_default(),
                vpath(&format!("/.u/{name}")),
                t(2),
            )
            .unwrap();
        }
        let mut want: BTreeSet<String> = names.iter().cloned().collect();
        for (i, name) in names.iter().enumerate() {
            let path = vpath(&format!("/d/{name}"));
            if i % 7 == 0 {
                mds.unlink(cred(), &path, t(3)).unwrap();
                want.remove(name);
            } else if i % 11 == 0 {
                // The new name sorts right after the old one.
                let moved = format!("{name}-moved");
                mds.rename(cred(), &path, &vpath(&format!("/d/{moved}")), t(3))
                    .unwrap();
                want.remove(name);
                want.insert(moved);
            }
        }
        let (dir, ops) = mds.readdir(cred(), &vpath("/d"), t(4)).unwrap();
        let list = mds.entries(dir);
        let listed: Vec<&str> = list.iter().map(|e| e.name.as_str()).collect();
        let want: Vec<&str> = want.iter().map(String::as_str).collect();
        assert_eq!(listed, want);
        let n = want.len() as u64;
        assert_eq!(mds.entry_len(dir), n);
        assert!(ops.reads > n, "{ops:?}");
        // Directory size attr reflects entries.
        let (d, _) = mds.getattr(cred(), &vpath("/d")).unwrap();
        assert_eq!(d.attr().size, n * 32);
    }

    #[test]
    fn rename_moves_mapping_with_inode() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/a"), Mode::dir_default(), t(1))
            .unwrap();
        mds.mkdir(cred(), &vpath("/b"), Mode::dir_default(), t(1))
            .unwrap();
        mds.create(
            cred(),
            &vpath("/a/f"),
            Mode::file_default(),
            vpath("/.u/x"),
            t(2),
        )
        .unwrap();
        mds.rename(cred(), &vpath("/a/f"), &vpath("/b/g"), t(3))
            .unwrap();
        let (rec, _) = mds.getattr(cred(), &vpath("/b/g")).unwrap();
        assert_eq!(rec.mapping, Some(vpath("/.u/x")), "mapping unchanged");
        assert!(mds
            .getattr(cred(), &vpath("/a/f"))
            .unwrap_err()
            .is(Errno::ENOENT));
    }

    /// Each entry carries its child's type, so the type must follow the
    /// entry through every way a name can move or multiply.
    #[test]
    fn readdir_types_follow_renames_links_and_symlinks() {
        let mut mds = Mds::new();
        for d in ["/a", "/a/sub", "/b", "/b/empty"] {
            mds.mkdir(cred(), &vpath(d), Mode::dir_default(), t(1))
                .unwrap();
        }
        for (f, m) in [("/a/f", "/.u/f"), ("/b/victim", "/.u/v")] {
            mds.create(cred(), &vpath(f), Mode::file_default(), vpath(m), t(2))
                .unwrap();
        }
        // A directory renamed across parents, over an empty directory.
        mds.rename(cred(), &vpath("/a/sub"), &vpath("/b/empty"), t(3))
            .unwrap();
        // A file renamed over another file.
        mds.rename(cred(), &vpath("/a/f"), &vpath("/b/victim"), t(4))
            .unwrap();
        mds.link(cred(), &vpath("/b/victim"), &vpath("/a/hard"), t(5))
            .unwrap();
        mds.symlink(cred(), "/b/empty", &vpath("/a/ln"), t(6))
            .unwrap();
        let listed = |mds: &mut Mds, dir: &str| -> Vec<(String, FileType)> {
            let (ino, _) = mds.readdir(cred(), &vpath(dir), t(7)).unwrap();
            let list = mds.entries(ino);
            for e in &list {
                let (rec, _) = mds.getattr(cred(), &vpath(dir).join(&e.name)).unwrap();
                assert_eq!((rec.ino, rec.ftype), (e.ino.0, e.ftype), "{dir}/{}", e.name);
            }
            list.into_iter().map(|e| (e.name, e.ftype)).collect()
        };
        assert_eq!(
            listed(&mut mds, "/a"),
            vec![
                ("hard".to_string(), FileType::Regular),
                ("ln".to_string(), FileType::Symlink),
            ]
        );
        assert_eq!(
            listed(&mut mds, "/b"),
            vec![
                ("empty".to_string(), FileType::Directory),
                ("victim".to_string(), FileType::Regular),
            ]
        );
    }

    #[test]
    fn rename_between_links_of_one_file_is_a_no_op() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/d"), Mode::dir_default(), t(1))
            .unwrap();
        mds.create(
            cred(),
            &vpath("/d/a"),
            Mode::file_default(),
            vpath("/.u/a"),
            t(2),
        )
        .unwrap();
        mds.link(cred(), &vpath("/d/a"), &vpath("/d/b"), t(3))
            .unwrap();
        let before = mds.getattr(cred(), &vpath("/d/a")).unwrap().0.clone();
        let dir = mds.getattr(cred(), &vpath("/d")).unwrap().0.clone();
        let ops = mds
            .rename(cred(), &vpath("/d/a"), &vpath("/d/b"), t(4))
            .unwrap();
        assert_eq!(ops.writes, 0, "{ops:?}");
        // Both names survive, and nothing was rewritten.
        for name in ["/d/a", "/d/b"] {
            assert_eq!(
                mds.getattr(cred(), &vpath(name)).unwrap().0,
                &before,
                "{name}"
            );
        }
        assert_eq!(mds.getattr(cred(), &vpath("/d")).unwrap().0, &dir);
        assert_eq!(mds.entry_count("/d"), 2);
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/d"), Mode::dir_default(), t(1))
            .unwrap();
        let err = mds
            .rename(cred(), &vpath("/d"), &vpath("/d/x"), t(2))
            .unwrap_err();
        assert!(err.is(Errno::EINVAL));
    }

    #[test]
    fn rmdir_rules() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/d"), Mode::dir_default(), t(1))
            .unwrap();
        mds.create(
            cred(),
            &vpath("/d/f"),
            Mode::file_default(),
            vpath("/.u/f"),
            t(2),
        )
        .unwrap();
        assert!(mds
            .rmdir(cred(), &vpath("/d"), t(3))
            .unwrap_err()
            .is(Errno::ENOTEMPTY));
        mds.unlink(cred(), &vpath("/d/f"), t(4)).unwrap();
        mds.rmdir(cred(), &vpath("/d"), t(5)).unwrap();
        assert!(mds
            .getattr(cred(), &vpath("/d"))
            .unwrap_err()
            .is(Errno::ENOENT));
        assert!(mds
            .rmdir(cred(), &VPath::root(), t(6))
            .unwrap_err()
            .is(Errno::EINVAL));
    }

    #[test]
    fn symlink_resolution_through_service() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/real"), Mode::dir_default(), t(1))
            .unwrap();
        mds.create(
            cred(),
            &vpath("/real/f"),
            Mode::file_default(),
            vpath("/.u/f"),
            t(2),
        )
        .unwrap();
        mds.symlink(cred(), "/real", &vpath("/alias"), t(3))
            .unwrap();
        let (rec, _) = mds.lookup(cred(), &vpath("/alias/f")).unwrap();
        assert_eq!(rec.mapping, Some(vpath("/.u/f")));
        // lstat of the link itself.
        let (l, _) = mds.getattr(cred(), &vpath("/alias")).unwrap();
        assert_eq!(l.ftype, FileType::Symlink);
        let (target, _) = mds.readlink(cred(), &vpath("/alias")).unwrap();
        assert_eq!(target, "/real");
    }

    #[test]
    fn symlink_loops_detected() {
        let mut mds = Mds::new();
        mds.symlink(cred(), "/b", &vpath("/a"), t(1)).unwrap();
        mds.symlink(cred(), "/a", &vpath("/b"), t(1)).unwrap();
        assert!(mds
            .lookup(cred(), &vpath("/a"))
            .unwrap_err()
            .is(Errno::EINVAL));
    }

    #[test]
    fn permissions_enforced() {
        let mut mds = Mds::new();
        let owner = cred();
        let other = Cred {
            uid: Uid(2000),
            gid: Gid(2000),
        };
        mds.mkdir(owner, &vpath("/priv"), Mode::new(0o700), t(1))
            .unwrap();
        assert!(mds
            .create(
                other,
                &vpath("/priv/f"),
                Mode::file_default(),
                vpath("/.u/f"),
                t(2)
            )
            .unwrap_err()
            .is(Errno::EACCES));
        mds.create(
            owner,
            &vpath("/priv/f"),
            Mode::new(0o600),
            vpath("/.u/f"),
            t(2),
        )
        .unwrap();
        assert!(mds
            .getattr(other, &vpath("/priv/f"))
            .unwrap_err()
            .is(Errno::EACCES));
        // chmod by non-owner rejected.
        mds.create(
            owner,
            &vpath("/pub"),
            Mode::new(0o644),
            vpath("/.u/p"),
            t(3),
        )
        .unwrap();
        let set = SetAttr {
            mode: Some(Mode::new(0o777)),
            ..SetAttr::default()
        };
        assert!(mds
            .setattr(other, &vpath("/pub"), set, t(4))
            .unwrap_err()
            .is(Errno::EPERM));
    }

    #[test]
    fn set_size_updates_record() {
        let mut mds = Mds::new();
        let (rec, _) = mds
            .create(
                cred(),
                &vpath("/f"),
                Mode::file_default(),
                vpath("/.u/f"),
                t(1),
            )
            .unwrap();
        let rec = rec.clone();
        mds.set_size(rec.ino, 4096, t(2));
        let (got, _) = mds.getattr(cred(), &vpath("/f")).unwrap();
        assert_eq!(got.attr().size, 4096);
        // Unknown inodes are ignored.
        let ops = mds.set_size(9999, 1, t(3));
        assert_eq!(ops.writes, 0);
    }

    #[test]
    fn resolution_chain_matches_resolve_reads_and_stays_under_op_reads() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/a"), Mode::dir_default(), t(1))
            .unwrap();
        mds.mkdir(cred(), &vpath("/a/b"), Mode::dir_default(), t(1))
            .unwrap();
        // create /a/b/f: the parent resolution reads inode(/), dent(/a),
        // inode(/a), dent(/a/b) — four chain rows — plus one op-private
        // duplicate-name probe.
        let (_, ops) = mds
            .create(
                cred(),
                &vpath("/a/b/f"),
                Mode::file_default(),
                vpath("/.u/f"),
                t(2),
            )
            .unwrap();
        let chain = RowSet::resolution_chain(&vpath("/a/b/f"));
        assert_eq!(chain.len(), 4);
        assert!((chain.len() as u64) < ops.reads, "{ops:?}");
        // Distinct keys, shared bit-for-bit by a sibling.
        let mut uniq = chain.keys().to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), chain.len());
        assert_eq!(chain, RowSet::resolution_chain(&vpath("/a/b/g")));
        // A different directory shares only the common prefix rows.
        let other = RowSet::resolution_chain(&vpath("/a/c/f"));
        let shared = other.keys().iter().filter(|k| chain.keys().contains(k));
        assert_eq!(shared.count(), 3, "inode(/), dent(/a), inode(/a)");
    }

    #[test]
    fn read_set_merge_dedupes_and_truncate_clamps() {
        let mut a = RowSet::resolution_chain(&vpath("/a/b/f"));
        let b = RowSet::resolution_chain(&vpath("/a/c/f"));
        let before = a.len();
        a.merge(&b);
        // 4 + 4 keys, 3 shared → 5 distinct.
        assert_eq!(a.len(), before + 1);
        a.merge(&b.clone());
        assert_eq!(a.len(), before + 1, "merging twice adds nothing");
        assert_eq!(a.clone().truncated(2).len(), 2);
        assert_eq!(a.clone().truncated(0).len(), 0);
        assert!(RowSet::empty().is_empty());
        assert!(RowSet::resolution_chain(&VPath::root()).is_empty());
    }

    #[test]
    fn write_set_names_one_parent_row_shared_by_siblings() {
        let mut mds = Mds::new();
        mds.mkdir(cred(), &vpath("/a"), Mode::dir_default(), t(1))
            .unwrap();
        // create /a/f writes the child inode, the dentry, and the
        // parent row — exactly one of which is coalescable.
        let (_, ops) = mds
            .create(
                cred(),
                &vpath("/a/f"),
                Mode::file_default(),
                vpath("/.u/f"),
                t(2),
            )
            .unwrap();
        let ws = RowSet::parent_row(&vpath("/a/f"));
        assert_eq!(ws.len(), 1);
        assert!((ws.len() as u64) < ops.writes, "{ops:?}");
        // Siblings share the row; cousins do not; the root has none.
        assert_eq!(ws, RowSet::parent_row(&vpath("/a/g")));
        assert_ne!(ws, RowSet::parent_row(&vpath("/f")));
        assert!(RowSet::parent_row(&VPath::root()).is_empty());
        // Write keys never collide with read keys for the same
        // directory (distinct tag spaces).
        let rs = RowSet::resolution_chain(&vpath("/a/f"));
        assert!(ws.keys().iter().all(|k| !rs.keys().contains(k)));
    }

    #[test]
    fn write_set_merge_dedupes_and_truncate_clamps() {
        // Cross-directory rename touches two parent rows...
        let mut ws = RowSet::parent_row(&vpath("/a/f"));
        ws.merge(&RowSet::parent_row(&vpath("/b/f")));
        assert_eq!(ws.len(), 2);
        // ...while a same-directory rename touches one, once.
        let mut same = RowSet::parent_row(&vpath("/a/f"));
        same.merge(&RowSet::parent_row(&vpath("/a/g")));
        assert_eq!(same.len(), 1);
        assert_eq!(ws.clone().truncated(1).len(), 1);
        assert_eq!(ws.truncated(0).len(), 0);
        assert!(RowSet::empty().is_empty());
        assert_eq!(RowSet::from_keys([7, 7, 9]).len(), 2);
    }

    #[test]
    fn utime_via_setattr() {
        let mut mds = Mds::new();
        mds.create(
            cred(),
            &vpath("/f"),
            Mode::file_default(),
            vpath("/.u/f"),
            t(1),
        )
        .unwrap();
        let stamp = t(42);
        let (rec, ops) = mds
            .setattr(cred(), &vpath("/f"), SetAttr::utime(stamp, stamp), t(43))
            .unwrap();
        assert_eq!(rec.atime, stamp);
        assert_eq!(rec.mtime, stamp);
        assert!(ops.writes >= 1);
    }
}
