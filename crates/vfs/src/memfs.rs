//! `MemFs` — the reference in-memory filesystem.
//!
//! A plain, single-machine, instant-time implementation of the
//! [`FileSystem`] trait. It defines the POSIX semantics every other
//! filesystem in this workspace must match; the differential tests in
//! `cofs-tests` run random operation sequences against `MemFs` and the
//! simulated stacks and require identical user-visible outcomes.
//!
//! Semantics notes (kept consistent across all implementations):
//!
//! - `stat` has *lstat* semantics on the final component (it does not
//!   follow a trailing symlink); intermediate symlinks are followed.
//! - `open` follows trailing symlinks.
//! - `utime`/`setattr` of times requires ownership or write access.
//! - `chmod`/`chown` require ownership (or root).
//!
//! Inode numbers are handed out sequentially and never reused, so the
//! inode table is a dense vector of boxed inodes indexed by number.
//! Each directory's entries are a hash map keyed by [`Name`]
//! ([`simcore::hash::FxHashMap`]), as are open handles. Path resolution
//! walks the path's text and probes each directory's map with the
//! borrowed component's bytes; a name is copied only when it is
//! inserted. `readdir` sorts the listing it copies, the one place name
//! order is produced.
//!
//! Each namespace call resolves its path once and then acts where the
//! walk ended. The `*_at` methods ([`MemFs::create_at`] and its
//! siblings) are those calls: besides the call's value they return its
//! [`Site`], the directory, entry count and inode the walk found, which
//! a model that prices calls by inode (the GPFS model in `pfs`) would
//! otherwise have to resolve again. The [`FileSystem`] methods are the
//! same calls without the site.
//!
//! `create_at` and `mkdir_at` take the parent hint of
//! [`FileSystem::create_in`] and [`FileSystem::mkdir_in`]: given the
//! parent directory's inode, they skip the walk to it, and still check
//! the name, the parent's type, the caller's write permission there
//! and that the name is free. Debug builds walk anyway and assert that
//! the walk ends at the hinted directory.

use crate::error::{Errno, FsError};
use crate::fs::{FileSystem, FsResult, OpCtx, Timed};
use crate::path::{splice_link, walk, Name, VPath};
use crate::types::{
    DirEntry, FileAttr, FileHandle, FileType, FsStats, Gid, Ino, Mode, OpenFlags, SetAttr, Uid,
    MAX_NAME_LEN,
};
use simcore::hash::FxHashMap;
use simcore::time::{SimDuration, SimTime};

/// Maximum symlink indirections during resolution.
const MAX_SYMLINK_DEPTH: u32 = 8;

/// Nominal directory-entry size used for directory `size` attributes.
const DIR_ENTRY_SIZE: u64 = 32;

#[derive(Debug, Clone)]
enum Payload {
    File { size: u64 },
    Dir { entries: FxHashMap<Name, Ino> },
    Symlink { target: String },
}

#[derive(Debug, Clone)]
struct Inode {
    ftype: FileType,
    mode: Mode,
    uid: Uid,
    gid: Gid,
    nlink: u32,
    atime: SimTime,
    mtime: SimTime,
    ctime: SimTime,
    payload: Payload,
}

impl Inode {
    fn size(&self) -> u64 {
        match &self.payload {
            Payload::File { size } => *size,
            Payload::Dir { entries } => entries.len() as u64 * DIR_ENTRY_SIZE,
            Payload::Symlink { target } => target.len() as u64,
        }
    }

    fn entries(&self) -> Option<&FxHashMap<Name, Ino>> {
        match &self.payload {
            Payload::Dir { entries } => Some(entries),
            _ => None,
        }
    }

    fn entries_mut(&mut self) -> Option<&mut FxHashMap<Name, Ino>> {
        match &mut self.payload {
            Payload::Dir { entries } => Some(entries),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Handle {
    ino: Ino,
    flags: OpenFlags,
}

/// Where a namespace call acted: the directory whose entry it resolved,
/// created or removed, that directory's entry count before the call,
/// and the entry's inode. A trailing symlink that `open`, `setattr` or
/// `readdir` follows is followed here too, so `dir` and `ino` are its
/// target's; the root is its own `dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The directory holding the entry.
    pub dir: Ino,
    /// How many entries `dir` held before the call.
    pub entries: u64,
    /// The entry's inode: the one made, removed, opened or read (for
    /// `link`, the existing file, its trailing link followed; for
    /// `rename`, the moved one).
    pub ino: Ino,
}

/// The reference in-memory filesystem.
///
/// # Examples
///
/// ```
/// use netsim::ids::NodeId;
/// use vfs::fs::{FileSystem, OpCtx};
/// use vfs::memfs::MemFs;
/// use vfs::path::vpath;
/// use vfs::types::Mode;
///
/// let mut fs = MemFs::new();
/// let ctx = OpCtx::test(NodeId(0));
/// fs.mkdir(&ctx, &vpath("/data"), Mode::dir_default())?;
/// let fh = fs.create(&ctx, &vpath("/data/out"), Mode::file_default())?.value;
/// fs.write(&ctx, fh, 0, 100)?;
/// fs.close(&ctx, fh)?;
/// assert_eq!(fs.stat(&ctx, &vpath("/data/out"))?.value.size, 100);
/// // The same call with its site: where the walk ended.
/// let (_, site) = fs.create_at(&ctx, &vpath("/data/log"), None, Mode::file_default())?;
/// assert_eq!(site.entries, 1);
/// assert_eq!(site.dir, fs.stat(&ctx, &vpath("/data"))?.value.ino);
/// assert_eq!(site.ino, fs.stat(&ctx, &vpath("/data/log"))?.value.ino);
/// // Naming the parent's inode skips the walk to it.
/// let err = vpath("/data/err");
/// let (_, hinted) = fs.create_at(&ctx, &err, Some(site.dir), Mode::file_default())?;
/// assert_eq!((hinted.dir, hinted.entries), (site.dir, 2));
/// # Ok::<(), vfs::error::FsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemFs {
    /// Inodes indexed by number; `None` for number 0 and for freed
    /// inodes. The next number to hand out is the length, and sweeps
    /// such as statfs visit inodes in number order (lint rule D003).
    /// Boxed, so growing the vector moves one pointer per number rather
    /// than whole inodes, which keeps peak memory flat on large runs.
    inodes: Vec<Option<Box<Inode>>>,
    handles: FxHashMap<FileHandle, Handle>,
    next_fh: u64,
    /// Fixed cost charged per operation (local memory speed).
    op_cost: SimDuration,
}

const ROOT_INO: Ino = Ino(1);

impl MemFs {
    /// Creates an empty filesystem whose root is owned by root and
    /// world-writable (like a freshly formatted scratch filesystem),
    /// so unprivileged test contexts can populate it.
    pub fn new() -> Self {
        let root = Inode {
            ftype: FileType::Directory,
            mode: Mode::new(0o777),
            uid: Uid(0),
            gid: Gid(0),
            nlink: 2,
            atime: SimTime::ZERO,
            mtime: SimTime::ZERO,
            ctime: SimTime::ZERO,
            payload: Payload::Dir {
                entries: FxHashMap::default(),
            },
        };
        MemFs {
            // Number 0 is never handed out; the root is `ROOT_INO`.
            inodes: vec![None, Some(Box::new(root))],
            handles: FxHashMap::default(),
            next_fh: 1,
            op_cost: SimDuration::from_nanos(500),
        }
    }

    /// Stores `inode` under the next inode number.
    fn insert_inode(&mut self, inode: Inode) -> Ino {
        let ino = Ino(self.inodes.len() as u64);
        self.inodes.push(Some(Box::new(inode)));
        ino
    }

    fn free_inode(&mut self, ino: Ino) {
        self.inodes[ino.0 as usize]
            .take()
            .expect("dangling inode reference");
    }

    fn alloc_fh(&mut self) -> FileHandle {
        let fh = FileHandle(self.next_fh);
        self.next_fh += 1;
        fh
    }

    fn node(&self, ino: Ino) -> &Inode {
        self.inodes[ino.0 as usize]
            .as_deref()
            .expect("dangling inode reference")
    }

    fn node_mut(&mut self, ino: Ino) -> &mut Inode {
        self.inodes[ino.0 as usize]
            .as_deref_mut()
            .expect("dangling inode reference")
    }

    /// The entries of a directory the caller resolved as one.
    fn dir(&self, ino: Ino) -> &FxHashMap<Name, Ino> {
        self.node(ino).entries().expect("resolved as a directory")
    }

    fn dir_mut(&mut self, ino: Ino) -> &mut FxHashMap<Name, Ino> {
        self.node_mut(ino)
            .entries_mut()
            .expect("resolved as a directory")
    }

    /// The site of inode `ino` under directory `dir`, as `dir` stands.
    fn site(&self, dir: Ino, ino: Ino) -> Site {
        Site {
            dir,
            entries: self.dir(dir).len() as u64,
            ino,
        }
    }

    /// Resolves normalized path text to `(dir, ino)`: the inode the
    /// path names and the directory whose entry named it (the root for
    /// the root itself). `follow_last` controls trailing symlink
    /// behaviour (true for open, false for stat/unlink).
    fn resolve(
        &self,
        ctx: &OpCtx,
        path: &str,
        op: &'static str,
        follow_last: bool,
        depth: u32,
    ) -> Result<(Ino, Ino), FsError> {
        let (mut dir, mut cur) = (ROOT_INO, ROOT_INO);
        for (dir_text, comp, rest) in walk(path) {
            let node = self.node(cur);
            let entries = node
                .entries()
                .ok_or_else(|| FsError::new(Errno::ENOTDIR, op, path))?;
            if !node.mode.allows_exec(ctx.uid, ctx.gid, node.uid, node.gid) {
                return Err(FsError::new(Errno::EACCES, op, path));
            }
            let next = *entries
                .get(comp.as_bytes())
                .ok_or_else(|| FsError::new(Errno::ENOENT, op, path))?;
            if let Payload::Symlink { target } = &self.node(next).payload {
                if !rest.is_empty() || follow_last {
                    if depth >= MAX_SYMLINK_DEPTH {
                        return Err(FsError::new(Errno::EINVAL, op, path));
                    }
                    // Continue on the link target (absolute, or relative
                    // to the link's directory) plus what is left.
                    let full = splice_link(dir_text, target, rest)?;
                    return self.resolve(ctx, full.as_str(), op, follow_last, depth + 1);
                }
            }
            (dir, cur) = (cur, next);
        }
        Ok((dir, cur))
    }

    /// Resolves the parent directory of `path` and returns
    /// `(parent_ino, final_name)`, validating the name length. The name
    /// is borrowed from `path`. A `hint` (see "Parent hints" in
    /// [`crate::fs`]) is taken for the parent instead of walking to it.
    fn resolve_parent<'p>(
        &self,
        ctx: &OpCtx,
        path: &'p VPath,
        hint: Option<Ino>,
        op: &'static str,
    ) -> Result<(Ino, &'p str), FsError> {
        let (Some(parent), Some(name)) = (path.parent_str(), path.file_name()) else {
            return Err(FsError::new(Errno::EINVAL, op, path.as_str()));
        };
        if name.len() > MAX_NAME_LEN {
            return Err(FsError::new(Errno::ENAMETOOLONG, op, path.as_str()));
        }
        let pino = match hint {
            Some(pino) => {
                debug_assert_eq!(
                    self.resolve(ctx, parent, op, true, 0).ok().map(|(_, p)| p),
                    Some(pino),
                    "{op} {path}: the parent hint names another directory"
                );
                pino
            }
            None => self.resolve(ctx, parent, op, true, 0)?.1,
        };
        let pnode = self.node(pino);
        if pnode.ftype != FileType::Directory {
            return Err(FsError::new(Errno::ENOTDIR, op, path.as_str()));
        }
        Ok((pino, name))
    }

    /// Resolves the parent of a name to be made (or takes it from
    /// `hint`, as [`Self::resolve_parent`] does) and checks that the
    /// caller may write there and that the name is free; returns the
    /// parent and the name.
    fn resolve_free<'p>(
        &self,
        ctx: &OpCtx,
        path: &'p VPath,
        hint: Option<Ino>,
        op: &'static str,
    ) -> Result<(Ino, &'p str), FsError> {
        let (pino, name) = self.resolve_parent(ctx, path, hint, op)?;
        self.check_parent_write(ctx, pino, op, path)?;
        if self.dir(pino).contains_key(name.as_bytes()) {
            return Err(FsError::new(Errno::EEXIST, op, path.as_str()));
        }
        Ok((pino, name))
    }

    fn check_parent_write(
        &self,
        ctx: &OpCtx,
        pino: Ino,
        op: &'static str,
        path: &VPath,
    ) -> Result<(), FsError> {
        let p = self.node(pino);
        if !p.mode.allows_write(ctx.uid, ctx.gid, p.uid, p.gid)
            || !p.mode.allows_exec(ctx.uid, ctx.gid, p.uid, p.gid)
        {
            return Err(FsError::new(Errno::EACCES, op, path.as_str()));
        }
        Ok(())
    }

    /// Makes a new inode of `payload`'s type, owned by the caller, under
    /// the free name `name` of directory `pino`, and returns its site.
    fn make(&mut self, ctx: &OpCtx, pino: Ino, name: &str, mode: Mode, payload: Payload) -> Site {
        let (ftype, nlink) = match payload {
            Payload::Dir { .. } => (FileType::Directory, 2),
            Payload::File { .. } => (FileType::Regular, 1),
            Payload::Symlink { .. } => (FileType::Symlink, 1),
        };
        let entries = self.dir(pino).len() as u64;
        let ino = self.insert_inode(Inode {
            ftype,
            mode,
            uid: ctx.uid,
            gid: ctx.gid,
            nlink,
            atime: ctx.now,
            mtime: ctx.now,
            ctime: ctx.now,
            payload,
        });
        self.dir_mut(pino).insert(Name::from(name), ino);
        self.touch_parent(pino, ctx.now);
        Site {
            dir: pino,
            entries,
            ino,
        }
    }

    fn attr_of(&self, ino: Ino) -> FileAttr {
        let n = self.node(ino);
        FileAttr {
            ino,
            ftype: n.ftype,
            mode: n.mode,
            uid: n.uid,
            gid: n.gid,
            nlink: n.nlink,
            size: n.size(),
            atime: n.atime,
            mtime: n.mtime,
            ctime: n.ctime,
        }
    }

    fn touch_parent(&mut self, pino: Ino, now: SimTime) {
        let p = self.node_mut(pino);
        p.mtime = now;
        p.ctime = now;
    }

    fn done<T>(&self, ctx: &OpCtx, value: T) -> FsResult<T> {
        Ok(Timed::new(value, ctx.now + self.op_cost))
    }

    /// Drops an inode if its link count reached zero (files/symlinks).
    fn maybe_free(&mut self, ino: Ino) {
        if self.node(ino).nlink == 0 {
            self.free_inode(ino);
        }
    }

    /// Number of live inodes (for tests).
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().flatten().count()
    }

    /// Number of currently open handles (for leak tests).
    pub fn open_handles(&self) -> usize {
        self.handles.len()
    }

    // ---- namespace calls with their sites ---------------------------------

    /// [`FileSystem::mkdir_in`], reporting the new directory's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::mkdir`].
    pub fn mkdir_at(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> Result<Site, FsError> {
        let (pino, name) = self.resolve_free(ctx, path, parent, "mkdir")?;
        let dir = Payload::Dir {
            entries: FxHashMap::default(),
        };
        let site = self.make(ctx, pino, name, mode, dir);
        self.node_mut(pino).nlink += 1; // the child's ".." entry
        Ok(site)
    }

    /// [`FileSystem::rmdir`], reporting the removed directory's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::rmdir`].
    pub fn rmdir_at(&mut self, ctx: &OpCtx, path: &VPath) -> Result<Site, FsError> {
        if path.is_root() {
            return Err(FsError::new(Errno::EINVAL, "rmdir", path.as_str()));
        }
        let (pino, name) = self.resolve_parent(ctx, path, None, "rmdir")?;
        self.check_parent_write(ctx, pino, "rmdir", path)?;
        let ino = *self
            .dir(pino)
            .get(name.as_bytes())
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rmdir", path.as_str()))?;
        match self.node(ino).entries() {
            None => return Err(FsError::new(Errno::ENOTDIR, "rmdir", path.as_str())),
            Some(e) if !e.is_empty() => {
                return Err(FsError::new(Errno::ENOTEMPTY, "rmdir", path.as_str()))
            }
            Some(_) => {}
        }
        let site = self.site(pino, ino);
        self.dir_mut(pino).remove(name.as_bytes());
        self.node_mut(pino).nlink -= 1;
        self.free_inode(ino);
        self.touch_parent(pino, ctx.now);
        Ok(site)
    }

    /// [`FileSystem::create_in`], reporting the new file's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::create`].
    pub fn create_at(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> Result<(FileHandle, Site), FsError> {
        let (pino, name) = self.resolve_free(ctx, path, parent, "create")?;
        let site = self.make(ctx, pino, name, mode, Payload::File { size: 0 });
        let fh = self.alloc_fh();
        self.handles.insert(
            fh,
            Handle {
                ino: site.ino,
                flags: OpenFlags::RDWR,
            },
        );
        Ok((fh, site))
    }

    /// [`FileSystem::open`], reporting the opened file's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::open`].
    pub fn open_at(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        flags: OpenFlags,
    ) -> Result<(FileHandle, Site), FsError> {
        let (dir, ino) = self.resolve(ctx, path.as_str(), "open", true, 0)?;
        let node = self.node(ino);
        if node.ftype == FileType::Directory && (flags.write || flags.truncate) {
            return Err(FsError::new(Errno::EISDIR, "open", path.as_str()));
        }
        if flags.read && !node.mode.allows_read(ctx.uid, ctx.gid, node.uid, node.gid) {
            return Err(FsError::new(Errno::EACCES, "open", path.as_str()));
        }
        if flags.write && !node.mode.allows_write(ctx.uid, ctx.gid, node.uid, node.gid) {
            return Err(FsError::new(Errno::EACCES, "open", path.as_str()));
        }
        if flags.truncate {
            let n = self.node_mut(ino);
            if let Payload::File { size } = &mut n.payload {
                *size = 0;
            }
            n.mtime = ctx.now;
            n.ctime = ctx.now;
        }
        let fh = self.alloc_fh();
        self.handles.insert(fh, Handle { ino, flags });
        Ok((fh, self.site(dir, ino)))
    }

    /// [`FileSystem::stat`], reporting the site of what it named.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::stat`].
    pub fn stat_at(&self, ctx: &OpCtx, path: &VPath) -> Result<(FileAttr, Site), FsError> {
        let (dir, ino) = self.resolve(ctx, path.as_str(), "stat", false, 0)?;
        Ok((self.attr_of(ino), self.site(dir, ino)))
    }

    /// [`FileSystem::setattr`], reporting the changed inode's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::setattr`].
    pub fn setattr_at(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        set: SetAttr,
    ) -> Result<(FileAttr, Site), FsError> {
        let (dir, ino) = self.resolve(ctx, path.as_str(), "setattr", true, 0)?;
        let node = self.node(ino);
        let is_owner = ctx.uid == Uid(0) || ctx.uid == node.uid;
        if (set.mode.is_some() || set.uid.is_some() || set.gid.is_some()) && !is_owner {
            return Err(FsError::new(Errno::EPERM, "setattr", path.as_str()));
        }
        if (set.atime.is_some() || set.mtime.is_some())
            && !is_owner
            && !node.mode.allows_write(ctx.uid, ctx.gid, node.uid, node.gid)
        {
            return Err(FsError::new(Errno::EPERM, "setattr", path.as_str()));
        }
        if set.size.is_some()
            && !is_owner
            && !node.mode.allows_write(ctx.uid, ctx.gid, node.uid, node.gid)
        {
            return Err(FsError::new(Errno::EACCES, "setattr", path.as_str()));
        }
        if set.size.is_some() && node.ftype != FileType::Regular {
            return Err(FsError::new(Errno::EISDIR, "setattr", path.as_str()));
        }
        let node = self.node_mut(ino);
        if let Some(m) = set.mode {
            node.mode = m;
        }
        if let Some(u) = set.uid {
            node.uid = u;
        }
        if let Some(g) = set.gid {
            node.gid = g;
        }
        if let Some(s) = set.size {
            if let Payload::File { size } = &mut node.payload {
                *size = s;
            }
            node.mtime = ctx.now;
        }
        if let Some(t) = set.atime {
            node.atime = t;
        }
        if let Some(t) = set.mtime {
            node.mtime = t;
        }
        node.ctime = ctx.now;
        Ok((self.attr_of(ino), self.site(dir, ino)))
    }

    /// [`FileSystem::readdir`], reporting the listed directory's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::readdir`].
    pub fn readdir_at(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
    ) -> Result<(Vec<DirEntry>, Site), FsError> {
        let (dir, ino) = self.resolve(ctx, path.as_str(), "readdir", true, 0)?;
        let node = self.node(ino);
        // The type is checked before the permission, as Linux's
        // `open(O_DIRECTORY)` does: an unreadable file is `ENOTDIR`.
        let entries = node
            .entries()
            .ok_or_else(|| FsError::new(Errno::ENOTDIR, "readdir", path.as_str()))?;
        if !node.mode.allows_read(ctx.uid, ctx.gid, node.uid, node.gid) {
            return Err(FsError::new(Errno::EACCES, "readdir", path.as_str()));
        }
        let mut list: Vec<DirEntry> = entries
            // cofs-lint: allow(D003, sorted by name before it is returned)
            .iter()
            .map(|(name, &ino)| DirEntry {
                name: name.as_str().to_string(),
                ino,
                ftype: self.node(ino).ftype,
            })
            .collect();
        // Names are unique within a directory, so the order is total.
        list.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        self.node_mut(ino).atime = ctx.now;
        Ok((list, self.site(dir, ino)))
    }

    /// [`FileSystem::unlink`], reporting the removed name's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::unlink`].
    pub fn unlink_at(&mut self, ctx: &OpCtx, path: &VPath) -> Result<Site, FsError> {
        let (pino, name) = self.resolve_parent(ctx, path, None, "unlink")?;
        self.check_parent_write(ctx, pino, "unlink", path)?;
        let ino = *self
            .dir(pino)
            .get(name.as_bytes())
            .ok_or_else(|| FsError::new(Errno::ENOENT, "unlink", path.as_str()))?;
        if self.node(ino).ftype == FileType::Directory {
            return Err(FsError::new(Errno::EISDIR, "unlink", path.as_str()));
        }
        let site = self.site(pino, ino);
        self.dir_mut(pino).remove(name.as_bytes());
        let n = self.node_mut(ino);
        n.nlink -= 1;
        n.ctime = ctx.now;
        self.maybe_free(ino);
        self.touch_parent(pino, ctx.now);
        Ok(site)
    }

    /// [`FileSystem::rename`], reporting the source's and the target's
    /// sites, both as they stood before the call.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::rename`].
    pub fn rename_at(
        &mut self,
        ctx: &OpCtx,
        from: &VPath,
        to: &VPath,
    ) -> Result<(Site, Site), FsError> {
        if from == to {
            // POSIX: renaming a name onto itself succeeds only if it
            // exists (resolution errors still apply).
            let (dir, ino) = self.resolve(ctx, from.as_str(), "rename", false, 0)?;
            let site = self.site(dir, ino);
            return Ok((site, site));
        }
        if to.starts_with(from) {
            return Err(FsError::new(Errno::EINVAL, "rename", to.as_str()));
        }
        let (from_pino, from_name) = self.resolve_parent(ctx, from, None, "rename")?;
        self.check_parent_write(ctx, from_pino, "rename", from)?;
        let (to_pino, to_name) = self.resolve_parent(ctx, to, None, "rename")?;
        self.check_parent_write(ctx, to_pino, "rename", to)?;
        let src_ino = *self
            .dir(from_pino)
            .get(from_name.as_bytes())
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rename", from.as_str()))?;
        let sites = (self.site(from_pino, src_ino), self.site(to_pino, src_ino));
        let src_is_dir = self.node(src_ino).ftype == FileType::Directory;
        // Handle an existing target.
        if let Some(&dst_ino) = self.dir(to_pino).get(to_name.as_bytes()) {
            if dst_ino == src_ino {
                // POSIX: both names link the same file, so the rename
                // succeeds and changes nothing.
                return Ok(sites);
            }
            let dst = self.node(dst_ino);
            match (src_is_dir, dst.ftype == FileType::Directory) {
                (true, false) => return Err(FsError::new(Errno::ENOTDIR, "rename", to.as_str())),
                (false, true) => return Err(FsError::new(Errno::EISDIR, "rename", to.as_str())),
                (true, true) => {
                    if !dst.entries().expect("dst is dir").is_empty() {
                        return Err(FsError::new(Errno::ENOTEMPTY, "rename", to.as_str()));
                    }
                    self.dir_mut(to_pino).remove(to_name.as_bytes());
                    self.node_mut(to_pino).nlink -= 1;
                    self.free_inode(dst_ino);
                }
                (false, false) => {
                    self.dir_mut(to_pino).remove(to_name.as_bytes());
                    let d = self.node_mut(dst_ino);
                    d.nlink -= 1;
                    d.ctime = ctx.now;
                    self.maybe_free(dst_ino);
                }
            }
        }
        self.dir_mut(from_pino).remove(from_name.as_bytes());
        self.dir_mut(to_pino).insert(Name::from(to_name), src_ino);
        if src_is_dir && from_pino != to_pino {
            self.node_mut(from_pino).nlink -= 1;
            self.node_mut(to_pino).nlink += 1;
        }
        self.touch_parent(from_pino, ctx.now);
        self.touch_parent(to_pino, ctx.now);
        self.node_mut(src_ino).ctime = ctx.now;
        Ok(sites)
    }

    /// [`FileSystem::link`], reporting the new name's site; its inode is
    /// the existing file's.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::link`].
    pub fn link_at(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> Result<Site, FsError> {
        let (_, ino) = self.resolve(ctx, existing.as_str(), "link", true, 0)?;
        if self.node(ino).ftype == FileType::Directory {
            return Err(FsError::new(Errno::EPERM, "link", existing.as_str()));
        }
        let (pino, name) = self.resolve_free(ctx, new, None, "link")?;
        let site = self.site(pino, ino);
        self.dir_mut(pino).insert(Name::from(name), ino);
        let n = self.node_mut(ino);
        n.nlink += 1;
        n.ctime = ctx.now;
        self.touch_parent(pino, ctx.now);
        Ok(site)
    }

    /// [`FileSystem::symlink`], reporting the new link's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::symlink`].
    pub fn symlink_at(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> Result<Site, FsError> {
        let (pino, name) = self.resolve_free(ctx, new, None, "symlink")?;
        let link = Payload::Symlink {
            target: target.to_string(),
        };
        Ok(self.make(ctx, pino, name, Mode::new(0o777), link))
    }

    /// [`FileSystem::readlink`], reporting the link's site.
    ///
    /// # Errors
    ///
    /// As [`FileSystem::readlink`].
    pub fn readlink_at(&self, ctx: &OpCtx, path: &VPath) -> Result<(String, Site), FsError> {
        let (dir, ino) = self.resolve(ctx, path.as_str(), "readlink", false, 0)?;
        match &self.node(ino).payload {
            Payload::Symlink { target } => Ok((target.clone(), self.site(dir, ino))),
            _ => Err(FsError::new(Errno::EINVAL, "readlink", path.as_str())),
        }
    }
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

impl FileSystem for MemFs {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        self.mkdir_at(ctx, path, None, mode)?;
        self.done(ctx, ())
    }

    fn mkdir_in(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> FsResult<Option<Ino>> {
        let site = self.mkdir_at(ctx, path, parent, mode)?;
        self.done(ctx, Some(site.ino))
    }

    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.rmdir_at(ctx, path)?;
        self.done(ctx, ())
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
        let (fh, _) = self.create_at(ctx, path, parent, mode)?;
        self.done(ctx, fh)
    }

    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        let (fh, _) = self.open_at(ctx, path, flags)?;
        self.done(ctx, fh)
    }

    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()> {
        self.handles
            .remove(&fh)
            .ok_or_else(|| FsError::new(Errno::EBADF, "close", fh.to_string()))?;
        self.done(ctx, ())
    }

    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let h = self
            .handles
            .get(&fh)
            .ok_or_else(|| FsError::new(Errno::EBADF, "read", fh.to_string()))?
            .clone();
        if !h.flags.read {
            return Err(FsError::new(Errno::EBADF, "read", fh.to_string()));
        }
        let size = self.node(h.ino).size();
        let n = len.min(size.saturating_sub(offset));
        self.node_mut(h.ino).atime = ctx.now;
        self.done(ctx, n)
    }

    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let h = self
            .handles
            .get(&fh)
            .ok_or_else(|| FsError::new(Errno::EBADF, "write", fh.to_string()))?
            .clone();
        if !h.flags.write {
            return Err(FsError::new(Errno::EBADF, "write", fh.to_string()));
        }
        let node = self.node_mut(h.ino);
        if let Payload::File { size } = &mut node.payload {
            let start = if h.flags.append { *size } else { offset };
            *size = (*size).max(start + len);
            node.mtime = ctx.now;
            node.ctime = ctx.now;
        } else {
            return Err(FsError::new(Errno::EISDIR, "write", fh.to_string()));
        }
        self.done(ctx, len)
    }

    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr> {
        let (attr, _) = self.stat_at(ctx, path)?;
        self.done(ctx, attr)
    }

    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        let (attr, _) = self.setattr_at(ctx, path, set)?;
        self.done(ctx, attr)
    }

    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        let (list, _) = self.readdir_at(ctx, path)?;
        self.done(ctx, list)
    }

    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.unlink_at(ctx, path)?;
        self.done(ctx, ())
    }

    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        self.rename_at(ctx, from, to)?;
        self.done(ctx, ())
    }

    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        self.link_at(ctx, existing, new)?;
        self.done(ctx, ())
    }

    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        self.symlink_at(ctx, target, new)?;
        self.done(ctx, ())
    }

    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        let (target, _) = self.readlink_at(ctx, path)?;
        self.done(ctx, target)
    }

    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats> {
        let mut stats = FsStats::default();
        for node in self.inodes.iter().flatten() {
            stats.inodes += 1;
            match &node.payload {
                Payload::Dir { .. } => stats.directories += 1,
                Payload::File { size } => stats.bytes_used += size,
                Payload::Symlink { .. } => {}
            }
        }
        self.done(ctx, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::vpath;
    use netsim::ids::NodeId;
    use simcore::rng::SimRng;
    use std::collections::BTreeSet;

    fn fs_and_ctx() -> (MemFs, OpCtx) {
        (MemFs::new(), OpCtx::test(NodeId(0)))
    }

    #[test]
    fn mkdir_create_stat_roundtrip() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let attr = fs.stat(&ctx, &vpath("/d/f")).unwrap().value;
        assert!(attr.is_file());
        assert_eq!(attr.size, 0);
        assert_eq!(attr.nlink, 1);
        assert_eq!(attr.uid, ctx.uid);
        let dattr = fs.stat(&ctx, &vpath("/d")).unwrap().value;
        assert!(dattr.is_dir());
        assert_eq!(dattr.nlink, 2);
    }

    #[test]
    fn create_requires_parent() {
        let (mut fs, ctx) = fs_and_ctx();
        let err = fs
            .create(&ctx, &vpath("/no/f"), Mode::file_default())
            .unwrap_err();
        assert!(err.is(Errno::ENOENT));
    }

    #[test]
    fn create_duplicate_is_eexist() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.create(&ctx, &vpath("/f"), Mode::file_default()).unwrap();
        let err = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap_err();
        assert!(err.is(Errno::EEXIST));
    }

    #[test]
    fn write_extends_and_read_clamps() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        assert_eq!(fs.write(&ctx, fh, 100, 50).unwrap().value, 50);
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 150);
        assert_eq!(fs.read(&ctx, fh, 100, 500).unwrap().value, 50);
        assert_eq!(fs.read(&ctx, fh, 200, 10).unwrap().value, 0);
    }

    #[test]
    fn append_writes_at_end() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 10).unwrap();
        fs.close(&ctx, fh).unwrap();
        let fh2 = fs
            .open(&ctx, &vpath("/f"), OpenFlags::WRONLY.with_append())
            .unwrap()
            .value;
        fs.write(&ctx, fh2, 0, 5).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 15);
    }

    #[test]
    fn truncate_on_open() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 10).unwrap();
        fs.close(&ctx, fh).unwrap();
        let fh2 = fs
            .open(&ctx, &vpath("/f"), OpenFlags::WRONLY.with_truncate())
            .unwrap()
            .value;
        fs.close(&ctx, fh2).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 0);
    }

    #[test]
    fn close_twice_is_ebadf() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        assert!(fs.close(&ctx, fh).unwrap_err().is(Errno::EBADF));
        assert_eq!(fs.open_handles(), 0);
    }

    #[test]
    fn read_requires_read_flag() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let wo = fs
            .open(&ctx, &vpath("/f"), OpenFlags::WRONLY)
            .unwrap()
            .value;
        assert!(fs.read(&ctx, wo, 0, 1).unwrap_err().is(Errno::EBADF));
        let ro = fs
            .open(&ctx, &vpath("/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        assert!(fs.write(&ctx, ro, 0, 1).unwrap_err().is(Errno::EBADF));
    }

    #[test]
    fn unlink_frees_on_last_link() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.link(&ctx, &vpath("/f"), &vpath("/g")).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.nlink, 2);
        let before = fs.inode_count();
        fs.unlink(&ctx, &vpath("/f")).unwrap();
        assert_eq!(fs.inode_count(), before, "inode survives via /g");
        assert_eq!(fs.stat(&ctx, &vpath("/g")).unwrap().value.nlink, 1);
        fs.unlink(&ctx, &vpath("/g")).unwrap();
        assert_eq!(fs.inode_count(), before - 1);
    }

    #[test]
    fn unlink_dir_is_eisdir() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        assert!(fs.unlink(&ctx, &vpath("/d")).unwrap_err().is(Errno::EISDIR));
        fs.rmdir(&ctx, &vpath("/d")).unwrap();
        assert!(fs.stat(&ctx, &vpath("/d")).unwrap_err().is(Errno::ENOENT));
    }

    #[test]
    fn rmdir_non_empty_fails() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        fs.create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap();
        assert!(fs
            .rmdir(&ctx, &vpath("/d"))
            .unwrap_err()
            .is(Errno::ENOTEMPTY));
        assert!(fs
            .rmdir(&ctx, &VPath::root())
            .unwrap_err()
            .is(Errno::EINVAL));
    }

    /// A thousand names of 1 to 40 bytes, on both sides of `Name`'s
    /// inline limit, created in a shuffled order and then thinned and
    /// renamed in place, so a hash table cannot list them in name order
    /// by chance.
    #[test]
    fn readdir_lists_sorted() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
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
            fs.create(&ctx, &vpath(&format!("/d/{name}")), Mode::file_default())
                .unwrap();
        }
        let mut want: BTreeSet<String> = names.iter().cloned().collect();
        for (i, name) in names.iter().enumerate() {
            let path = vpath(&format!("/d/{name}"));
            if i % 7 == 0 {
                fs.unlink(&ctx, &path).unwrap();
                want.remove(name);
            } else if i % 11 == 0 {
                // The new name sorts right after the old one.
                let moved = format!("{name}-moved");
                fs.rename(&ctx, &path, &vpath(&format!("/d/{moved}")))
                    .unwrap();
                want.remove(name);
                want.insert(moved);
            }
        }
        let listed: Vec<String> = fs
            .readdir(&ctx, &vpath("/d"))
            .unwrap()
            .value
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(listed, want.into_iter().collect::<Vec<_>>());
        let counted = fs.readdir_count(&ctx, &vpath("/d")).unwrap().value;
        assert_eq!(counted, listed.len() as u64);
        let file = vpath(&format!("/d/{}", listed[0]));
        assert!(fs.readdir(&ctx, &file).unwrap_err().is(Errno::ENOTDIR));
        assert!(fs
            .readdir_count(&ctx, &file)
            .unwrap_err()
            .is(Errno::ENOTDIR));
    }

    #[test]
    fn rename_file_replaces_target() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/a"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 7).unwrap();
        fs.close(&ctx, fh).unwrap();
        fs.create(&ctx, &vpath("/b"), Mode::file_default()).unwrap();
        fs.rename(&ctx, &vpath("/a"), &vpath("/b")).unwrap();
        assert!(fs.stat(&ctx, &vpath("/a")).unwrap_err().is(Errno::ENOENT));
        assert_eq!(fs.stat(&ctx, &vpath("/b")).unwrap().value.size, 7);
    }

    #[test]
    fn rename_between_links_of_one_file_is_a_no_op() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.create(&ctx, &vpath("/a"), Mode::file_default()).unwrap();
        fs.link(&ctx, &vpath("/a"), &vpath("/b")).unwrap();
        let before = fs.stat(&ctx, &vpath("/a")).unwrap().value;
        let later = ctx.at(SimTime::from_secs(9));
        fs.rename(&later, &vpath("/a"), &vpath("/b")).unwrap();
        // Both names survive, untouched down to the timestamps.
        for name in ["/a", "/b"] {
            assert_eq!(fs.stat(&ctx, &vpath(name)).unwrap().value, before, "{name}");
        }
        let root = fs.stat(&ctx, &VPath::root()).unwrap().value;
        assert_eq!(root.size, 2 * DIR_ENTRY_SIZE);
        assert!(root.mtime < later.now);
    }

    #[test]
    fn rename_dir_rules() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        fs.mkdir(&ctx, &vpath("/d/sub"), Mode::dir_default())
            .unwrap();
        // Moving a directory beneath itself is EINVAL.
        assert!(fs
            .rename(&ctx, &vpath("/d"), &vpath("/d/sub/x"))
            .unwrap_err()
            .is(Errno::EINVAL));
        // dir -> empty dir is allowed.
        fs.mkdir(&ctx, &vpath("/e"), Mode::dir_default()).unwrap();
        fs.rename(&ctx, &vpath("/d/sub"), &vpath("/e")).unwrap();
        assert!(fs.stat(&ctx, &vpath("/e")).unwrap().value.is_dir());
        // file -> dir is EISDIR.
        fs.create(&ctx, &vpath("/f"), Mode::file_default()).unwrap();
        assert!(fs
            .rename(&ctx, &vpath("/f"), &vpath("/e"))
            .unwrap_err()
            .is(Errno::EISDIR));
        // dir -> file is ENOTDIR.
        assert!(fs
            .rename(&ctx, &vpath("/e"), &vpath("/f"))
            .unwrap_err()
            .is(Errno::ENOTDIR));
    }

    #[test]
    fn rename_moves_dir_link_counts() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/a"), Mode::dir_default()).unwrap();
        fs.mkdir(&ctx, &vpath("/b"), Mode::dir_default()).unwrap();
        fs.mkdir(&ctx, &vpath("/a/x"), Mode::dir_default()).unwrap();
        let a_links = fs.stat(&ctx, &vpath("/a")).unwrap().value.nlink;
        fs.rename(&ctx, &vpath("/a/x"), &vpath("/b/x")).unwrap();
        assert_eq!(
            fs.stat(&ctx, &vpath("/a")).unwrap().value.nlink,
            a_links - 1
        );
        assert_eq!(fs.stat(&ctx, &vpath("/b")).unwrap().value.nlink, 3);
    }

    #[test]
    fn symlink_resolution() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/real"), Mode::dir_default())
            .unwrap();
        fs.create(&ctx, &vpath("/real/f"), Mode::file_default())
            .unwrap();
        fs.symlink(&ctx, "/real", &vpath("/alias")).unwrap();
        // Intermediate symlink is followed.
        assert!(fs.stat(&ctx, &vpath("/alias/f")).unwrap().value.is_file());
        // Trailing symlink: stat does not follow, open does.
        assert!(fs.stat(&ctx, &vpath("/alias")).unwrap().value.is_symlink());
        let fh = fs
            .open(&ctx, &vpath("/alias/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.readlink(&ctx, &vpath("/alias")).unwrap().value, "/real");
        assert!(fs
            .readlink(&ctx, &vpath("/real/f"))
            .unwrap_err()
            .is(Errno::EINVAL));
    }

    #[test]
    fn relative_symlink_resolution() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        fs.create(&ctx, &vpath("/d/target"), Mode::file_default())
            .unwrap();
        fs.symlink(&ctx, "target", &vpath("/d/lnk")).unwrap();
        let fh = fs
            .open(&ctx, &vpath("/d/lnk"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.symlink(&ctx, "../d/target", &vpath("/d/up")).unwrap();
        let fh = fs
            .open(&ctx, &vpath("/d/up"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
    }

    #[test]
    fn symlink_loop_detected() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.symlink(&ctx, "/b", &vpath("/a")).unwrap();
        fs.symlink(&ctx, "/a", &vpath("/b")).unwrap();
        let err = fs.open(&ctx, &vpath("/a"), OpenFlags::RDONLY).unwrap_err();
        assert!(err.is(Errno::EINVAL));
    }

    #[test]
    fn permissions_enforced() {
        let mut fs = MemFs::new();
        let owner = OpCtx::test(NodeId(0));
        let other = OpCtx {
            uid: Uid(2000),
            gid: Gid(2000),
            ..OpCtx::test(NodeId(1))
        };
        fs.mkdir(&owner, &vpath("/priv"), Mode::new(0o700)).unwrap();
        fs.create(&owner, &vpath("/priv/f"), Mode::file_default())
            .unwrap();
        // Other user cannot traverse the 0700 directory.
        assert!(fs
            .stat(&other, &vpath("/priv/f"))
            .unwrap_err()
            .is(Errno::EACCES));
        // Other user cannot create in it either.
        assert!(fs
            .create(&other, &vpath("/priv/g"), Mode::file_default())
            .unwrap_err()
            .is(Errno::EACCES));
        // Other user cannot chmod the owner's file.
        fs.mkdir(&owner, &vpath("/pub"), Mode::new(0o777)).unwrap();
        fs.create(&owner, &vpath("/pub/f"), Mode::new(0o600))
            .unwrap();
        assert!(fs
            .setattr(
                &other,
                &vpath("/pub/f"),
                SetAttr {
                    mode: Some(Mode::new(0o777)),
                    ..SetAttr::default()
                }
            )
            .unwrap_err()
            .is(Errno::EPERM));
        // Nor open it for reading (0600).
        assert!(fs
            .open(&other, &vpath("/pub/f"), OpenFlags::RDONLY)
            .unwrap_err()
            .is(Errno::EACCES));
    }

    #[test]
    fn utime_updates_times() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.create(&ctx, &vpath("/f"), Mode::file_default()).unwrap();
        let t = SimTime::from_secs(42);
        fs.utime(&ctx, &vpath("/f"), t, t).unwrap();
        let attr = fs.stat(&ctx, &vpath("/f")).unwrap().value;
        assert_eq!(attr.atime, t);
        assert_eq!(attr.mtime, t);
    }

    #[test]
    fn parent_mtime_updated_on_create_and_unlink() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let later = ctx.at(SimTime::from_secs(5));
        fs.create(&later, &vpath("/d/f"), Mode::file_default())
            .unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/d")).unwrap().value.mtime, later.now);
        let even_later = ctx.at(SimTime::from_secs(9));
        fs.unlink(&even_later, &vpath("/d/f")).unwrap();
        assert_eq!(
            fs.stat(&ctx, &vpath("/d")).unwrap().value.mtime,
            even_later.now
        );
    }

    #[test]
    fn statfs_counts() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 1000).unwrap();
        fs.close(&ctx, fh).unwrap();
        let stats = fs.statfs(&ctx).unwrap().value;
        assert_eq!(stats.directories, 2); // root + /d
        assert_eq!(stats.inodes, 3);
        assert_eq!(stats.bytes_used, 1000);
    }

    #[test]
    fn timing_is_monotonic() {
        let (mut fs, _) = fs_and_ctx();
        let ctx = OpCtx::test(NodeId(0)).at(SimTime::from_millis(10));
        let t = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .end;
        assert!(t > ctx.now);
    }

    #[test]
    fn truncate_helper() {
        let (mut fs, ctx) = fs_and_ctx();
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 100).unwrap();
        fs.close(&ctx, fh).unwrap();
        fs.truncate(&ctx, &vpath("/f"), 10).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 10);
        assert!(fs
            .truncate(&ctx, &VPath::root(), 0)
            .unwrap_err()
            .is(Errno::EISDIR));
    }

    /// A script of mkdirs and creates, deep and wide, with a repeated
    /// name: `(is_dir, path)`.
    fn hint_script() -> Vec<(bool, VPath)> {
        let mut script = vec![(true, vpath("/a")), (true, vpath("/a/b"))];
        script.push((true, vpath("/a/b/c")));
        for i in 0..40 {
            script.push((false, vpath(&format!("/a/b/f{i}"))));
        }
        script.push((false, vpath("/a/b/c/g")));
        script.push((false, vpath("/top")));
        script.push((true, vpath("/a/b/d")));
        script.push((false, vpath("/a/b/f3")));
        script.push((true, vpath("/a/b/c")));
        script
    }

    /// What one scripted step gave: the `*_at` call's handle and site,
    /// and the trait call's handle and end.
    type Step = (
        Result<(Option<FileHandle>, Site), Errno>,
        Result<(Option<FileHandle>, SimTime), Errno>,
    );

    /// Runs `hint_script` on two filesystems in lockstep, one through
    /// the `*_at` calls and one through the trait's; with `hinted`, each
    /// call names its parent's inode, as learned from earlier steps, and
    /// `mkdir_in` must report the inode the site names.
    fn run_hint_script(hinted: bool) -> Vec<Step> {
        let (mut at, ctx) = fs_and_ctx();
        let mut via_trait = MemFs::new();
        let mut dirs = std::collections::HashMap::from([(VPath::root(), ROOT_INO)]);
        let mut steps = Vec::new();
        for (i, (is_dir, path)) in hint_script().into_iter().enumerate() {
            let ctx = ctx.at(SimTime::from_micros(i as u64));
            let parent = path.parent().expect("not the root");
            let hint = dirs.get(&parent).copied().filter(|_| hinted);
            let mode = if is_dir {
                Mode::dir_default()
            } else {
                Mode::file_default()
            };
            let (site, timed) = if is_dir {
                let site = at.mkdir_at(&ctx, &path, hint, mode);
                let timed = if hinted {
                    let made = via_trait.mkdir_in(&ctx, &path, hint, mode);
                    if let (Ok(made), Ok(site)) = (&made, &site) {
                        assert_eq!(made.value, Some(site.ino), "{path}");
                    }
                    made.map(|t| t.end)
                } else {
                    via_trait.mkdir(&ctx, &path, mode).map(|t| t.end)
                };
                (site.map(|s| (None, s)), timed.map(|end| (None, end)))
            } else {
                let site = at
                    .create_at(&ctx, &path, hint, mode)
                    .map(|(fh, s)| (Some(fh), s));
                let timed = if hinted {
                    via_trait.create_in(&ctx, &path, hint, mode)
                } else {
                    via_trait.create(&ctx, &path, mode)
                };
                (site, timed.map(|t| (Some(t.value), t.end)))
            };
            if let (true, Ok((_, site))) = (is_dir, &site) {
                dirs.insert(path, site.ino);
            }
            steps.push((site.map_err(|e| e.errno()), timed.map_err(|e| e.errno())));
        }
        steps
    }

    #[test]
    fn a_parent_hint_changes_no_result() {
        let walked = run_hint_script(false);
        let hinted = run_hint_script(true);
        assert_eq!(hinted, walked);
        // The script makes, fails and reports what it claims to.
        assert!(hinted.iter().any(|(s, _)| s == &Err(Errno::EEXIST)));
        assert!(hinted
            .iter()
            .any(|(s, _)| matches!(s, Ok((_, site)) if site.entries >= 40)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the parent hint names another directory")]
    fn a_wrong_parent_hint_is_caught() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/a"), Mode::dir_default()).unwrap();
        let b = fs
            .mkdir_at(&ctx, &vpath("/b"), None, Mode::dir_default())
            .unwrap();
        let _ = fs.create_at(&ctx, &vpath("/a/f"), Some(b.ino), Mode::file_default());
    }
}
