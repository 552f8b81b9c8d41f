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
//! inode table is a dense vector of boxed inodes indexed by number. Path resolution
//! walks the path's text and probes each directory's ordered entry map
//! with the borrowed component; a name is copied only when it is
//! inserted.

use crate::error::{Errno, FsError};
use crate::fs::{FileSystem, FsResult, OpCtx, Timed};
use crate::path::{splice_link, walk, VPath};
use crate::types::{
    DirEntry, FileAttr, FileHandle, FileType, FsStats, Gid, Ino, Mode, OpenFlags, SetAttr, Uid,
    MAX_NAME_LEN,
};
use simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Maximum symlink indirections during resolution.
const MAX_SYMLINK_DEPTH: u32 = 8;

/// Nominal directory-entry size used for directory `size` attributes.
const DIR_ENTRY_SIZE: u64 = 32;

#[derive(Debug, Clone)]
enum Payload {
    File { size: u64 },
    Dir { entries: BTreeMap<String, Ino> },
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

    fn entries(&self) -> Option<&BTreeMap<String, Ino>> {
        match &self.payload {
            Payload::Dir { entries } => Some(entries),
            _ => None,
        }
    }

    fn entries_mut(&mut self) -> Option<&mut BTreeMap<String, Ino>> {
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
    handles: HashMap<FileHandle, Handle>,
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
                entries: BTreeMap::new(),
            },
        };
        MemFs {
            // Number 0 is never handed out; the root is `ROOT_INO`.
            inodes: vec![None, Some(Box::new(root))],
            handles: HashMap::new(),
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

    /// Resolves normalized path text to an inode. `follow_last`
    /// controls trailing symlink behaviour (true for open, false for
    /// stat/unlink).
    fn resolve(
        &self,
        ctx: &OpCtx,
        path: &str,
        op: &'static str,
        follow_last: bool,
        depth: u32,
    ) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for (dir, comp, rest) in walk(path) {
            let node = self.node(cur);
            let entries = node
                .entries()
                .ok_or_else(|| FsError::new(Errno::ENOTDIR, op, path))?;
            if !node.mode.allows_exec(ctx.uid, ctx.gid, node.uid, node.gid) {
                return Err(FsError::new(Errno::EACCES, op, path));
            }
            let next = *entries
                .get(comp)
                .ok_or_else(|| FsError::new(Errno::ENOENT, op, path))?;
            if let Payload::Symlink { target } = &self.node(next).payload {
                if !rest.is_empty() || follow_last {
                    if depth >= MAX_SYMLINK_DEPTH {
                        return Err(FsError::new(Errno::EINVAL, op, path));
                    }
                    // Continue on the link target (absolute, or relative
                    // to the link's directory) plus what is left.
                    let full = splice_link(dir, target, rest)?;
                    return self.resolve(ctx, full.as_str(), op, follow_last, depth + 1);
                }
            }
            cur = next;
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `path` and returns
    /// `(parent_ino, final_name)`, validating the name length. The name
    /// is borrowed from `path`.
    fn resolve_parent<'p>(
        &self,
        ctx: &OpCtx,
        path: &'p VPath,
        op: &'static str,
    ) -> Result<(Ino, &'p str), FsError> {
        let (Some(parent), Some(name)) = (path.parent_str(), path.file_name()) else {
            return Err(FsError::new(Errno::EINVAL, op, path.as_str()));
        };
        if name.len() > MAX_NAME_LEN {
            return Err(FsError::new(Errno::ENAMETOOLONG, op, path.as_str()));
        }
        let pino = self.resolve(ctx, parent, op, true, 0)?;
        let pnode = self.node(pino);
        if pnode.ftype != FileType::Directory {
            return Err(FsError::new(Errno::ENOTDIR, op, path.as_str()));
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
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

impl FileSystem for MemFs {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        let (pino, name) = self.resolve_parent(ctx, path, "mkdir")?;
        self.check_parent_write(ctx, pino, "mkdir", path)?;
        if self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .contains_key(name)
        {
            return Err(FsError::new(Errno::EEXIST, "mkdir", path.as_str()));
        }
        let ino = self.insert_inode(Inode {
            ftype: FileType::Directory,
            mode,
            uid: ctx.uid,
            gid: ctx.gid,
            nlink: 2,
            atime: ctx.now,
            mtime: ctx.now,
            ctime: ctx.now,
            payload: Payload::Dir {
                entries: BTreeMap::new(),
            },
        });
        let parent = self.node_mut(pino);
        parent
            .entries_mut()
            .expect("parent is dir")
            .insert(name.to_string(), ino);
        parent.nlink += 1; // the child's ".." entry
        self.touch_parent(pino, ctx.now);
        self.done(ctx, ())
    }

    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        if path.is_root() {
            return Err(FsError::new(Errno::EINVAL, "rmdir", path.as_str()));
        }
        let (pino, name) = self.resolve_parent(ctx, path, "rmdir")?;
        self.check_parent_write(ctx, pino, "rmdir", path)?;
        let ino = *self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .get(name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rmdir", path.as_str()))?;
        let node = self.node(ino);
        match node.entries() {
            None => return Err(FsError::new(Errno::ENOTDIR, "rmdir", path.as_str())),
            Some(e) if !e.is_empty() => {
                return Err(FsError::new(Errno::ENOTEMPTY, "rmdir", path.as_str()))
            }
            Some(_) => {}
        }
        self.node_mut(pino)
            .entries_mut()
            .expect("parent is dir")
            .remove(name);
        self.node_mut(pino).nlink -= 1;
        self.free_inode(ino);
        self.touch_parent(pino, ctx.now);
        self.done(ctx, ())
    }

    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle> {
        let (pino, name) = self.resolve_parent(ctx, path, "create")?;
        self.check_parent_write(ctx, pino, "create", path)?;
        if self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .contains_key(name)
        {
            return Err(FsError::new(Errno::EEXIST, "create", path.as_str()));
        }
        let ino = self.insert_inode(Inode {
            ftype: FileType::Regular,
            mode,
            uid: ctx.uid,
            gid: ctx.gid,
            nlink: 1,
            atime: ctx.now,
            mtime: ctx.now,
            ctime: ctx.now,
            payload: Payload::File { size: 0 },
        });
        self.node_mut(pino)
            .entries_mut()
            .expect("parent is dir")
            .insert(name.to_string(), ino);
        self.touch_parent(pino, ctx.now);
        let fh = self.alloc_fh();
        self.handles.insert(
            fh,
            Handle {
                ino,
                flags: OpenFlags::RDWR,
            },
        );
        self.done(ctx, fh)
    }

    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        let ino = self.resolve(ctx, path.as_str(), "open", true, 0)?;
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
            if let Payload::File { size } = &mut self.node_mut(ino).payload {
                *size = 0;
            }
            let n = self.node_mut(ino);
            n.mtime = ctx.now;
            n.ctime = ctx.now;
        }
        let fh = self.alloc_fh();
        self.handles.insert(fh, Handle { ino, flags });
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
        let ino = self.resolve(ctx, path.as_str(), "stat", false, 0)?;
        let attr = self.attr_of(ino);
        self.done(ctx, attr)
    }

    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        let ino = self.resolve(ctx, path.as_str(), "setattr", true, 0)?;
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
        let attr = self.attr_of(ino);
        self.done(ctx, attr)
    }

    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(ctx, path.as_str(), "readdir", true, 0)?;
        let node = self.node(ino);
        if !node.mode.allows_read(ctx.uid, ctx.gid, node.uid, node.gid) {
            return Err(FsError::new(Errno::EACCES, "readdir", path.as_str()));
        }
        let entries = node
            .entries()
            .ok_or_else(|| FsError::new(Errno::ENOTDIR, "readdir", path.as_str()))?;
        let list: Vec<DirEntry> = entries
            .iter()
            .map(|(name, &ino)| DirEntry {
                name: name.clone(),
                ino,
                ftype: self.node(ino).ftype,
            })
            .collect();
        self.node_mut(ino).atime = ctx.now;
        self.done(ctx, list)
    }

    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        let (pino, name) = self.resolve_parent(ctx, path, "unlink")?;
        self.check_parent_write(ctx, pino, "unlink", path)?;
        let ino = *self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .get(name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "unlink", path.as_str()))?;
        if self.node(ino).ftype == FileType::Directory {
            return Err(FsError::new(Errno::EISDIR, "unlink", path.as_str()));
        }
        self.node_mut(pino)
            .entries_mut()
            .expect("parent is dir")
            .remove(name);
        let n = self.node_mut(ino);
        n.nlink -= 1;
        n.ctime = ctx.now;
        self.maybe_free(ino);
        self.touch_parent(pino, ctx.now);
        self.done(ctx, ())
    }

    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        if from == to {
            // POSIX: renaming a name onto itself succeeds only if it
            // exists (resolution errors still apply).
            self.resolve(ctx, from.as_str(), "rename", false, 0)?;
            return self.done(ctx, ());
        }
        if to.starts_with(from) {
            return Err(FsError::new(Errno::EINVAL, "rename", to.as_str()));
        }
        let (from_pino, from_name) = self.resolve_parent(ctx, from, "rename")?;
        self.check_parent_write(ctx, from_pino, "rename", from)?;
        let (to_pino, to_name) = self.resolve_parent(ctx, to, "rename")?;
        self.check_parent_write(ctx, to_pino, "rename", to)?;
        let src_ino = *self
            .node(from_pino)
            .entries()
            .expect("parent is dir")
            .get(from_name)
            .ok_or_else(|| FsError::new(Errno::ENOENT, "rename", from.as_str()))?;
        let src_is_dir = self.node(src_ino).ftype == FileType::Directory;
        // Handle an existing target.
        if let Some(&dst_ino) = self
            .node(to_pino)
            .entries()
            .expect("parent is dir")
            .get(to_name)
        {
            let dst = self.node(dst_ino);
            match (src_is_dir, dst.ftype == FileType::Directory) {
                (true, false) => return Err(FsError::new(Errno::ENOTDIR, "rename", to.as_str())),
                (false, true) => return Err(FsError::new(Errno::EISDIR, "rename", to.as_str())),
                (true, true) => {
                    if !dst.entries().expect("dst is dir").is_empty() {
                        return Err(FsError::new(Errno::ENOTEMPTY, "rename", to.as_str()));
                    }
                    self.node_mut(to_pino)
                        .entries_mut()
                        .expect("parent is dir")
                        .remove(to_name);
                    self.node_mut(to_pino).nlink -= 1;
                    self.free_inode(dst_ino);
                }
                (false, false) => {
                    self.node_mut(to_pino)
                        .entries_mut()
                        .expect("parent is dir")
                        .remove(to_name);
                    let d = self.node_mut(dst_ino);
                    d.nlink -= 1;
                    d.ctime = ctx.now;
                    self.maybe_free(dst_ino);
                }
            }
        }
        self.node_mut(from_pino)
            .entries_mut()
            .expect("parent is dir")
            .remove(from_name);
        self.node_mut(to_pino)
            .entries_mut()
            .expect("parent is dir")
            .insert(to_name.to_string(), src_ino);
        if src_is_dir && from_pino != to_pino {
            self.node_mut(from_pino).nlink -= 1;
            self.node_mut(to_pino).nlink += 1;
        }
        self.touch_parent(from_pino, ctx.now);
        self.touch_parent(to_pino, ctx.now);
        self.node_mut(src_ino).ctime = ctx.now;
        self.done(ctx, ())
    }

    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        let ino = self.resolve(ctx, existing.as_str(), "link", true, 0)?;
        if self.node(ino).ftype == FileType::Directory {
            return Err(FsError::new(Errno::EPERM, "link", existing.as_str()));
        }
        let (pino, name) = self.resolve_parent(ctx, new, "link")?;
        self.check_parent_write(ctx, pino, "link", new)?;
        if self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .contains_key(name)
        {
            return Err(FsError::new(Errno::EEXIST, "link", new.as_str()));
        }
        self.node_mut(pino)
            .entries_mut()
            .expect("parent is dir")
            .insert(name.to_string(), ino);
        let n = self.node_mut(ino);
        n.nlink += 1;
        n.ctime = ctx.now;
        self.touch_parent(pino, ctx.now);
        self.done(ctx, ())
    }

    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        let (pino, name) = self.resolve_parent(ctx, new, "symlink")?;
        self.check_parent_write(ctx, pino, "symlink", new)?;
        if self
            .node(pino)
            .entries()
            .expect("parent is dir")
            .contains_key(name)
        {
            return Err(FsError::new(Errno::EEXIST, "symlink", new.as_str()));
        }
        let ino = self.insert_inode(Inode {
            ftype: FileType::Symlink,
            mode: Mode::new(0o777),
            uid: ctx.uid,
            gid: ctx.gid,
            nlink: 1,
            atime: ctx.now,
            mtime: ctx.now,
            ctime: ctx.now,
            payload: Payload::Symlink {
                target: target.to_string(),
            },
        });
        self.node_mut(pino)
            .entries_mut()
            .expect("parent is dir")
            .insert(name.to_string(), ino);
        self.touch_parent(pino, ctx.now);
        self.done(ctx, ())
    }

    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        let ino = self.resolve(ctx, path.as_str(), "readlink", false, 0)?;
        match &self.node(ino).payload {
            Payload::Symlink { target } => {
                let t = target.clone();
                self.done(ctx, t)
            }
            _ => Err(FsError::new(Errno::EINVAL, "readlink", path.as_str())),
        }
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

    #[test]
    fn readdir_lists_sorted() {
        let (mut fs, ctx) = fs_and_ctx();
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        for name in ["b", "a", "c"] {
            fs.create(&ctx, &vpath(&format!("/d/{name}")), Mode::file_default())
                .unwrap();
        }
        let names: Vec<String> = fs
            .readdir(&ctx, &vpath("/d"))
            .unwrap()
            .value
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(fs
            .readdir(&ctx, &vpath("/d/a"))
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
}
