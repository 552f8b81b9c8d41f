//! The timed filesystem interface every simulated filesystem implements.
//!
//! Operations are *functional* (they mutate a real namespace and return
//! real results) and *timed* (they report the virtual time at which the
//! operation completed, given the issuing context's current time).
//!
//! # Parent hints
//!
//! [`FileSystem::create_in`] and [`FileSystem::mkdir_in`] take, besides
//! the path, the inode of its parent directory when the caller knows it
//! (a caller that made that directory through `mkdir_in` does). The
//! hint is a promise: it names the directory a walk of the path's
//! parent would find now. It changes nothing but the host time a call
//! takes. The value, the errors, the completion time and every side
//! effect are those of the same call without the hint. So an
//! implementation may ignore it, as the provided defaults do, or skip
//! the parent walk with it, as [`crate::memfs::MemFs`] and the GPFS
//! model do. Debug builds of `MemFs` assert the promise.

use crate::error::FsError;
use crate::path::VPath;
use crate::types::{
    DirEntry, FileAttr, FileHandle, FsStats, Gid, Ino, Mode, OpenFlags, SetAttr, Uid,
};
use netsim::ids::{NodeId, Pid};
use simcore::time::SimTime;

/// Who is performing an operation, from where, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCtx {
    /// The cluster node issuing the request.
    pub node: NodeId,
    /// The process on that node.
    pub pid: Pid,
    /// Effective user.
    pub uid: Uid,
    /// Effective group.
    pub gid: Gid,
    /// The issuer's current virtual time.
    pub now: SimTime,
}

impl OpCtx {
    /// A convenient context for tests: uid/gid 1000, pid 1, time zero.
    pub fn test(node: NodeId) -> Self {
        OpCtx {
            node,
            pid: Pid(1),
            uid: Uid(1000),
            gid: Gid(1000),
            now: SimTime::ZERO,
        }
    }

    /// The same context at a later time.
    pub fn at(mut self, now: SimTime) -> Self {
        self.now = now;
        self
    }

    /// The same context from a different process.
    pub fn with_pid(mut self, pid: Pid) -> Self {
        self.pid = pid;
        self
    }
}

/// A value plus the virtual time at which it became available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The operation's result.
    pub value: T,
    /// Completion time (never before the request's `ctx.now`).
    pub end: SimTime,
}

impl<T> Timed<T> {
    /// Wraps a value completing at `end`.
    pub fn new(value: T, end: SimTime) -> Self {
        Timed { value, end }
    }

    /// Maps the value, keeping the completion time.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            end: self.end,
        }
    }
}

/// Result of a timed filesystem operation.
pub type FsResult<T> = Result<Timed<T>, FsError>;

/// A POSIX-flavoured filesystem driven in virtual time.
///
/// All methods take `&mut self`: the simulation is single-threaded and
/// contention is modelled *inside* the filesystem (token queues, server
/// queues), not by OS-level locking.
///
/// Implementations must be functional (maintain a real namespace) so
/// that semantics can be tested independently of timing. `MemFs` is the
/// reference implementation; `pfs::PfsFs` adds the GPFS-like cost
/// model; `cofs::CofsFs` layers virtualization on any underlying
/// implementation.
pub trait FileSystem {
    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the parent does not exist, `EEXIST` if the name is
    /// taken, `ENOTDIR` if a path component is not a directory,
    /// `EACCES` without write permission on the parent.
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()>;

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY` if the directory has entries; `ENOENT`, `ENOTDIR`,
    /// `EACCES` as usual; `EINVAL` for the root.
    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()>;

    /// Creates and opens a new regular file.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the name is taken, plus the usual lookup errors.
    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle>;

    /// [`FileSystem::create`] in the directory whose inode is `parent`,
    /// if the caller knows it (see "Parent hints" in the module docs).
    /// The default ignores the hint.
    ///
    /// # Errors
    ///
    /// As for `create`.
    fn create_in(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> FsResult<FileHandle> {
        let _ = parent;
        self.create(ctx, path, mode)
    }

    /// [`FileSystem::mkdir`] in the directory whose inode is `parent`,
    /// if the caller knows it (see "Parent hints" in the module docs).
    /// Returns the new directory's inode when the implementation
    /// reports one, so a caller making a chain of directories can hint
    /// each at the next. The default ignores the hint and reports no
    /// inode.
    ///
    /// # Errors
    ///
    /// As for `mkdir`.
    fn mkdir_in(
        &mut self,
        ctx: &OpCtx,
        path: &VPath,
        parent: Option<Ino>,
        mode: Mode,
    ) -> FsResult<Option<Ino>> {
        let _ = parent;
        self.mkdir(ctx, path, mode).map(|t| t.map(|()| None))
    }

    /// Opens an existing regular file.
    ///
    /// # Errors
    ///
    /// `ENOENT` if missing, `EISDIR` for directories, `EACCES` if the
    /// flags exceed the caller's permissions.
    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle>;

    /// Closes an open handle.
    ///
    /// # Errors
    ///
    /// `EBADF` if the handle is not open.
    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()>;

    /// Reads up to `len` bytes at `offset`; returns bytes actually read
    /// (data content is modelled by size only).
    ///
    /// # Errors
    ///
    /// `EBADF` if the handle is not open for reading.
    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64>;

    /// Writes `len` bytes at `offset`, extending the file if needed;
    /// returns bytes written.
    ///
    /// # Errors
    ///
    /// `EBADF` if the handle is not open for writing.
    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64>;

    /// Returns the attributes of the object at `path`.
    ///
    /// # Errors
    ///
    /// `ENOENT` and lookup errors.
    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr>;

    /// Applies attribute changes and returns the new attributes.
    ///
    /// # Errors
    ///
    /// `EPERM` when changing ownership or mode of someone else's file
    /// as a non-root user, plus lookup errors.
    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr>;

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if `path` is not a directory, `EACCES` without read
    /// permission (the type is checked first), plus lookup errors.
    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>>;

    /// Lists a directory without building the list: returns how many
    /// entries [`FileSystem::readdir`] would return.
    ///
    /// It is the same operation as `readdir` on the same state: the
    /// same checks and errors, the same completion time, the same atime
    /// update on the listed directory, and the same lease taken or hit
    /// where the implementation caches. Only the names are not built.
    /// Callers that time a listing without reading it, such as the
    /// scripted clients of [`crate::driver`], list through this. The
    /// default delegates to `readdir`; an implementation that can price
    /// a listing without copying its names overrides it.
    ///
    /// # Errors
    ///
    /// As for `readdir`.
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::ids::NodeId;
    /// use vfs::error::Errno;
    /// use vfs::fs::{FileSystem, OpCtx};
    /// use vfs::memfs::MemFs;
    /// use vfs::path::vpath;
    /// use vfs::types::Mode;
    ///
    /// let mut fs = MemFs::new();
    /// let ctx = OpCtx::test(NodeId(0));
    /// let dir = vpath("/d");
    /// fs.mkdir(&ctx, &dir, Mode::dir_default())?;
    /// for name in ["a", "b", "c"] {
    ///     fs.mkdir(&ctx, &dir.join(name), Mode::dir_default())?;
    /// }
    /// let listed = fs.readdir(&ctx, &dir)?;
    /// let counted = fs.readdir_count(&ctx, &dir)?;
    /// assert_eq!(counted.value, listed.value.len() as u64);
    /// assert_eq!(counted.end, listed.end);
    /// let missing = fs.readdir_count(&ctx, &vpath("/nope")).unwrap_err();
    /// assert!(missing.is(Errno::ENOENT));
    /// # Ok::<(), vfs::error::FsError>(())
    /// ```
    fn readdir_count(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<u64> {
        self.readdir(ctx, path).map(|t| t.map(|v| v.len() as u64))
    }

    /// Removes a name; the inode is freed when its link count reaches
    /// zero.
    ///
    /// # Errors
    ///
    /// `EISDIR` for directories, plus lookup errors.
    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()>;

    /// Atomically renames `from` to `to`, replacing a compatible
    /// existing target.
    ///
    /// # Errors
    ///
    /// `EINVAL` when moving a directory beneath itself; `ENOTEMPTY`
    /// when replacing a non-empty directory; plus lookup errors.
    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()>;

    /// Creates a hard link to an existing regular file.
    ///
    /// # Errors
    ///
    /// `EPERM` for directories, `EEXIST` if the new name is taken.
    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()>;

    /// Creates a symbolic link containing `target`.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the new name is taken, plus lookup errors.
    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()>;

    /// Reads a symbolic link's target.
    ///
    /// # Errors
    ///
    /// `EINVAL` if `path` is not a symlink.
    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String>;

    /// Aggregate statistics.
    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats>;

    /// Convenience `utime` in terms of [`FileSystem::setattr`] — the
    /// third metadata operation the paper's benchmark exercises.
    ///
    /// # Errors
    ///
    /// As for `setattr`.
    fn utime(&mut self, ctx: &OpCtx, path: &VPath, atime: SimTime, mtime: SimTime) -> FsResult<()> {
        self.setattr(ctx, path, SetAttr::utime(atime, mtime))
            .map(|t| t.map(|_| ()))
    }

    /// Convenience truncate in terms of [`FileSystem::setattr`].
    ///
    /// # Errors
    ///
    /// As for `setattr`.
    fn truncate(&mut self, ctx: &OpCtx, path: &VPath, size: u64) -> FsResult<()> {
        self.setattr(ctx, path, SetAttr::truncate(size))
            .map(|t| t.map(|_| ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_map_keeps_end() {
        let t = Timed::new(2u32, SimTime::from_millis(7));
        let u = t.map(|v| v * 2);
        assert_eq!(u.value, 4);
        assert_eq!(u.end, SimTime::from_millis(7));
    }

    #[test]
    fn ctx_builders() {
        let ctx = OpCtx::test(NodeId(3))
            .at(SimTime::from_millis(9))
            .with_pid(Pid(7));
        assert_eq!(ctx.node, NodeId(3));
        assert_eq!(ctx.now, SimTime::from_millis(9));
        assert_eq!(ctx.pid, Pid(7));
        assert_eq!(ctx.uid, Uid(1000));
    }
}
