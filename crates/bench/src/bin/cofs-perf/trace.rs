//! The span recorder.
//!
//! Spans are recorded from outside the program, at public boundaries:
//! [`Traced`] wraps any [`FileSystem`] and records one span per call.
//! The traced stack is `Traced<CofsFs<Traced<U>>>`: the outer wrapper
//! times every call into COFS, the inner one every call COFS makes
//! into its underlying filesystem `U`. After each outer call the outer
//! wrapper moves the inner spans into its own list through
//! [`CofsFs::under_mut`], parented to the call that caused them.

use crate::host::Clock;
use cofs::fs::CofsFs;
use netsim::ids::NodeId;
use pfs::fs::PfsFs;
use simcore::time::SimTime;
use std::fmt::Write as _;
use vfs::fs::{FileSystem, FsResult, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::VPath;
use vfs::types::{DirEntry, FileAttr, FileHandle, FsStats, Mode, OpenFlags, SetAttr};
use workloads::target::BenchTarget;

/// Which side of the COFS boundary a span was recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A call into `CofsFs` (the outer wrapper).
    Cofs,
    /// A call `CofsFs` made into its underlying filesystem.
    Under,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the outer span this call belongs to (its own index for
    /// an outer or unparented span): spans of one operation share it.
    pub op: u32,
    /// Index of the causing span, if any.
    pub parent: Option<u32>,
    /// The issuing client node.
    pub client: NodeId,
    /// The filesystem method called.
    pub kind: &'static str,
    /// Boundary the span was recorded at.
    pub layer: Layer,
    /// Host time at call entry and exit, in seconds on the run's clock.
    pub wall: (f64, f64),
    /// Virtual time the call was issued and completed.
    pub virt: (SimTime, SimTime),
}

/// Spans a wrapped filesystem produced below the current call.
pub trait SpanSource {
    /// Moves out the spans recorded below the last call.
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

impl SpanSource for MemFs {}
impl SpanSource for PfsFs {}

impl<U: FileSystem + SpanSource> SpanSource for CofsFs<Traced<U>> {
    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.under_mut().spans)
    }
}

/// A filesystem wrapper recording a [`Span`] per call.
pub struct Traced<F> {
    inner: F,
    layer: Layer,
    clock: Clock,
    /// Every span recorded so far, outer calls and their children.
    pub spans: Vec<Span>,
}

impl<F: FileSystem + SpanSource> Traced<F> {
    /// Wraps `inner`, recording spans at `layer` on `clock`.
    pub fn new(inner: F, layer: Layer, clock: Clock) -> Self {
        Traced {
            inner,
            layer,
            clock,
            spans: Vec::new(),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The wrapped filesystem, mutably (calls through it are not
    /// recorded).
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// Keeps the spans the wrapped filesystem recorded outside any call
    /// of this wrapper (e.g. while draining batches), unparented.
    pub fn collect_orphans(&mut self) {
        for mut orphan in self.inner.take_spans() {
            orphan.op = self.spans.len() as u32;
            self.spans.push(orphan);
        }
    }

    fn call<T>(
        &mut self,
        ctx: &OpCtx,
        kind: &'static str,
        f: impl FnOnce(&mut F) -> FsResult<T>,
    ) -> FsResult<T> {
        let wall_start = (self.clock)();
        let out = f(&mut self.inner);
        let wall_end = (self.clock)();
        let end = match &out {
            Ok(t) => t.end,
            Err(e) => e.end().unwrap_or(ctx.now).max(ctx.now),
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: id,
            parent: None,
            client: ctx.node,
            kind,
            layer: self.layer,
            wall: (wall_start, wall_end),
            virt: (ctx.now, end),
        });
        for mut child in self.inner.take_spans() {
            child.op = id;
            child.parent = Some(id);
            self.spans.push(child);
        }
        out
    }
}

impl<F: BenchTarget + SpanSource> BenchTarget for Traced<F> {
    fn phase_reset(&mut self) {
        self.inner.phase_reset();
    }
}

impl<F: FileSystem + SpanSource> FileSystem for Traced<F> {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        self.call(ctx, "mkdir", |fs| fs.mkdir(ctx, path, mode))
    }
    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.call(ctx, "rmdir", |fs| fs.rmdir(ctx, path))
    }
    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle> {
        self.call(ctx, "create", |fs| fs.create(ctx, path, mode))
    }
    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        self.call(ctx, "open", |fs| fs.open(ctx, path, flags))
    }
    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()> {
        self.call(ctx, "close", |fs| fs.close(ctx, fh))
    }
    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        self.call(ctx, "read", |fs| fs.read(ctx, fh, offset, len))
    }
    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        self.call(ctx, "write", |fs| fs.write(ctx, fh, offset, len))
    }
    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr> {
        self.call(ctx, "stat", |fs| fs.stat(ctx, path))
    }
    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        self.call(ctx, "setattr", |fs| fs.setattr(ctx, path, set))
    }
    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        self.call(ctx, "readdir", |fs| fs.readdir(ctx, path))
    }
    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.call(ctx, "unlink", |fs| fs.unlink(ctx, path))
    }
    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        self.call(ctx, "rename", |fs| fs.rename(ctx, from, to))
    }
    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        self.call(ctx, "link", |fs| fs.link(ctx, existing, new))
    }
    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        self.call(ctx, "symlink", |fs| fs.symlink(ctx, target, new))
    }
    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        self.call(ctx, "readlink", |fs| fs.readlink(ctx, path))
    }
    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats> {
        self.call(ctx, "statfs", |fs| fs.statfs(ctx))
    }
}

/// Most spans a trace file holds; aggregates always use every span.
pub const TRACE_FILE_CAP: usize = 200_000;

/// Renders spans as Chrome trace-event JSON (loadable in Perfetto):
/// one complete event per span on the host-time axis, one thread per
/// client node, virtual times and causality in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(TRACE_FILE_CAP).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let cat = match s.layer {
            Layer::Cofs => "cofs",
            Layer::Under => "under",
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{parent},\
             \"virt_start_ms\":{},\"virt_end_ms\":{}}}}}",
            s.kind,
            s.client.0,
            s.wall.0 * 1e6,
            (s.wall.1 - s.wall.0) * 1e6,
            s.op,
            s.virt.0.as_millis_f64(),
            s.virt.1.as_millis_f64(),
        );
    }
    out.push_str("\n]}\n");
    out
}
