//! Multi-client virtual-time driver.
//!
//! Benchmarks (metarates, IOR) are expressed as per-client *scripts* of
//! filesystem actions. The driver executes them under the min-clock
//! discipline: at every step, the client with the smallest private
//! clock runs its next action. Because shared resources inside the
//! filesystem observe arrivals in global time order, FIFO queueing and
//! token contention are faithful.
//!
//! Clients whose clocks tie run in client-index order. That tie-break
//! is part of the contract, not an accident of the implementation: on
//! a shared queue it decides who waits, so it fixes every latency a run
//! reports. Runnable clients sit in a binary heap keyed by
//! `(clock, index)`, so one step costs O(log n) in the number of
//! clients rather than a scan of all of them.
//!
//! Scripts may contain [`Action::Barrier`] steps; a barrier releases
//! when every *running* client has arrived, and all arrivals leave with
//! the maximum arrival clock — exactly how MPI benchmarks like
//! metarates synchronize their phases. Clients that have finished
//! their scripts do not hold a barrier up.
//!
//! Scripted clients time each step and read nothing it returns, so an
//! [`Action::Readdir`] lists through [`FileSystem::readdir_count`]: the
//! listing is checked, priced and applied exactly as `readdir` would
//! do it, without building the names.

use crate::error::{Errno, FsError};
use crate::fs::{FileSystem, OpCtx};
use crate::path::VPath;
use crate::types::{FileHandle, Gid, Mode, OpenFlags, Uid};
use netsim::ids::{NodeId, Pid};
use simcore::stats::Summary;
use simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One scripted filesystem action.
///
/// Handle-producing actions store the handle in a per-client *slot*;
/// handle-consuming actions reference the slot, so scripts can be fully
/// precomputed.
#[derive(Debug, Clone)]
pub enum Action {
    /// `mkdir(path, mode)`.
    Mkdir(VPath, Mode),
    /// `create(path, mode)` storing the handle in `slot`.
    Create {
        /// Path to create.
        path: VPath,
        /// Permission bits for the new file.
        mode: Mode,
        /// Handle slot to fill.
        slot: usize,
    },
    /// `open(path, flags)` storing the handle in `slot`.
    Open {
        /// Path to open.
        path: VPath,
        /// Open flags.
        flags: OpenFlags,
        /// Handle slot to fill.
        slot: usize,
    },
    /// `close(slot)`.
    Close {
        /// Handle slot to close.
        slot: usize,
    },
    /// An `open` immediately followed by a `close`, measured as one
    /// sample (the paper's "open/close" operation).
    OpenClose(VPath, OpenFlags),
    /// `read(slot, offset, len)`.
    Read {
        /// Handle slot.
        slot: usize,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// `write(slot, offset, len)`.
    Write {
        /// Handle slot.
        slot: usize,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        len: u64,
    },
    /// `stat(path)`.
    Stat(VPath),
    /// `utime(path)` with both times set to the current virtual time.
    Utime(VPath),
    /// `readdir(path)`, listed through [`FileSystem::readdir_count`].
    Readdir(VPath),
    /// `unlink(path)`.
    Unlink(VPath),
    /// `rmdir(path)`.
    Rmdir(VPath),
    /// Rendezvous with every other running client.
    Barrier,
}

/// One step: an action plus an optional measurement label.
#[derive(Debug, Clone)]
pub struct Step {
    /// The action to perform.
    pub action: Action,
    /// If set, the step's latency is recorded under this label.
    pub label: Option<&'static str>,
}

impl Step {
    /// An unmeasured step.
    pub fn new(action: Action) -> Self {
        Step {
            action,
            label: None,
        }
    }

    /// A measured step.
    pub fn measured(label: &'static str, action: Action) -> Self {
        Step {
            action,
            label: Some(label),
        }
    }
}

/// A client: identity plus its script.
#[derive(Debug, Clone)]
pub struct ClientScript {
    /// The node the client runs on.
    pub node: NodeId,
    /// The process id on that node.
    pub pid: Pid,
    /// Effective user.
    pub uid: Uid,
    /// Effective group.
    pub gid: Gid,
    /// The steps to execute, in order.
    pub steps: Vec<Step>,
}

impl ClientScript {
    /// A client with default uid/gid 1000 and an empty script.
    pub fn new(node: NodeId, pid: Pid) -> Self {
        ClientScript {
            node,
            pid,
            uid: Uid(1000),
            gid: Gid(1000),
            steps: Vec::new(),
        }
    }

    /// Appends an unmeasured step (builder style).
    pub fn push(&mut self, action: Action) -> &mut Self {
        self.steps.push(Step::new(action));
        self
    }

    /// Appends a measured step (builder style).
    pub fn push_measured(&mut self, label: &'static str, action: Action) -> &mut Self {
        self.steps.push(Step::measured(label, action));
        self
    }
}

/// An error encountered while running a script.
#[derive(Debug, Clone)]
pub struct RunError {
    /// Index of the failing client.
    pub client: usize,
    /// Index of the failing step within that client's script.
    pub step: usize,
    /// The underlying filesystem error.
    pub error: FsError,
}

/// Everything measured during a run.
#[derive(Debug)]
pub struct RunReport {
    /// Latency summaries per measurement label.
    pub per_label: BTreeMap<&'static str, Summary>,
    /// Script errors (empty in a healthy benchmark).
    pub errors: Vec<RunError>,
    /// The largest client clock at the end of the run.
    pub makespan: SimTime,
    /// Final clock of each client.
    pub client_end: Vec<SimTime>,
}

impl RunReport {
    /// The summary for a label, if any step used it.
    pub fn label(&self, label: &str) -> Option<&Summary> {
        self.per_label.get(label)
    }

    /// Mean latency in milliseconds for a label (0.0 if absent).
    pub fn mean_millis(&self, label: &str) -> f64 {
        self.label(label).map_or(0.0, |s| s.mean_millis())
    }

    /// Panics with a readable message if any step failed — benchmark
    /// harnesses call this because a failing script invalidates the
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is non-empty.
    pub fn expect_clean(&self) {
        if let Some(e) = self.errors.first() {
            panic!(
                "script failed: client {} step {}: {} ({} errors total)",
                e.client,
                e.step,
                e.error,
                self.errors.len()
            );
        }
    }
}

/// Penalty clock advance applied to a failing step so a broken script
/// cannot spin the driver forever.
const ERROR_COST: SimDuration = SimDuration::from_micros(10);

struct ClientState {
    script: ClientScript,
    next_step: usize,
    clock: SimTime,
    slots: Vec<Option<FileHandle>>,
}

/// Runs a set of client scripts against a filesystem, starting all
/// clients at time zero.
///
/// Returns per-label latency summaries and the run makespan.
///
/// # Examples
///
/// ```
/// use netsim::ids::{NodeId, Pid};
/// use vfs::driver::{run, Action, ClientScript};
/// use vfs::memfs::MemFs;
/// use vfs::path::vpath;
/// use vfs::types::Mode;
///
/// let mut client = ClientScript::new(NodeId(0), Pid(1));
/// client.push_measured(
///     "create",
///     Action::Create { path: vpath("/f"), mode: Mode::file_default(), slot: 0 },
/// );
/// client.push(Action::Close { slot: 0 });
/// let report = run(&mut MemFs::new(), vec![client]);
/// report.expect_clean();
/// assert_eq!(report.per_label["create"].count(), 1);
/// ```
pub fn run<F: FileSystem>(fs: &mut F, scripts: Vec<ClientScript>) -> RunReport {
    let mut clients: Vec<ClientState> = scripts
        .into_iter()
        .map(|script| {
            let max_slot = script
                .steps
                .iter()
                .filter_map(|s| match s.action {
                    Action::Create { slot, .. } | Action::Open { slot, .. } => Some(slot),
                    Action::Close { slot } => Some(slot),
                    Action::Read { slot, .. } | Action::Write { slot, .. } => Some(slot),
                    _ => None,
                })
                .max()
                .map_or(0, |m| m + 1);
            ClientState {
                next_step: 0,
                clock: SimTime::ZERO,
                slots: vec![None; max_slot],
                script,
            }
        })
        .collect();

    // Runnable clients, smallest `(clock, index)` on top. A client is in
    // exactly one place until it finishes: here, or in `waiting`.
    let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.script.steps.is_empty())
        .map(|(i, _)| Reverse((SimTime::ZERO, i)))
        .collect();
    let mut waiting: Vec<usize> = Vec::new();
    let mut per_label: BTreeMap<&'static str, Summary> = BTreeMap::new();
    let mut errors = Vec::new();
    // Debug-build invariant: the min-clock dispatch order is the
    // simulation's definition of virtual time, so the selected clock
    // must never regress between dispatches (deterministic-replay
    // audit; backstops the cofs-analyze static pass).
    #[cfg(debug_assertions)]
    let mut dispatch_watermark = SimTime::ZERO;

    loop {
        let Some(Reverse((now, idx))) = ready.pop() else {
            // Nobody can run: either everyone finished, or every
            // unfinished client waits at a barrier, which releases all
            // of them at the latest arrival clock.
            let Some(release) = waiting.iter().map(|&i| clients[i].clock).max() else {
                break;
            };
            for i in waiting.drain(..) {
                let c = &mut clients[i];
                c.clock = release;
                c.next_step += 1;
                if c.next_step < c.script.steps.len() {
                    ready.push(Reverse((release, i)));
                }
            }
            // A release starts a new monotonicity epoch: a client that
            // finished its script may have run past the waiters, so the
            // epoch re-anchors at the release clock rather than the
            // last dispatch.
            #[cfg(debug_assertions)]
            {
                dispatch_watermark = release;
            }
            continue;
        };
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                now >= dispatch_watermark,
                "virtual time regressed: dispatching at {now:?} after {dispatch_watermark:?}"
            );
            dispatch_watermark = now;
        }

        let c = &mut clients[idx];
        let step_idx = c.next_step;
        let step = &c.script.steps[step_idx];
        if matches!(step.action, Action::Barrier) {
            waiting.push(idx);
            continue;
        }
        let ctx = OpCtx {
            node: c.script.node,
            pid: c.script.pid,
            uid: c.script.uid,
            gid: c.script.gid,
            now,
        };
        match perform(fs, &ctx, &step.action, &mut c.slots) {
            Ok(end) => {
                debug_assert!(end >= now, "operations never complete in the past");
                if let Some(label) = step.label {
                    per_label
                        .entry(label)
                        .or_insert_with(|| Summary::new(label))
                        .record(end.saturating_since(now));
                }
                c.clock = end;
            }
            Err(error) => {
                // A failure that reports when it was known (e.g. an
                // ENOENT that cost a real round trip) advances the
                // clock honestly; otherwise the nominal penalty keeps a
                // broken script from spinning forever.
                let end = error.end().unwrap_or(now + ERROR_COST);
                debug_assert!(end >= now, "operations never fail in the past");
                c.clock = end;
                errors.push(RunError {
                    client: idx,
                    step: step_idx,
                    error,
                });
            }
        }
        c.next_step += 1;
        if c.next_step < c.script.steps.len() {
            ready.push(Reverse((c.clock, idx)));
        }
    }

    let client_end: Vec<SimTime> = clients.iter().map(|c| c.clock).collect();
    RunReport {
        per_label,
        errors,
        makespan: client_end.iter().copied().max().unwrap_or(SimTime::ZERO),
        client_end,
    }
}

/// Performs one non-barrier action, filling or emptying `slots`.
fn perform<F: FileSystem>(
    fs: &mut F,
    ctx: &OpCtx,
    action: &Action,
    slots: &mut [Option<FileHandle>],
) -> Result<SimTime, FsError> {
    let empty = |op, slot| FsError::new(Errno::EBADF, op, format!("slot {slot}"));
    match action {
        Action::Mkdir(path, mode) => fs.mkdir(ctx, path, *mode).map(|t| t.end),
        Action::Create { path, mode, slot } => fs.create(ctx, path, *mode).map(|t| {
            slots[*slot] = Some(t.value);
            t.end
        }),
        Action::Open { path, flags, slot } => fs.open(ctx, path, *flags).map(|t| {
            slots[*slot] = Some(t.value);
            t.end
        }),
        Action::Close { slot } => match slots[*slot].take() {
            Some(fh) => fs.close(ctx, fh).map(|t| t.end),
            None => Err(empty("close", slot)),
        },
        Action::OpenClose(path, flags) => fs.open(ctx, path, *flags).and_then(|t| {
            let ctx2 = ctx.at(t.end);
            fs.close(&ctx2, t.value).map(|t2| t2.end)
        }),
        Action::Read { slot, offset, len } => match slots[*slot] {
            Some(fh) => fs.read(ctx, fh, *offset, *len).map(|t| t.end),
            None => Err(empty("read", slot)),
        },
        Action::Write { slot, offset, len } => match slots[*slot] {
            Some(fh) => fs.write(ctx, fh, *offset, *len).map(|t| t.end),
            None => Err(empty("write", slot)),
        },
        Action::Stat(path) => fs.stat(ctx, path).map(|t| t.end),
        Action::Utime(path) => fs.utime(ctx, path, ctx.now, ctx.now).map(|t| t.end),
        Action::Readdir(path) => fs.readdir_count(ctx, path).map(|t| t.end),
        Action::Unlink(path) => fs.unlink(ctx, path).map(|t| t.end),
        Action::Rmdir(path) => fs.rmdir(ctx, path).map(|t| t.end),
        Action::Barrier => unreachable!("the driver parks barrier steps itself"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;
    use crate::path::vpath;

    #[test]
    fn single_client_script_runs() {
        let mut c = ClientScript::new(NodeId(0), Pid(1));
        c.push(Action::Mkdir(vpath("/d"), Mode::dir_default()));
        c.push_measured(
            "create",
            Action::Create {
                path: vpath("/d/f"),
                mode: Mode::file_default(),
                slot: 0,
            },
        );
        c.push_measured(
            "write",
            Action::Write {
                slot: 0,
                offset: 0,
                len: 4096,
            },
        );
        c.push(Action::Close { slot: 0 });
        c.push_measured("stat", Action::Stat(vpath("/d/f")));
        c.push_measured("utime", Action::Utime(vpath("/d/f")));
        c.push_measured(
            "open_close",
            Action::OpenClose(vpath("/d/f"), OpenFlags::RDONLY),
        );
        c.push(Action::Unlink(vpath("/d/f")));
        c.push(Action::Rmdir(vpath("/d")));
        let report = run(&mut MemFs::new(), vec![c]);
        report.expect_clean();
        for label in ["create", "write", "stat", "utime", "open_close"] {
            assert_eq!(report.per_label[label].count(), 1, "{label}");
        }
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // Client 0 does a lot of work before the barrier; client 1 does
        // none. After the barrier both must share the slower clock.
        let mut c0 = ClientScript::new(NodeId(0), Pid(1));
        for i in 0..100 {
            c0.push(Action::Create {
                path: vpath(&format!("/f{i}")),
                mode: Mode::file_default(),
                slot: 0,
            });
            c0.push(Action::Close { slot: 0 });
        }
        c0.push(Action::Barrier);
        c0.push_measured("post", Action::Stat(vpath("/f0")));
        let mut c1 = ClientScript::new(NodeId(1), Pid(1));
        c1.push(Action::Barrier);
        c1.push_measured("post", Action::Stat(vpath("/f0")));
        let report = run(&mut MemFs::new(), vec![c0, c1]);
        report.expect_clean();
        // Both clients ended within one op of each other.
        let diff = report.client_end[0]
            .saturating_since(report.client_end[1])
            .max(report.client_end[1].saturating_since(report.client_end[0]));
        assert!(diff < SimDuration::from_micros(100), "diff={diff}");
    }

    #[test]
    fn unbalanced_finish_does_not_deadlock() {
        // Client 1 finishes before client 0 reaches its barrier; the
        // barrier must still release.
        let mut c0 = ClientScript::new(NodeId(0), Pid(1));
        c0.push(Action::Create {
            path: vpath("/a"),
            mode: Mode::file_default(),
            slot: 0,
        });
        c0.push(Action::Close { slot: 0 });
        c0.push(Action::Barrier);
        c0.push(Action::Stat(vpath("/a")));
        let mut c1 = ClientScript::new(NodeId(1), Pid(1));
        c1.push(Action::Stat(vpath("/")));
        let report = run(&mut MemFs::new(), vec![c0, c1]);
        report.expect_clean();
    }

    #[test]
    fn errors_are_collected_not_fatal() {
        let mut c = ClientScript::new(NodeId(0), Pid(1));
        c.push(Action::Stat(vpath("/missing")));
        c.push(Action::Create {
            path: vpath("/ok"),
            mode: Mode::file_default(),
            slot: 0,
        });
        c.push(Action::Close { slot: 0 });
        let report = run(&mut MemFs::new(), vec![c]);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].step, 0);
    }

    #[test]
    #[should_panic(expected = "script failed")]
    fn expect_clean_panics_on_error() {
        let mut c = ClientScript::new(NodeId(0), Pid(1));
        c.push(Action::Stat(vpath("/missing")));
        run(&mut MemFs::new(), vec![c]).expect_clean();
    }

    #[test]
    fn close_unfilled_slot_is_error() {
        let mut c = ClientScript::new(NodeId(0), Pid(1));
        c.push(Action::Close { slot: 0 });
        let report = run(&mut MemFs::new(), vec![c]);
        assert_eq!(report.errors.len(), 1);
    }

    #[test]
    fn report_mean_millis_defaults_to_zero() {
        let report = run(
            &mut MemFs::new(),
            vec![ClientScript::new(NodeId(0), Pid(1))],
        );
        assert_eq!(report.mean_millis("absent"), 0.0);
        assert!(report.label("absent").is_none());
    }
}
