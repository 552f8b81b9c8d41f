//! The motivating application scenarios from the paper's introduction.
//!
//! §II: "Large parallel applications usually create per-node auxiliary
//! files and/or generate checkpoints by having each node dump its
//! relevant data into a different file; not unlikely, applications
//! place these files in a common directory. On the other hand, smaller
//! applications are typically launched in large bunches, and users
//! configure them to write the different output files also in a shared
//! directory."

use crate::target::BenchTarget;
use cofs::batch::BatchStats;
use cofs::client_cache::CacheStats;
use cofs::fault::FaultSummary;
use cofs::mds_cluster::ShardUsage;
use netsim::ids::{NodeId, Pid};
use simcore::time::SimTime;
use vfs::driver::{run, Action, ClientScript};
use vfs::error::Errno;
use vfs::fs::OpCtx;
use vfs::path::{vpath, VPath};
use vfs::types::{Mode, OpenFlags};

/// A parallel application writing a checkpoint: every node dumps its
/// state into its own file in a common directory.
#[derive(Debug, Clone)]
pub struct CheckpointStorm {
    /// Nodes dumping state.
    pub nodes: usize,
    /// Bytes each node writes per checkpoint.
    pub bytes_per_node: u64,
    /// Checkpoint rounds.
    pub rounds: usize,
    /// The common directory.
    pub dir: VPath,
}

impl Default for CheckpointStorm {
    fn default() -> Self {
        CheckpointStorm {
            nodes: 8,
            bytes_per_node: 4 * 1024 * 1024,
            rounds: 3,
            dir: vpath("/checkpoints"),
        }
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Virtual wall time to complete the whole scenario.
    pub makespan: SimTime,
    /// Mean time per file creation, in ms (0.0 when the scenario
    /// creates nothing in its measured phase).
    pub mean_create_ms: f64,
    /// Mean time per `stat`, in ms (0.0 when unmeasured).
    pub mean_stat_ms: f64,
    /// Median and 99th-percentile `stat` latency, in ms (`None` when
    /// the scenario measured no stats). Makespans hide head-of-line
    /// blocking of synchronous reads behind batch service lumps; these
    /// tail columns expose it per storm.
    pub stat_p50_p99_ms: Option<(f64, f64)>,
    /// Files the scenario covers: the creates its scripts attempt (some
    /// may fail under a fault plan), or the tree a read-only storm
    /// polls.
    pub files: usize,
    /// Per-shard metadata-service load during the measured phase
    /// (empty when the target has no sharded MDS).
    pub per_shard: Vec<ShardUsage>,
    /// Client-cache counters during the measured phase (`None` when
    /// the target has no cache or it is disabled).
    pub cache: Option<CacheStats>,
    /// Batching counters during the measured phase (`None` when the
    /// target has no batch pipeline or it is disabled). The makespan
    /// already folds in the end-of-phase drain of buffered batches.
    pub batch: Option<BatchStats>,
    /// How far past the makespan the last acked-but-unapplied
    /// write-behind batch finishes applying, in ms — the scenario's
    /// crash-consistency window. Zero without write-behind journaling:
    /// every ack is durable. The makespan deliberately does *not* fold
    /// this in (acks are what clients observe); reports print it
    /// alongside instead.
    pub apply_tail_ms: f64,
    /// Fault/recovery accounting (`None` without an armed fault plan,
    /// so fault-free results stay byte-identical to the pre-fault
    /// shape).
    ///
    /// The target, not the scenario, decides which step errors a run
    /// may carry. Without an armed plan every scripted step must
    /// succeed. With one, a step whose retries ran out fails with
    /// `EIO`, and a step that depended on it fails with `EBADF`
    /// (closing its empty slot) or `ENOENT` (the missing name); the
    /// `EIO` count lands in [`FaultSummary::errors`]. Every scenario's
    /// `run` panics on any other step error.
    pub fault: Option<FaultSummary>,
}

impl ScenarioResult {
    /// Aggregate creation throughput over the scenario, in files/s.
    pub fn creates_per_sec(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span > 0.0 {
            self.files as f64 / span
        } else {
            0.0
        }
    }
}

impl CheckpointStorm {
    /// Runs the checkpoint storm and reports completion time.
    ///
    /// # Panics
    ///
    /// Panics if a setup operation fails, or on a step error the
    /// target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        let setup = OpCtx::test(NodeId(0));
        fs.mkdir(&setup, &self.dir, Mode::dir_default())
            .expect("setup mkdir");
        let chunk = 1024 * 1024;
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            for r in 0..self.rounds {
                s.push(Action::Barrier);
                s.push_measured(
                    "create",
                    Action::Create {
                        path: self.dir.join(&format!("ckpt.{r}.{n}")),
                        mode: Mode::file_default(),
                        slot: 0,
                    },
                );
                let mut off = 0;
                while off < self.bytes_per_node {
                    let len = chunk.min(self.bytes_per_node - off);
                    s.push(Action::Write {
                        slot: 0,
                        offset: off,
                        len,
                    });
                    off += len;
                }
                s.push(Action::Close { slot: 0 });
            }
            scripts.push(s);
        }
        measure(fs, scripts, self.nodes * self.rounds)
    }
}

/// A bundle of loosely coupled small jobs, all configured to write
/// their outputs into one shared directory.
#[derive(Debug, Clone)]
pub struct JobBundle {
    /// Nodes running jobs.
    pub nodes: usize,
    /// Jobs per node (each its own process).
    pub jobs_per_node: usize,
    /// Output files per job (e.g. result + log).
    pub files_per_job: usize,
    /// Bytes per output file.
    pub bytes_per_file: u64,
    /// The shared output directory.
    pub dir: VPath,
}

impl Default for JobBundle {
    fn default() -> Self {
        JobBundle {
            nodes: 8,
            jobs_per_node: 16,
            files_per_job: 2,
            bytes_per_file: 64 * 1024,
            dir: vpath("/results"),
        }
    }
}

impl JobBundle {
    /// Runs the job bundle and reports completion time.
    ///
    /// # Panics
    ///
    /// Panics if a setup operation fails, or on a step error the
    /// target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        let setup = OpCtx::test(NodeId(0));
        fs.mkdir(&setup, &self.dir, Mode::dir_default())
            .expect("setup mkdir");
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            for j in 0..self.jobs_per_node {
                // Each job is its own process — placement treats it as
                // a distinct stream.
                let mut s = ClientScript::new(NodeId(n as u32), Pid(j as u32 + 1));
                for f in 0..self.files_per_job {
                    s.push_measured(
                        "create",
                        Action::Create {
                            path: self.dir.join(&format!("out.{n}.{j}.{f}")),
                            mode: Mode::file_default(),
                            slot: 0,
                        },
                    );
                    s.push(Action::Write {
                        slot: 0,
                        offset: 0,
                        len: self.bytes_per_file,
                    });
                    s.push(Action::Close { slot: 0 });
                }
                scripts.push(s);
            }
        }
        measure(
            fs,
            scripts,
            self.nodes * self.jobs_per_node * self.files_per_job,
        )
    }
}

/// A metadata storm over a handful of hot shared directories: every
/// node creates files round-robin across the directories and re-stats
/// recent ones (the monitoring/polling traffic of §II), with no
/// payload I/O at all. This is the metadata-service stress the
/// shard-count scaling study sweeps — at the default intensity a
/// single metadata server saturates and serializes the storm, while
/// partitioned shards split the hot directories between them.
///
/// The failover and correlated-failure studies run this same storm (8
/// dirs, 2 stats per create, under `/failover` and `/cascade`) on
/// targets whose config scripts the crashes
/// (`CofsConfig::with_fault_plan`). `phase_reset` re-arms the plan, so
/// scripted fault times count from the measured phase, and the run
/// rides the faults out under the error policy of
/// [`ScenarioResult::fault`].
#[derive(Debug, Clone)]
pub struct SharedDirStorm {
    /// Nodes issuing creates.
    pub nodes: usize,
    /// Hot shared directories (`<root>/d0` … `<root>/d{dirs-1}`).
    pub dirs: usize,
    /// Files each node creates (spread round-robin over the dirs).
    pub files_per_node: usize,
    /// `stat` calls issued after each create (polling pressure; this
    /// is what pushes the metadata service into its queueing regime).
    pub stats_per_create: usize,
    /// `readdir` calls on the hot directory after each create
    /// (directory-watching pressure). Zero by default — the historical
    /// storm shape — but with the client cache on this is the
    /// write-sharing worst case: every listing takes a dentry lease
    /// that the very next create by any other node must recall.
    pub readdirs_per_create: usize,
    /// How many *consecutive* files each node creates into the same
    /// directory before moving to the next one (a create train, the
    /// untar/compile pattern). `1` — the default, and the historical
    /// storm shape bit-for-bit — rotates directories every file; larger
    /// bursts give the RPC batching layer same-shard runs to coalesce.
    pub burst: usize,
    /// Defer each create's polling to the end of its burst: the node
    /// fires the whole create train back-to-back, *then* stats (and
    /// lists) everything it just created. `false` — the default, and
    /// the historical shape bit-for-bit — interleaves the polling
    /// after every create, which paces the train at synchronous-read
    /// speed and keeps batches timer-bound. With it on, trains fill
    /// real `max_batch_ops`-sized batches and the polling reads land
    /// while those multi-op lumps occupy the shard queues — the
    /// head-of-line collision the read-priority lane exists for.
    pub poll_after_burst: bool,
    /// Parent of the shared directories.
    pub root: VPath,
}

impl Default for SharedDirStorm {
    fn default() -> Self {
        SharedDirStorm {
            nodes: 32,
            dirs: 32,
            files_per_node: 16,
            stats_per_create: 8,
            readdirs_per_create: 0,
            burst: 1,
            poll_after_burst: false,
            root: vpath("/storm"),
        }
    }
}

impl SharedDirStorm {
    /// The mixed stat+create storm of the read-priority study: bursty
    /// create trains (which the batch layer coalesces into multi-op
    /// service lumps) with synchronous stats interleaved after every
    /// create. The ablation's round-robin row showed this shape gains
    /// nothing from batching alone — the stats queue behind the lumps
    /// — so it is the workload where `CofsConfig::read_priority` must
    /// decouple stat tail latency from `max_batch_ops`.
    pub fn mixed(nodes: usize, files_per_node: usize) -> Self {
        SharedDirStorm {
            nodes,
            dirs: 8,
            files_per_node,
            stats_per_create: 2,
            readdirs_per_create: 0,
            burst: 16,
            poll_after_burst: true,
            root: vpath("/storm"),
        }
    }

    /// Runs the storm and reports completion time plus per-shard load.
    ///
    /// # Panics
    ///
    /// Panics if a setup operation fails, or on a step error the
    /// target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        let setup = OpCtx::test(NodeId(0));
        fs.mkdir(&setup, &self.root, Mode::dir_default())
            .expect("setup mkdir");
        for d in 0..self.dirs {
            fs.mkdir(
                &setup,
                &self.root.join(&format!("d{d}")),
                Mode::dir_default(),
            )
            .expect("setup mkdir");
        }
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            s.push(Action::Barrier);
            let mut pending: Vec<VPath> = Vec::new();
            for i in 0..self.files_per_node {
                // Interleave so every directory stays hot on every
                // node; a burst of b keeps b consecutive creates in one
                // directory before rotating (b = 1 is the historical
                // round-robin exactly).
                let d = (n + i / self.burst.max(1)) % self.dirs;
                let path = self.root.join(&format!("d{d}")).join(&format!("f.{n}.{i}"));
                s.push_measured(
                    "create",
                    Action::Create {
                        path: path.clone(),
                        mode: Mode::file_default(),
                        slot: 0,
                    },
                );
                s.push(Action::Close { slot: 0 });
                let dir = self.root.join(&format!("d{d}"));
                if self.poll_after_burst {
                    // Polling waits for the burst boundary: the create
                    // train runs back-to-back first.
                    pending.push(path);
                    let burst_done =
                        (i + 1) % self.burst.max(1) == 0 || i + 1 == self.files_per_node;
                    if burst_done {
                        for p in pending.drain(..) {
                            for _ in 0..self.stats_per_create {
                                s.push_measured("stat", Action::Stat(p.clone()));
                            }
                            for _ in 0..self.readdirs_per_create {
                                s.push_measured("readdir", Action::Readdir(dir.clone()));
                            }
                        }
                    }
                } else {
                    for _ in 0..self.stats_per_create {
                        s.push_measured("stat", Action::Stat(path.clone()));
                    }
                    for _ in 0..self.readdirs_per_create {
                        s.push_measured("readdir", Action::Readdir(dir.clone()));
                    }
                }
            }
            scripts.push(s);
        }
        measure(fs, scripts, self.nodes * self.files_per_node)
    }
}

/// The client cache's best case: N clients repeatedly `stat` and
/// open/close a mostly-read-only tree (think shared binaries, config
/// trees, or input datasets polled by every rank). Without a client
/// cache every round pays a full client↔shard round trip per file;
/// with leases only the first round misses, so simulated time drops to
/// the FUSE dispatch floor until a (rare) mutation or TTL expiry.
#[derive(Debug, Clone)]
pub struct HotStatStorm {
    /// Client nodes polling the tree.
    pub nodes: usize,
    /// Read-only directories (`<root>/d0` … ).
    pub dirs: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// How many times each node re-walks the whole tree.
    pub rounds: usize,
    /// `open`+`close` cycles per stat'd file and round (0 = stat only).
    pub opens_per_round: usize,
    /// Root of the read-only tree.
    pub root: VPath,
}

impl Default for HotStatStorm {
    fn default() -> Self {
        HotStatStorm {
            nodes: 16,
            dirs: 4,
            files_per_dir: 16,
            rounds: 8,
            opens_per_round: 1,
            root: vpath("/hot"),
        }
    }
}

impl HotStatStorm {
    /// Total files in the tree.
    pub fn files(&self) -> usize {
        self.dirs * self.files_per_dir
    }

    /// Runs the storm: node 0 builds the tree (unmeasured), then every
    /// node stats (and open/closes) every file, `rounds` times.
    ///
    /// # Panics
    ///
    /// Panics if a setup operation fails, or on a step error the
    /// target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        let setup = OpCtx::test(NodeId(0));
        fs.mkdir(&setup, &self.root, Mode::dir_default())
            .expect("setup mkdir");
        let mut now = SimTime::ZERO;
        for d in 0..self.dirs {
            let dir = self.root.join(&format!("d{d}"));
            now = fs
                .mkdir(&setup.at(now), &dir, Mode::dir_default())
                .expect("setup mkdir")
                .end;
            for f in 0..self.files_per_dir {
                let ctx = setup.at(now);
                let t = fs
                    .create(&ctx, &dir.join(&format!("f{f}")), Mode::file_default())
                    .expect("setup create");
                now = fs
                    .close(&setup.at(t.end), t.value)
                    .expect("setup close")
                    .end;
            }
        }
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            s.push(Action::Barrier);
            for _ in 0..self.rounds {
                for d in 0..self.dirs {
                    let dir = self.root.join(&format!("d{d}"));
                    for f in 0..self.files_per_dir {
                        let path = dir.join(&format!("f{f}"));
                        s.push_measured("stat", Action::Stat(path.clone()));
                        for _ in 0..self.opens_per_round {
                            s.push_measured(
                                "open_close",
                                Action::OpenClose(path.clone(), OpenFlags::RDONLY),
                            );
                        }
                    }
                }
            }
            scripts.push(s);
        }
        measure(fs, scripts, self.files())
    }
}

/// A multi-tenant metadata storm with one pathologically hot tenant:
/// every node creates files across the tenant directories, but a
/// configurable majority of them land in `/tenant0`. This is the
/// workload where both static shard policies lose — subtree routing
/// pins each whole tenant to one shard (so the hot tenant saturates
/// it), and hash routing pins the hot *directory* to one shard just
/// the same — while an elastic policy can split the hot directory's
/// dentries across shards once its measured rate crosses the split
/// threshold.
#[derive(Debug, Clone)]
pub struct SkewedTenantStorm {
    /// Nodes issuing creates.
    pub nodes: usize,
    /// Tenant directories (`/tenant0` … `/tenant{tenants-1}`), placed
    /// at the root so subtree partitioning assigns each its own shard.
    pub tenants: usize,
    /// Files each node creates.
    pub files_per_node: usize,
    /// `stat` calls issued after each create (polling pressure).
    pub stats_per_create: usize,
    /// Skew control: every `hot_stride`-th file goes to a rotating cold
    /// tenant, the rest to `/tenant0`. The default of 4 sends ~75 % of
    /// all creates to the hot tenant.
    pub hot_stride: usize,
}

impl Default for SkewedTenantStorm {
    fn default() -> Self {
        SkewedTenantStorm {
            nodes: 16,
            tenants: 8,
            files_per_node: 32,
            stats_per_create: 2,
            hot_stride: 4,
        }
    }
}

impl SkewedTenantStorm {
    /// Runs the skewed storm and reports completion time plus per-shard
    /// load (whose skew column is the point of this scenario).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two tenants or a zero
    /// `hot_stride`, if a setup operation fails, or on a step error the
    /// target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        assert!(self.tenants >= 2, "skew needs a hot and a cold tenant");
        assert!(self.hot_stride >= 1, "hot_stride must be at least 1");
        let setup = OpCtx::test(NodeId(0));
        for t in 0..self.tenants {
            fs.mkdir(&setup, &vpath(&format!("/tenant{t}")), Mode::dir_default())
                .expect("setup mkdir");
        }
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            s.push(Action::Barrier);
            for i in 0..self.files_per_node {
                // Every hot_stride-th file cools off on a rotating
                // non-hot tenant; everything else hammers tenant 0.
                let t = if i % self.hot_stride == self.hot_stride - 1 {
                    (n + i) % (self.tenants - 1) + 1
                } else {
                    0
                };
                let path = vpath(&format!("/tenant{t}/f.{n}.{i}"));
                s.push_measured(
                    "create",
                    Action::Create {
                        path: path.clone(),
                        mode: Mode::file_default(),
                        slot: 0,
                    },
                );
                s.push(Action::Close { slot: 0 });
                for _ in 0..self.stats_per_create {
                    s.push_measured("stat", Action::Stat(path.clone()));
                }
            }
            scripts.push(s);
        }
        measure(fs, scripts, self.nodes * self.files_per_node)
    }
}

/// A hotspot that moves: the storm runs in phases, each hammering one
/// directory out of a small pool, rotating to the next directory at
/// every phase boundary. While a phase runs, each node also re-stats a
/// few of its files from the *previous* phase — sparse polling that
/// keeps the cooled directory observed, which is exactly what lets a
/// lazy elastic policy notice the load has subsided and migrate the
/// split directory back toward single-shard affinity.
#[derive(Debug, Clone)]
pub struct ShiftingHotspotStorm {
    /// Nodes issuing creates.
    pub nodes: usize,
    /// Directories in the rotation (`<root>/h0` … `<root>/h{dirs-1}`).
    pub dirs: usize,
    /// Phases; phase `p` hammers `<root>/h{p % dirs}`.
    pub phases: usize,
    /// Files each node creates per phase, all in the phase's hot dir.
    pub files_per_phase: usize,
    /// `stat` calls issued after each create.
    pub stats_per_create: usize,
    /// Files from the previous phase each node re-stats during the
    /// current one (cooldown polling; 0 disables the lookback).
    pub lookback_stats: usize,
    /// Parent of the rotating directories.
    pub root: VPath,
}

impl Default for ShiftingHotspotStorm {
    fn default() -> Self {
        ShiftingHotspotStorm {
            nodes: 8,
            dirs: 4,
            phases: 8,
            files_per_phase: 16,
            stats_per_create: 2,
            // Sparse enough that the cooled directory's observation
            // windows close at or under the default merge threshold
            // (all nodes' lookbacks land in the same windows, so the
            // per-window count scales with nodes × lookbacks ÷ phase
            // length) — this is what lets lazy migration actually fire
            // mid-storm instead of the hotspot dirs staying split
            // forever.
            lookback_stats: 2,
            root: vpath("/shift"),
        }
    }
}

impl ShiftingHotspotStorm {
    /// Total files the storm creates.
    pub fn files(&self) -> usize {
        self.nodes * self.phases * self.files_per_phase
    }

    /// Runs the shifting-hotspot storm. Barriers separate the phases,
    /// so every node agrees on which directory is hot.
    ///
    /// # Panics
    ///
    /// Panics if `dirs` is zero, if a setup operation fails, or on a
    /// step error the target's fault plan does not explain (see
    /// [`ScenarioResult::fault`]).
    pub fn run<F: BenchTarget>(&self, fs: &mut F) -> ScenarioResult {
        assert!(self.dirs >= 1, "need at least one directory");
        let setup = OpCtx::test(NodeId(0));
        fs.mkdir(&setup, &self.root, Mode::dir_default())
            .expect("setup mkdir");
        for d in 0..self.dirs {
            fs.mkdir(
                &setup,
                &self.root.join(&format!("h{d}")),
                Mode::dir_default(),
            )
            .expect("setup mkdir");
        }
        let mut scripts = Vec::new();
        for n in 0..self.nodes {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            for p in 0..self.phases {
                s.push(Action::Barrier);
                let hot = self.root.join(&format!("h{}", p % self.dirs));
                // Sparse cooldown polling on last phase's directory,
                // spread *through* the phase (a background poller, not
                // a tail burst): each lookback stat is the only
                // traffic the cooled directory sees for a while, so an
                // elastic policy observes genuinely cold windows there
                // — that's what lets lazy migration give split levels
                // back while the new hotspot rages elsewhere.
                let lookbacks = if p > 0 {
                    self.lookback_stats.min(self.files_per_phase)
                } else {
                    0
                };
                let step = if lookbacks > 0 {
                    self.files_per_phase.div_ceil(lookbacks)
                } else {
                    usize::MAX
                };
                let cooled = self
                    .root
                    .join(&format!("h{}", (p + self.dirs - 1) % self.dirs));
                for i in 0..self.files_per_phase {
                    let path = hot.join(&format!("f.{n}.{p}.{i}"));
                    s.push_measured(
                        "create",
                        Action::Create {
                            path: path.clone(),
                            mode: Mode::file_default(),
                            slot: 0,
                        },
                    );
                    s.push(Action::Close { slot: 0 });
                    for _ in 0..self.stats_per_create {
                        s.push_measured("stat", Action::Stat(path.clone()));
                    }
                    // Stagger each node's polling positions: phases
                    // are barrier-synced, so un-staggered lookbacks
                    // from every node would land in the *same*
                    // observation windows and read as load, not cold.
                    if lookbacks > 0 {
                        let off = (n * step) / self.nodes.max(1);
                        if i >= off
                            && (i - off).is_multiple_of(step)
                            && (i - off) / step < lookbacks
                        {
                            let j = (i - off) / step;
                            let old = cooled.join(&format!("f.{n}.{}.{j}", p - 1));
                            s.push_measured("stat", Action::Stat(old));
                        }
                    }
                }
            }
            scripts.push(s);
        }
        measure(fs, scripts, self.files())
    }
}

/// Measures one scenario phase, everything a scenario does after its
/// unmeasured setup: `phase_reset` rewinds the target and re-arms any
/// fault plan (so scripted fault times count from here), the driver
/// runs the scripts, and the error policy of [`ScenarioResult::fault`]
/// judges the step errors.
fn measure<F: BenchTarget>(fs: &mut F, scripts: Vec<ClientScript>, files: usize) -> ScenarioResult {
    fs.phase_reset();
    let report = run(fs, scripts);
    // Pipelined batching acknowledges mutations before their wire
    // completion; the phase is not over until the tail drains.
    let makespan = match fs.drain_outstanding() {
        Some(tail) => report.makespan.max(tail),
        None => report.makespan,
    };
    let stat_p50_p99_ms = report.label("stat").map(|s| {
        (
            s.quantile(0.5).as_millis_f64(),
            s.quantile(0.99).as_millis_f64(),
        )
    });
    let apply_tail_ms = (fs.apply_horizon(makespan) - makespan).as_millis_f64();
    let mut fault = fs.fault_summary();
    match fault.as_mut() {
        None => report.expect_clean(),
        Some(f) => {
            for e in &report.errors {
                assert!(
                    e.error.is(Errno::EIO) || e.error.is(Errno::EBADF) || e.error.is(Errno::ENOENT),
                    "step error no fault explains: {}",
                    e.error
                );
            }
            f.errors = report
                .errors
                .iter()
                .filter(|e| e.error.is(Errno::EIO))
                .count() as u64;
        }
    }
    ScenarioResult {
        makespan,
        mean_create_ms: report.mean_millis("create"),
        mean_stat_ms: report.mean_millis("stat"),
        stat_p50_p99_ms,
        files,
        per_shard: fs.shard_usage(),
        cache: fs.cache_stats(),
        batch: fs.batch_stats(),
        apply_tail_ms,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::fs::FileSystem;
    use vfs::memfs::MemFs;

    #[test]
    fn checkpoint_storm_creates_all_files() {
        let storm = CheckpointStorm {
            nodes: 4,
            bytes_per_node: 1024,
            rounds: 2,
            ..CheckpointStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 8);
        let ctx = OpCtx::test(NodeId(0));
        assert_eq!(fs.readdir(&ctx, &storm.dir).unwrap().value.len(), 8);
        assert!(r.makespan > SimTime::ZERO);
    }

    #[test]
    fn shared_dir_storm_creates_all_files() {
        let storm = SharedDirStorm {
            nodes: 4,
            dirs: 4,
            files_per_node: 8,
            ..SharedDirStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 32);
        assert!(r.creates_per_sec() > 0.0);
        // Every hot directory got an even share.
        let ctx = OpCtx::test(NodeId(0));
        for d in 0..4 {
            let list = fs
                .readdir(&ctx, &storm.root.join(&format!("d{d}")))
                .unwrap()
                .value;
            assert_eq!(list.len(), 8, "d{d}");
        }
        // MemFs has no sharded MDS.
        assert!(r.per_shard.is_empty());
    }

    #[test]
    fn storm_reports_shard_usage_on_cofs() {
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fs::CofsFs;
        use simcore::time::SimDuration;

        let storm = SharedDirStorm {
            nodes: 2,
            dirs: 8,
            files_per_node: 8,
            ..SharedDirStorm::default()
        };
        let cfg = CofsConfig::default().with_shards(4, ShardPolicyKind::HashByParent);
        let mut fs = CofsFs::new(
            MemFs::new(),
            cfg,
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let r = storm.run(&mut fs);
        assert_eq!(r.per_shard.len(), 4);
        let total: u64 = r.per_shard.iter().map(|u| u.rpcs).sum();
        // create + stat per file, at least.
        assert!(total >= 2 * r.files as u64, "rpcs {total}");
        // More than one shard must have carried load (8 dirs, 4 shards).
        let loaded = r.per_shard.iter().filter(|u| u.rpcs > 0).count();
        assert!(
            loaded > 1,
            "storm load stuck on one shard: {:?}",
            r.per_shard
        );
    }

    #[test]
    fn hot_stat_storm_runs_on_memfs() {
        let storm = HotStatStorm {
            nodes: 2,
            dirs: 2,
            files_per_dir: 4,
            rounds: 2,
            opens_per_round: 1,
            ..HotStatStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 8);
        assert!(r.mean_stat_ms >= 0.0);
        assert!(r.makespan > SimTime::ZERO);
        assert!(r.cache.is_none(), "memfs has no client cache");
    }

    #[test]
    fn hot_stat_storm_cache_wins_and_storm_shows_invalidations() {
        use cofs::config::{CofsConfig, MdsNetwork};
        use cofs::fs::CofsFs;
        use simcore::time::SimDuration;

        let storm = HotStatStorm {
            nodes: 4,
            dirs: 2,
            files_per_dir: 8,
            rounds: 4,
            ..HotStatStorm::default()
        };
        let net = || MdsNetwork::uniform(SimDuration::from_micros(250));
        let mut plain = CofsFs::new(MemFs::new(), CofsConfig::default(), net(), 7);
        let cached_cfg = CofsConfig::default().with_client_cache(4096, SimDuration::from_secs(30));
        let mut cached = CofsFs::new(MemFs::new(), cached_cfg.clone(), net(), 7);
        let r_plain = storm.run(&mut plain);
        let r_cached = storm.run(&mut cached);
        assert!(
            r_cached.makespan < r_plain.makespan,
            "leases must beat per-op RTTs: {:?} vs {:?}",
            r_cached.makespan,
            r_plain.makespan
        );
        let stats = r_cached.cache.expect("cache enabled");
        assert!(stats.hit_rate() > 0.5, "read-only tree: {stats:?}");
        assert_eq!(stats.invalidations, 0, "nothing mutates the hot tree");

        // Write sharing (creates + listings in the same dirs) recalls
        // leases: the invalidation columns must show it.
        let storm = SharedDirStorm {
            nodes: 4,
            dirs: 2,
            files_per_node: 8,
            stats_per_create: 2,
            readdirs_per_create: 1,
            ..SharedDirStorm::default()
        };
        let mut cached = CofsFs::new(MemFs::new(), cached_cfg, net(), 7);
        let r = storm.run(&mut cached);
        let stats = r.cache.expect("cache enabled");
        assert!(stats.invalidations > 0, "{stats:?}");
        assert!(stats.recall_messages > 0, "{stats:?}");
        let recalls: u64 = r.per_shard.iter().map(|u| u.recalls).sum();
        assert!(recalls > 0, "{:?}", r.per_shard);
    }

    #[test]
    fn batched_storm_coalesces_and_beats_unbatched() {
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fs::CofsFs;
        use simcore::time::SimDuration;

        let storm = SharedDirStorm {
            nodes: 4,
            dirs: 2,
            files_per_node: 16,
            stats_per_create: 1,
            burst: 8,
            ..SharedDirStorm::default()
        };
        let net = || MdsNetwork::uniform(SimDuration::from_micros(250));
        let base = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
        let mut plain = CofsFs::new(MemFs::new(), base.clone(), net(), 7);
        let mut batched = CofsFs::new(
            MemFs::new(),
            base.with_batching(8, SimDuration::from_millis(5), 4),
            net(),
            7,
        );
        let r_plain = storm.run(&mut plain);
        let r_batched = storm.run(&mut batched);
        assert!(r_plain.batch.is_none(), "batching off reports no stats");
        let stats = r_batched.batch.expect("batching on");
        assert!(
            stats.mean_batch_ops() > 1.5,
            "bursts must coalesce: {stats:?}"
        );
        assert!(
            r_batched.makespan < r_plain.makespan,
            "amortized RTTs and group commits must win: {:?} vs {:?}",
            r_batched.makespan,
            r_plain.makespan
        );
        // The wire batches appear in the per-shard load.
        let batches: u64 = r_batched.per_shard.iter().map(|u| u.batches).sum();
        assert_eq!(batches, stats.batches_issued);
        assert!(r_plain.per_shard.iter().all(|u| u.batches == 0));
    }

    #[test]
    fn skewed_tenant_storm_is_skewed() {
        let storm = SkewedTenantStorm {
            nodes: 4,
            tenants: 4,
            files_per_node: 8,
            ..SkewedTenantStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 32);
        let ctx = OpCtx::test(NodeId(0));
        let hot = fs.readdir(&ctx, &vpath("/tenant0")).unwrap().value.len();
        // stride 4: i = 3 and 7 cool off, the other 6 of 8 stay hot.
        assert_eq!(hot, 4 * 6, "~75 % of creates must hit the hot tenant");
        let cold: usize = (1..4)
            .map(|t| {
                fs.readdir(&ctx, &vpath(&format!("/tenant{t}")))
                    .unwrap()
                    .value
                    .len()
            })
            .sum();
        assert_eq!(hot + cold, 32);
    }

    #[test]
    fn skewed_tenant_storm_skews_shard_load_under_static_policies() {
        use crate::report::shard_skew;
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fs::CofsFs;
        use simcore::time::SimDuration;

        let storm = SkewedTenantStorm {
            nodes: 4,
            tenants: 4,
            files_per_node: 16,
            ..SkewedTenantStorm::default()
        };
        let net = || MdsNetwork::uniform(SimDuration::from_micros(250));
        for kind in [ShardPolicyKind::HashByParent, ShardPolicyKind::Subtree] {
            let cfg = CofsConfig::default().with_shards(4, kind);
            let mut fs = CofsFs::new(MemFs::new(), cfg, net(), 7);
            let r = storm.run(&mut fs);
            let skew = shard_skew(&r.per_shard);
            assert!(
                skew > 1.5,
                "{kind:?} must concentrate the hot tenant on one shard: skew {skew}"
            );
        }
    }

    #[test]
    fn shifting_hotspot_storm_creates_all_files() {
        let storm = ShiftingHotspotStorm {
            nodes: 2,
            dirs: 2,
            phases: 4,
            files_per_phase: 4,
            ..ShiftingHotspotStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 32);
        let ctx = OpCtx::test(NodeId(0));
        // 4 phases over 2 dirs: each dir hosts 2 phases × 2 nodes × 4.
        for d in 0..2 {
            let list = fs
                .readdir(&ctx, &storm.root.join(&format!("h{d}")))
                .unwrap()
                .value;
            assert_eq!(list.len(), 16, "h{d}");
        }
        assert!(r.mean_stat_ms >= 0.0);
    }

    #[test]
    fn failover_storm_without_faults_is_a_plain_storm() {
        let storm = SharedDirStorm {
            nodes: 2,
            dirs: 2,
            files_per_node: 4,
            stats_per_create: 1,
            root: vpath("/failover"),
            ..SharedDirStorm::default()
        };
        let mut fs = MemFs::new();
        let r = storm.run(&mut fs);
        assert_eq!(r.files, 8);
        assert!(r.fault.is_none(), "memfs has no fault plan");
        assert!(r.makespan > SimTime::ZERO);
    }

    #[test]
    fn failover_storm_completes_through_a_mid_storm_crash() {
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fault::FaultPlan;
        use cofs::fs::CofsFs;
        use cofs::mds_cluster::ShardId;
        use simcore::time::SimDuration;

        let storm = SharedDirStorm {
            nodes: 4,
            dirs: 8,
            files_per_node: 8,
            stats_per_create: 2,
            root: vpath("/failover"),
            ..SharedDirStorm::default()
        };
        let plan = FaultPlan::default().crash(
            ShardId(1),
            SimTime::from_millis(5),
            SimDuration::from_millis(10),
        );
        let cfg = CofsConfig::default()
            .with_shards(4, ShardPolicyKind::HashByParent)
            .with_fault_plan(plan);
        let mut fs = CofsFs::new(
            MemFs::new(),
            cfg,
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let r = storm.run(&mut fs);
        let f = r.fault.expect("plan armed");
        assert_eq!(f.crashes, 1);
        assert!(f.nacks > 0, "the storm must have hit the window: {f:?}");
        assert!(f.retries > 0);
        assert_eq!(f.lost_acked_ops, 0, "acked work must survive recovery");
        assert_eq!(f.errors, 0, "default retry budget rides out 10ms");
        assert!(f.gap_ms >= 10.0, "gap covers restart + recovery: {f:?}");
        // The storm completed *through* the crash, not before it.
        assert!(r.makespan >= SimTime::from_millis(15), "{:?}", r.makespan);
        // Every attempted file exists: nothing was half-created.
        use vfs::fs::FileSystem;
        let ctx = OpCtx::test(NodeId(0));
        let mut listed = 0;
        for d in 0..storm.dirs {
            listed += fs
                .readdir(&ctx, &storm.root.join(&format!("d{d}")))
                .unwrap()
                .value
                .len();
        }
        assert_eq!(listed, r.files);
    }

    #[test]
    fn cascade_storm_survives_a_crash_loop_with_promotion_and_admission() {
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fault::FaultPlan;
        use cofs::fs::CofsFs;
        use cofs::mds_cluster::ShardId;
        use simcore::time::SimDuration;

        let storm = SharedDirStorm {
            nodes: 4,
            dirs: 8,
            files_per_node: 8,
            stats_per_create: 2,
            root: vpath("/cascade"),
            ..SharedDirStorm::default()
        };
        // A three-flap crash loop on one shard plus a simultaneous
        // partner crash — the correlated shape the cascade axis sweeps.
        // The tight 3ms period keeps every flap inside the promoted
        // storm's (much shorter) makespan so all four crashes fire.
        let plan = FaultPlan::default()
            .crash_loop(
                ShardId(1),
                SimTime::from_millis(2),
                SimDuration::from_millis(3),
                SimDuration::from_millis(10),
                3,
            )
            .crash(
                ShardId(2),
                SimTime::from_millis(2),
                SimDuration::from_millis(10),
            );
        let cfg = CofsConfig::default()
            .with_shards(4, ShardPolicyKind::HashByParent)
            .with_batching(16, SimDuration::from_millis(5), 4)
            .with_write_behind()
            .with_standby()
            .with_admission()
            .with_fault_plan(plan);
        let mut fs = CofsFs::new(
            MemFs::new(),
            cfg,
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let r = storm.run(&mut fs);
        let f = r.fault.expect("plan armed");
        assert_eq!(f.crashes, 4, "three flaps plus the rack partner");
        assert_eq!(f.promotions, 4, "standby absorbs every crash");
        assert_eq!(f.lost_acked_ops, 0, "acked work survives every flap");
        assert_eq!(f.errors, 0, "promotion gaps are short enough to ride out");
        // Promotion keeps each outage near the promotion cost, far
        // below the 4 × 10ms scripted floor the cold path waits out.
        assert!(f.gap_ms < 40.0, "promotion beats the scripted floor: {f:?}");
        use vfs::fs::FileSystem;
        let ctx = OpCtx::test(NodeId(0));
        let mut listed = 0;
        for d in 0..storm.dirs {
            listed += fs
                .readdir(&ctx, &storm.root.join(&format!("d{d}")))
                .unwrap()
                .value
                .len();
        }
        assert_eq!(listed, r.files, "nothing half-created across the cascade");
    }

    #[test]
    fn hot_stat_storm_rides_a_fault_plan() {
        use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
        use cofs::fault::{FaultPlan, RetryConfig};
        use cofs::fs::CofsFs;
        use simcore::time::SimDuration;

        // The error policy comes from the target, not the storm type: a
        // cached read-only storm rides a crash too. The crash fences
        // the leases its shard granted, and with no retry budget every
        // read that then misses on the down shard fails with `EIO`.
        let storm = HotStatStorm {
            nodes: 4,
            rounds: 4,
            ..HotStatStorm::default()
        };
        let base = CofsConfig::default().with_shards(4, ShardPolicyKind::HashByParent);
        let victim = base.shard_policy.shard_of(&vpath("/hot/d0/f0"));
        let cfg = base
            .with_client_cache(4096, SimDuration::from_secs(10))
            .with_retry(RetryConfig {
                max_retries: 0,
                ..RetryConfig::default()
            })
            .with_fault_plan(FaultPlan::default().crash(
                victim,
                SimTime::from_millis(20),
                SimDuration::from_millis(50),
            ));
        let mut fs = CofsFs::new(
            MemFs::new(),
            cfg,
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let r = storm.run(&mut fs);
        let f = r.fault.expect("plan armed");
        assert_eq!(f.crashes, 1);
        assert_eq!(f.fenced_leases, 64, "{f:?}");
        assert_eq!(f.errors, 256, "{f:?}");
        assert_eq!(r.files, 64);
    }

    #[test]
    fn job_bundle_creates_all_outputs() {
        let bundle = JobBundle {
            nodes: 2,
            jobs_per_node: 3,
            files_per_job: 2,
            bytes_per_file: 128,
            ..JobBundle::default()
        };
        let mut fs = MemFs::new();
        let r = bundle.run(&mut fs);
        assert_eq!(r.files, 12);
        let ctx = OpCtx::test(NodeId(0));
        assert_eq!(fs.readdir(&ctx, &bundle.dir).unwrap().value.len(), 12);
        assert!(r.mean_create_ms >= 0.0);
    }
}
