//! The four workloads: seeded input generation and the stack each one
//! runs on.
//!
//! Every workload is closed-loop: each client node issues its next
//! operation when the previous one completes, and phases are separated
//! by driver barriers. The program under test only ever sees the
//! generated scripts (through `vfs::driver::run`), the namespace made
//! before the measured phase, and its configuration.

use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fault::FaultPlan;
use cofs::mds_cluster::ShardId;
use netsim::cluster::ClusterBuilder;
use netsim::ids::{NodeId, Pid};
use pfs::config::PfsConfig;
use pfs::fs::PfsFs;
use simcore::rng::{stable_hash_combine, SimRng};
use simcore::time::{SimDuration, SimTime};
use vfs::driver::{Action, ClientScript};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::{Mode, OpenFlags};

/// COFS placement seed: fixed so that only the workload seed varies
/// between runs.
pub const PLACEMENT_SEED: u64 = 0xC0F5;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's metarates shape on COFS over GPFS: create, then
    /// stat, utime and open/close of other nodes' files in one shared
    /// directory.
    PaperSharedDir,
    /// The metadata-service limit: 512 clients, 16 elastic shards,
    /// MemFs underneath.
    MdsStorm,
    /// Writes beside reads on the full batching + journaling + cache
    /// stack.
    MixedCached,
    /// Crashes, a crash loop and a partition under a write-behind
    /// stack with standby, admission control and client caching.
    Cascade,
}

/// How big a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Client nodes.
    pub nodes: usize,
    /// Files each node creates.
    pub files: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSharedDir,
        Workload::MdsStorm,
        Workload::MixedCached,
        Workload::Cascade,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSharedDir => "paper_shared_dir",
            Workload::MdsStorm => "mds_storm",
            Workload::MixedCached => "mixed_cached",
            Workload::Cascade => "cascade",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size: one repetition takes 1.3–2.2 s of host time
    /// on a 2-core x86-64 box (`cascade` about 0.3 s) and records at
    /// least 16k creates and 24k stats.
    pub fn full(self) -> Size {
        let (nodes, files) = match self {
            Workload::PaperSharedDir => (32, 1536),
            Workload::MdsStorm => (512, 128),
            Workload::MixedCached => (64, 640),
            Workload::Cascade => (256, 64),
        };
        Size { nodes, files }
    }

    /// Independently seeded instances one run measures; its
    /// virtual-time metrics are means over them. `cascade` takes more,
    /// shorter ones: where a fault lands moves the cost of its recovery
    /// convoy chaotically, so one instance's mean create latency spreads
    /// by about 6 % (one standard deviation) whatever its length, and
    /// only the number of instances averages that out.
    pub fn instances(self) -> usize {
        match self {
            Workload::Cascade => 32,
            _ => 4,
        }
    }

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub fn tiny(self) -> Size {
        let (nodes, files) = match self {
            Workload::PaperSharedDir => (4, 24),
            Workload::MdsStorm => (16, 8),
            Workload::MixedCached => (4, 64),
            Workload::Cascade => (8, 16),
        };
        Size { nodes, files }
    }

    /// Errors a workload may meet: bounded retries on `cascade` can run
    /// out (`EIO`), and a step that depended on the failed create then
    /// fails deterministically (`EBADF` closing its empty slot, `ENOENT`
    /// on the missing name). Anything else is a bug.
    pub fn allows(self, errno: vfs::error::Errno) -> bool {
        use vfs::error::Errno::{EBADF, EIO, ENOENT};
        self == Workload::Cascade && matches!(errno, EIO | EBADF | ENOENT)
    }
}

/// Everything one run of a workload receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Directories node 0 makes before the measured phase, parents
    /// first. These are also every directory the workload touches.
    pub dirs: Vec<VPath>,
    /// Files node 0 creates (and closes) before the measured phase.
    pub files: Vec<VPath>,
    /// One closed-loop script per client node.
    pub scripts: Vec<ClientScript>,
    /// Faults scripted in virtual time from the start of the measured
    /// phase (empty except on `cascade`).
    pub plan: FaultPlan,
}

/// One seeded instance of a workload at a size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Which workload.
    pub workload: Workload,
    /// How big.
    pub size: Size,
    /// The run's seed.
    pub seed: u64,
    /// Which of the run's instances (`0..workload.instances()`).
    pub instance: usize,
}

impl Case {
    /// Generates this instance's inputs: the same seed and instance
    /// give the same inputs.
    pub fn inputs(&self) -> Inputs {
        let mut rng = SimRng::seed_from(stable_hash_combine(self.seed, self.instance as u64));
        match self.workload {
            Workload::PaperSharedDir => paper_shared_dir(self.size, &mut rng),
            Workload::MdsStorm => mds_storm(self.size, &mut rng),
            Workload::MixedCached => mixed_cached(self.size, &mut rng),
            Workload::Cascade => cascade(self.size, &mut rng),
        }
    }
}

fn client(n: usize) -> ClientScript {
    ClientScript::new(NodeId(n as u32), Pid(1))
}

fn create(s: &mut ClientScript, path: VPath) {
    s.push_measured(
        "create",
        Action::Create {
            path,
            mode: Mode::file_default(),
            slot: 0,
        },
    );
    s.push(Action::Close { slot: 0 });
}

fn children(parent: &VPath, prefix: &str, count: usize) -> Vec<VPath> {
    (0..count)
        .map(|i| parent.join(&format!("{prefix}{i}")))
        .collect()
}

/// metarates on one shared directory: every node creates its files,
/// then, behind a barrier, stats, utimes and open/closes as many files
/// other nodes created, in a seeded order. Each node first looks the
/// directory up a seeded 0–3 times, so nodes reach it slightly apart;
/// mixing the three later operations keeps the metadata server's queue
/// from settling into a lockstep convoy in which every stat waits
/// exactly as long as every other.
fn paper_shared_dir(size: Size, rng: &mut SimRng) -> Inputs {
    let dir = vpath("/shared");
    let file = |n: usize, i: usize| dir.join(&format!("f.{n}.{i}"));
    let mut scripts = Vec::new();
    for n in 0..size.nodes {
        let mut rng = rng.fork();
        let mut s = client(n);
        for _ in 0..rng.below(4) {
            s.push(Action::Stat(dir.clone()));
        }
        for i in 0..size.files {
            create(&mut s, file(n, i));
        }
        s.push(Action::Barrier);
        let mut ops: Vec<&'static str> = ["stat", "utime", "open_close"]
            .iter()
            .flat_map(|&op| std::iter::repeat_n(op, size.files))
            .collect();
        rng.shuffle(&mut ops);
        for op in ops {
            let other = (n + 1 + rng.below(size.nodes as u64 - 1) as usize) % size.nodes;
            let path = file(other, rng.below(size.files as u64) as usize);
            let action = match op {
                "stat" => Action::Stat(path),
                "utime" => Action::Utime(path),
                _ => Action::OpenClose(path, OpenFlags::RDONLY),
            };
            s.push_measured(op, action);
        }
        scripts.push(s);
    }
    Inputs {
        dirs: vec![dir],
        files: Vec::new(),
        scripts,
        plan: FaultPlan::default(),
    }
}

/// Every node creates into 8 hot directories in turn, starting from a
/// seeded rotation, and stats 4 seeded picks among its last 8 files
/// after each create.
fn mds_storm(size: Size, rng: &mut SimRng) -> Inputs {
    let root = vpath("/storm");
    let hot = children(&root, "h", 8);
    let shift = rng.below(hot.len() as u64) as usize;
    let mut scripts = Vec::new();
    for n in 0..size.nodes {
        let mut rng = rng.fork();
        let mut s = client(n);
        let mut recent: Vec<VPath> = Vec::new();
        for i in 0..size.files {
            let path = hot[(n + shift + i) % hot.len()].join(&format!("f.{n}.{i}"));
            create(&mut s, path.clone());
            if recent.len() == 8 {
                recent.remove(0);
            }
            recent.push(path);
            for _ in 0..4 {
                s.push_measured("stat", Action::Stat(rng.choose(&recent).clone()));
            }
        }
        scripts.push(s);
    }
    let mut dirs = vec![root];
    dirs.extend(hot);
    Inputs {
        dirs,
        files: Vec::new(),
        scripts,
        plan: FaultPlan::default(),
    }
}

/// Seeded create trains of 8–24 files into 16 shared directories in
/// turn; at each train's end the node stats its new files, lists the
/// directory (recalling the leases other nodes' creates need) and stats
/// 8 seeded picks, skewed towards the first files, of a 512-file
/// read-only tree that fits the client cache.
fn mixed_cached(size: Size, rng: &mut SimRng) -> Inputs {
    let root = vpath("/mixed");
    let shared = children(&root, "d", 16);
    let hot_root = vpath("/hot");
    let hot_dirs = children(&hot_root, "t", 8);
    let hot_files: Vec<VPath> = hot_dirs.iter().flat_map(|d| children(d, "f", 64)).collect();
    let shift = rng.below(shared.len() as u64) as usize;
    let mut scripts = Vec::new();
    for n in 0..size.nodes {
        let mut rng = rng.fork();
        let mut s = client(n);
        let (mut i, mut train, mut len) = (0, 0, 0);
        while i < size.files {
            // Consecutive trains pair up to 32 files, so every node
            // makes the same number of trains and, rotating from its
            // own start, lists each directory equally often.
            len = if train % 2 == 0 {
                rng.range(8, 24) as usize
            } else {
                32 - len
            };
            let dir = shared[(n + shift + train) % shared.len()].clone();
            train += 1;
            let len = len.min(size.files - i);
            let train: Vec<VPath> = (i..i + len)
                .map(|k| dir.join(&format!("f.{n}.{k}")))
                .collect();
            for path in &train {
                create(&mut s, path.clone());
            }
            for path in train {
                s.push_measured("stat", Action::Stat(path));
            }
            s.push_measured("readdir", Action::Readdir(dir));
            for _ in 0..8 {
                let u = rng.next_f64();
                let pick = (u * u * u * hot_files.len() as f64) as usize;
                s.push_measured("stat", Action::Stat(hot_files[pick].clone()));
            }
            i += len;
        }
        scripts.push(s);
    }
    let mut dirs = vec![root];
    dirs.extend(shared);
    dirs.push(hot_root);
    dirs.extend(hot_dirs);
    Inputs {
        dirs,
        files: hot_files,
        scripts,
        plan: FaultPlan::default(),
    }
}

/// How long each crashed shard stays down in `cascade`.
const CRASH_DOWN: SimDuration = SimDuration::from_millis(10);

/// `cascade`'s makespan per file created, used to spread the seeded
/// fault instants across the run.
const CASCADE_NS_PER_FILE: u64 = 57_000;

/// Metadata shards `cascade` runs on.
const CASCADE_SHARDS: usize = 4;

/// The failover storm shape (create, close and 2 stats of the new file,
/// directories in turn from a seeded rotation) under a seeded fault
/// plan: a 3-crash loop on the shard owning `d0`, its rack partner (the
/// shard owning `d1`) crashing with the loop's first crash, and a 3 ms
/// partition of a third shard.
fn cascade(size: Size, rng: &mut SimRng) -> Inputs {
    let root = vpath("/cascade");
    let dirs = children(&root, "d", 8);
    let shift = rng.below(dirs.len() as u64) as usize;
    let mut scripts = Vec::new();
    for n in 0..size.nodes {
        let mut s = client(n);
        for i in 0..size.files {
            let path = dirs[(n + shift + i) % dirs.len()].join(&format!("f.{n}.{i}"));
            create(&mut s, path.clone());
            for _ in 0..2 {
                s.push_measured("stat", Action::Stat(path.clone()));
            }
        }
        scripts.push(s);
    }
    let policy = cascade_config(FaultPlan::default()).build_shard_policy();
    let owner = |d: &VPath| policy.shard_of(&d.join("f"));
    let loop_shard = owner(&dirs[0]);
    let partner = dirs[1..]
        .iter()
        .map(owner)
        .find(|&s| s != loop_shard)
        .expect("8 directories hash onto more than one of 4 shards");
    let third = (0..CASCADE_SHARDS)
        .map(ShardId)
        .find(|&s| s != loop_shard && s != partner)
        .expect("4 shards");
    // Spread the faults across the run: the loop flaps at about 15, 40
    // and 65 % of the expected makespan, the partition opens at about
    // 55 %; the seed moves each instant by up to 5 % of the makespan.
    let est = (size.nodes * size.files) as u64 * CASCADE_NS_PER_FILE;
    let mut at = |pct: u64| SimTime::from_nanos(est * pct / 100 + rng.below(est / 20));
    let first = at(13);
    let plan = FaultPlan::default()
        .crash_loop(
            loop_shard,
            first,
            SimDuration::from_nanos(est / 4),
            CRASH_DOWN,
            3,
        )
        .crash(partner, first, CRASH_DOWN)
        .partition(third, at(53), SimDuration::from_millis(3));
    let mut all = vec![root];
    all.extend(dirs);
    Inputs {
        dirs: all,
        files: Vec::new(),
        scripts,
        plan,
    }
}

/// `cascade`'s stack. The standby sits a 2 ms round trip away, so each
/// crash finds journal appends still in flight to it and promotion has
/// a suffix to replay.
fn cascade_config(plan: FaultPlan) -> CofsConfig {
    CofsConfig {
        cross_shard_rtt: SimDuration::from_millis(2),
        ..CofsConfig::default()
    }
    .with_shards(CASCADE_SHARDS, ShardPolicyKind::HashByParent)
    .with_batching(16, SimDuration::from_millis(5), 4)
    .with_write_behind()
    .with_standby()
    .with_admission()
    .with_client_cache(4096, SimDuration::from_secs(10))
    .with_fault_plan(plan)
}

/// The COFS configuration a workload runs with.
pub fn config(w: Workload, plan: FaultPlan) -> CofsConfig {
    match w {
        Workload::PaperSharedDir => CofsConfig::default(),
        Workload::MdsStorm => CofsConfig::default().with_elastic(16),
        Workload::MixedCached => CofsConfig::default()
            .with_shards(4, ShardPolicyKind::HashByParent)
            .with_batching(16, SimDuration::from_millis(5), 4)
            .with_read_memoization()
            .with_write_behind()
            .with_read_priority()
            .with_client_cache(4096, SimDuration::from_secs(10)),
        Workload::Cascade => cascade_config(plan),
    }
}

/// The filesystem under COFS: GPFS on a blade cluster for the paper
/// workload, local memory (the metadata-service limit) otherwise.
pub enum Substrate {
    /// GPFS model with its cluster.
    Gpfs(Box<PfsFs>),
    /// In-memory reference filesystem.
    Mem(MemFs),
}

/// Builds a workload's substrate and the client-to-MDS network.
pub fn substrate(w: Workload, size: Size) -> (Substrate, MdsNetwork) {
    match w {
        Workload::PaperSharedDir => {
            let cluster = ClusterBuilder::new()
                .clients(size.nodes)
                .servers(2)
                .with_metadata_host()
                .build();
            let host = cluster.metadata_host().expect("requested a metadata host");
            let net = MdsNetwork::from_cluster(&cluster, host);
            let gpfs = PfsFs::new(cluster, PfsConfig::default());
            (Substrate::Gpfs(Box::new(gpfs)), net)
        }
        _ => (
            Substrate::Mem(MemFs::new()),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
        ),
    }
}
