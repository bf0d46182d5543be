//! Set-up of the program under test: the backend each workload serves,
//! the TCP service in front of it, and the scratch directory for its WAL.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use api::QualityBackend;
use cluster::{HashRouter, ShardedQualityServer};
use durable::Durable;
use minidb::Database;
use net::{NetConfig, NetServer};
use semandaq_core::QualityServer;

use crate::script::{Workload, World, RELATION, RULES};

/// Any backend, behind the one type the service is generic over.
pub type Backend = Box<dyn QualityBackend + Send>;

/// The service configuration every service workload uses: two worker
/// threads (one per connection), the shipped queue depth, an OS-picked
/// loopback port.
pub fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        net_threads: 2,
        max_conns: 64,
        queue_depth: 256,
        idle_timeout: Duration::from_secs(30),
        max_frame: api::MAX_FRAME_BYTES,
    }
}

/// A scratch directory beside the running executable — inside the build
/// directory, so inside the checkout and ignored by git. Removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<exe dir>/sdqbench-work/<pid>-<tag>`, empty.
    pub fn create(tag: &str) -> WorkDir {
        let exe = std::env::current_exe().expect("path of the running executable");
        let dir = exe
            .parent()
            .expect("executable has a directory")
            .join("sdqbench-work")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A single-node server over a copy of the world's relation, rules
/// registered.
pub fn loaded_server(db: &Database) -> QualityServer {
    let mut server = QualityServer::new(db.clone(), RELATION).expect("relation exists");
    server.register_cfds(RULES).expect("canonical rules");
    server
}

/// A single-node server over an empty relation — what `Durable::open`
/// needs to recover into.
pub fn empty_server(world: &World) -> QualityServer {
    let mut db = Database::new();
    db.create_table(RELATION, world.table().schema().clone())
        .expect("fresh database");
    QualityServer::new(db, RELATION).expect("relation exists")
}

/// The durable single-node backend: the loaded relation is folded into a
/// checkpoint, so the WAL holds exactly the mutations that follow.
/// Returns the checkpoint's wall time in milliseconds as well.
pub fn durable_backend(world: &World, dir: &Path) -> (Durable<QualityServer>, f64) {
    let server = QualityServer::new(world.db.clone(), RELATION).expect("relation exists");
    let mut durable = Durable::open(dir, server).expect("open WAL directory");
    // Through the wrapper, so the checkpoint carries the rules too.
    durable.register_cfds(RULES).expect("canonical rules");
    let t = Instant::now();
    durable
        .checkpoint()
        .expect("checkpoint the loaded relation");
    (durable, t.elapsed().as_secs_f64() * 1e3)
}

/// The 3-shard cluster backend, hash-routed on CNT.
pub fn cluster_backend(world: &World) -> ShardedQualityServer {
    let mut cluster =
        ShardedQualityServer::partition(world.table(), 3, Box::new(HashRouter::new(vec![1])))
            .expect("partition the relation");
    cluster
        .register_cfds(world.cfds.clone())
        .expect("canonical rules");
    cluster
}

/// A running service and what set-up learned on the way.
pub struct Service {
    /// The server; `shutdown` hands the backend back.
    pub server: NetServer<Backend>,
    /// `Durable::checkpoint` of the loaded relation (0 without a WAL).
    pub checkpoint_ms: f64,
}

/// Build `workload`'s backend over `world` and serve it. The first
/// capture (detect + audit of the whole relation) happens in here.
pub fn start_service(workload: Workload, world: &World, dir: &Path) -> Service {
    let (backend, checkpoint_ms): (Backend, f64) = if workload.is_durable() {
        let (durable, ms) = durable_backend(world, dir);
        (Box::new(durable), ms)
    } else {
        (Box::new(cluster_backend(world)), 0.0)
    };
    Service {
        server: NetServer::serve(backend, net_config()).expect("bind a loopback port"),
        checkpoint_ms,
    }
}

/// Threads that do nothing but yield, one fewer than there are cores,
/// for as long as the value lives.
///
/// On a small VM a core with nothing to run is halted, and waking it
/// costs the hypervisor tens of microseconds — three times the whole
/// loopback round trip of a read. Whether a reply finds its core halted
/// depends on what else happens to be running, so read latency falls into
/// two modes 3.5x apart and a run's median lands in either. A yielding
/// thread gives way to anything runnable and keeps a core from halting,
/// so the numbers are the program's, not the hypervisor's.
///
/// Only for as long as connections drive a service: `batch_clean` answers
/// in the caller's thread and wants both cores for its detect workers.
/// What a lone client waits with the cores left to halt is the ungated
/// `net.loopback_rtt_idle_us`.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Start yielding.
    pub fn start() -> KeepAwake {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (1..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
