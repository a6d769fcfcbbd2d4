//! The alert service under test, built and served in this process.

use crate::inputs::{self, stream, sub_seed, WORKERS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{AlertSystem, FlushPolicy, StoreBackend, SystemBuilder};
use sla_encoding::EncoderKind;
use sla_grid::ProbabilityMap;
use sla_loadgen::{Client, Endpoint};
use sla_server::{AlertService, Request, Response, ServeReport, ServerConfig, SlaServer};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The benchmark's error: a message for the operator.
pub type Res<T> = Result<T, String>;

/// Renders any error as the benchmark's error.
pub fn err<E: Display>(e: E) -> String {
    e.to_string()
}

/// The volatile concurrent store of `scan`.
pub fn volatile() -> StoreBackend {
    StoreBackend::ConcurrentSharded {
        shards: inputs::STORE_SHARDS,
    }
}

/// The durable store of `churn`, with the server's default group commit.
pub fn durable(dir: &Path) -> StoreBackend {
    StoreBackend::Persistent {
        dir: dir.to_path_buf(),
        flush: FlushPolicy::Every(Duration::from_millis(inputs::FLUSH_MS)),
    }
}

/// Key generation, codebook and store assembly (recovery, for a durable
/// store). The same seed always yields the same group and keys, so a
/// durable directory written under them can be reopened.
pub fn build_system(seed: u64, probs: &ProbabilityMap, store: StoreBackend) -> Res<AlertSystem> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::KEYS));
    SystemBuilder::new(inputs::grid())
        .encoder(EncoderKind::Huffman)
        .group_bits(inputs::GROUP_BITS)
        .store(store)
        .build(probs, &mut rng)
        .map_err(err)
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct Workdir(PathBuf);

impl Workdir {
    /// Creates `alertbench/out/work-<pid>` under the current directory.
    pub fn create() -> Res<Workdir> {
        let path = PathBuf::from(format!("alertbench/out/work-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Workdir(path))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An [`AlertService`] served over a Unix socket by a server thread.
pub struct Served {
    endpoint: Endpoint,
    service: Arc<AlertService>,
    thread: JoinHandle<sla_core::SlaResult<ServeReport>>,
}

impl Served {
    /// Wraps `system` in the service and serves it at `socket` with
    /// [`WORKERS`] workers and otherwise default server settings.
    pub fn start(system: AlertSystem, socket: PathBuf) -> Res<Served> {
        let service = AlertService::new(system).map_err(err)?;
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = SlaServer::bind_unix(service, &socket, config).map_err(err)?;
        let service = server.service();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Served {
            endpoint: Endpoint::Unix(socket),
            service,
            thread,
        })
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Res<Client> {
        Client::connect(&self.endpoint, Duration::from_secs(10)).map_err(err)
    }

    /// The shared service (for stats).
    pub fn service(&self) -> &AlertService {
        &self.service
    }

    /// Sends `shutdown` on `client` (every other connection must already
    /// be closed), then waits until the server has drained and flushed.
    pub fn shutdown(self, mut client: Client) -> Res<()> {
        match client.call(&Request::Shutdown).map_err(err)? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(client);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err)?;
        Ok(())
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies the regular files of `from` (recursively) into `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(err)?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(err)?;
        }
    }
    Ok(())
}
