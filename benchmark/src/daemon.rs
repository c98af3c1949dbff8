//! The daemon under test: `recloud serve` as a child process, found only
//! through its CLI flags and its port file.

use recloud_server::Client;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark keeps what it writes while running (store
/// directories, port files, traces): `RECLOUD_BENCH_SCRATCH`, else a
/// `benchmark/` directory next to the benchmark binary's profile
/// directory — inside the build directory, never outside the checkout.
pub fn scratch_root() -> PathBuf {
    if let Some(dir) = std::env::var_os("RECLOUD_BENCH_SCRATCH") {
        return PathBuf::from(dir);
    }
    let exe = std::env::current_exe().expect("the benchmark binary has a path");
    let profile_dir = exe.parent().expect("binary sits in a directory");
    profile_dir.parent().unwrap_or(profile_dir).join("benchmark")
}

/// The `recloud` CLI binary: `RECLOUD_BIN`, else the benchmark binary's
/// sibling (both are built into one target directory by `run.sh`).
pub fn recloud_bin() -> PathBuf {
    if let Some(bin) = std::env::var_os("RECLOUD_BIN") {
        return PathBuf::from(bin);
    }
    let exe = std::env::current_exe().expect("the benchmark binary has a path");
    exe.with_file_name("recloud")
}

/// A running daemon and the scratch directory that holds its port file
/// and store. Dropping it kills the child and removes the directory.
pub struct Daemon {
    child: Child,
    dir: PathBuf,
    pub addr: String,
    /// Spawn → port file visible, in seconds.
    pub spawn_s: f64,
}

impl Daemon {
    /// Starts `recloud serve --port 0 --port-file … --workers 1` plus
    /// `extra` flags; `--store` (when `with_store`) points into the
    /// daemon's own scratch directory.
    pub fn spawn(tag: &str, extra: &[&str], with_store: bool) -> io::Result<Daemon> {
        let dir = scratch_root().join(format!("daemon-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        let port_file = dir.join("port");
        let mut cmd = Command::new(recloud_bin());
        cmd.args(["serve", "--port", "0", "--workers", "1", "--port-file"]).arg(&port_file);
        cmd.args(extra);
        if with_store {
            cmd.arg("--store").arg(dir.join("store"));
        }
        let started = Instant::now();
        let child = cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn()?;
        // From here on `daemon` owns the child: an early return kills it.
        let mut daemon = Daemon { child, dir, addr: String::new(), spawn_s: 0.0 };
        fs::write(daemon.dir.join("pid"), daemon.child.id().to_string())?;
        let deadline = started + Duration::from_secs(20);
        let port = loop {
            // The file appears empty before it is written: wait for digits.
            if let Ok(port) = fs::read_to_string(&port_file).unwrap_or_default().parse::<u16>() {
                break port;
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("daemon exited at start-up: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon wrote no port file within 20 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        daemon.spawn_s = started.elapsed().as_secs_f64();
        daemon.addr = format!("127.0.0.1:{port}");
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    pub fn connect(&self) -> io::Result<Client> {
        let mut client = Client::connect(self.addr.as_str())?;
        client.set_timeout(Some(Duration::from_secs(60)))?;
        Ok(client)
    }

    /// Asks the daemon to drain and exit, and waits until it has. The
    /// scratch directory (and so the store) stays until drop, for replay.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.connect()?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not exit within 20 s of Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.dir);
    }
}
