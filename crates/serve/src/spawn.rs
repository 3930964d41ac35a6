//! Spawning a sibling serving binary (`suud`, `suu-router`) as a child
//! process over a persistent cache root — what `suu-sweep`'s daemon
//! mode runs on, so later runs extend the cells earlier runs persisted.
//!
//! The contract is the banner handshake every serving binary honors:
//! spawn with `--addr 127.0.0.1:0`, read one stdout line of the form
//! `... listening on http://<addr>`, and keep the stdout pipe open for
//! the child's lifetime (closing it early would hand the child an EPIPE
//! on its next print). The child is killed on drop; router shards carry
//! `PDEATHSIG`, so dropping a router proc reaps its whole fleet.

use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::client::Client;

/// A spawned serving process (a direct daemon or a router fleet).
///
/// Killed on drop. Its cache directory is left in place — that is what
/// makes a daemon-mode sweep incremental across runs.
pub struct ServerProc {
    child: Child,
    addr: String,
    /// Keeps the child's stdout pipe open for its whole life.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ServerProc {
    /// Spawn a sibling binary with `--addr 127.0.0.1:0` over
    /// `cache_dir` and parse the banner for the bound address. The
    /// directory survives the proc: re-spawning over it serves the cells
    /// earlier runs persisted.
    pub fn spawn(bin: &str, cache_dir: &Path) -> Result<ServerProc, String> {
        let path = std::env::current_exe()
            .map_err(|e| format!("cannot locate own binary: {e}"))?
            .with_file_name(bin);
        let cache_str = cache_dir
            .to_str()
            .ok_or_else(|| format!("cache dir {} is not UTF-8", cache_dir.display()))?;
        let mut child = Command::new(&path)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                cache_str,
                "--workers",
                "4",
                "--queue-depth",
                "256",
                // No idle reaping under a driver: that path has its own
                // e2e tests, and a reaped keep-alive connection would
                // read as a spurious failure here.
                "--idle-timeout-ms",
                "120000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| "spawned child has no piped stdout".to_string())?;
        let mut reader = std::io::BufReader::new(stdout);
        let mut banner = String::new();
        if reader.read_line(&mut banner).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{bin} produced no banner"));
        }
        let addr = banner
            .rsplit("http://")
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        if addr.is_empty() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unparsable banner {banner:?}"));
        }
        Ok(ServerProc {
            child,
            addr,
            _stdout: reader,
        })
    }

    /// The bound `host:port` parsed from the banner.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a fresh keep-alive connection to the child.
    pub fn client(&self, read_timeout: Duration) -> std::io::Result<Client> {
        Client::connect(&self.addr, read_timeout)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
