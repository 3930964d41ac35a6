//! The programs under test as child processes: spawn `suud` or
//! `suu-router`, wait for health, read their OS counters from `/proc`,
//! and stop them (shards included) before returning.

use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use suu_core::json::Json;
use suu_serve::client::{Client, Reply};

/// Read timeout of every benchmark connection (a cold cell is well under
/// a second; a stalled server fails the run instead of hanging it).
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// 429 retries before a request counts as refused.
const MAX_RETRIES_429: u32 = 20;

/// A running server process tree: a direct `suud`, or a `suu-router`
/// and its shards.
pub struct Server {
    child: Child,
    _stdout: std::io::BufReader<ChildStdout>,
    pub addr: String,
    /// Every serving process: the spawned one first, then the shards.
    pub pids: Vec<u32>,
}

/// `/proc` counters of a server's processes.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcTotals {
    /// Bytes through read-family syscalls (`/proc/<pid>/io` `rchar`),
    /// summed over the `suud` processes (the ones that own a cache).
    pub rchar: u64,
    /// Bytes through write-family syscalls (`wchar`), likewise.
    pub wchar: u64,
    /// Peak resident set (`/proc/<pid>/status` `VmHWM`) summed over
    /// every serving process, KiB.
    pub hwm_kb: u64,
}

impl ProcTotals {
    pub fn delta(&self, before: &ProcTotals) -> ProcTotals {
        ProcTotals {
            rchar: self.rchar.saturating_sub(before.rchar),
            wchar: self.wchar.saturating_sub(before.wchar),
            hwm_kb: self.hwm_kb,
        }
    }
}

fn proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

impl Server {
    /// Spawn a healthy direct `suud` over `cache_dir`; also returns its
    /// set-up time (see [`Server::spawn_timed`]).
    pub fn suud(bin_dir: &Path, cache_dir: &Path) -> Result<(Server, f64), String> {
        Server::spawn_timed(&bin_dir.join("suud"), cache_dir, &["--workers", "2"], 0)
    }

    /// Spawn a healthy `suu-router --shards N` over `cache_root`.
    pub fn router(
        bin_dir: &Path,
        cache_root: &Path,
        shards: usize,
    ) -> Result<(Server, f64), String> {
        let shards_arg = shards.to_string();
        Server::spawn_timed(
            &bin_dir.join("suu-router"),
            cache_root,
            &[
                "--shards",
                &shards_arg,
                "--workers",
                "2",
                "--shard-workers",
                "2",
            ],
            shards,
        )
    }

    /// Spawn, read the banner (plus one topology line per shard), and
    /// wait for the first `GET /v1/healthz` 200. Returns the server and
    /// its set-up time in seconds, measured from just before the spawn.
    fn spawn_timed(
        bin: &Path,
        cache_dir: &Path,
        extra: &[&str],
        shards: usize,
    ) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let server = Server::spawn(bin, cache_dir, extra, shards)?;
        server.await_health()?;
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn spawn(
        bin: &Path,
        cache_dir: &Path,
        extra: &[&str],
        shards: usize,
    ) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(["--queue-depth", "64", "--idle-timeout-ms", "600000"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("child has no stdout")?;
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        let mut read_line = |reader: &mut std::io::BufReader<ChildStdout>| {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => Ok(line.trim().to_string()),
                _ => Err(format!("{} exited before its banner", bin.display())),
            }
        };
        let banner = match read_line(&mut reader) {
            Ok(b) => b,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let addr = banner.rsplit("http://").next().unwrap_or("").to_string();
        let mut pids = vec![child.id()];
        for _ in 0..shards {
            // `suu-router shard I pid P http://ADDR keys [...] cache DIR`
            let pid = read_line(&mut reader).ok().and_then(|l| {
                l.split_whitespace()
                    .skip_while(|w| *w != "pid")
                    .nth(1)
                    .and_then(|p| p.parse().ok())
            });
            match pid {
                Some(pid) => pids.push(pid),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{}: unreadable shard topology", bin.display()));
                }
            }
        }
        Ok(Server {
            child,
            _stdout: reader,
            addr,
            pids,
        })
    }

    fn await_health(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(mut client) = self.client() {
                if let Ok(reply) = client.request("GET", "/v1/healthz", None) {
                    if reply.status == 200 {
                        return Ok(());
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(format!("{} never became healthy", self.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A fresh keep-alive connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr, READ_TIMEOUT).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// `/proc` counters of the tree (see [`ProcTotals`]).
    pub fn sample(&self) -> Result<ProcTotals, String> {
        let mut t = ProcTotals::default();
        // A router's own traffic is HTTP only; its shards own the caches.
        let storage = usize::from(self.pids.len() > 1);
        for (i, pid) in self.pids.iter().enumerate() {
            let read = |f: &str| {
                std::fs::read_to_string(format!("/proc/{pid}/{f}"))
                    .map_err(|e| format!("/proc/{pid}/{f}: {e}"))
            };
            let io = read("io")?;
            let status = read("status")?;
            if i >= storage {
                t.rchar += proc_field(&io, "rchar:").ok_or("no rchar")?;
                t.wchar += proc_field(&io, "wchar:").ok_or("no wchar")?;
            }
            t.hwm_kb += proc_field(&status, "VmHWM:").ok_or("no VmHWM")?;
        }
        Ok(t)
    }

    /// Kill the tree and wait until every process has ended (shards die
    /// with their router through their parent-death signal).
    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        for pid in self.pids.iter().skip(1) {
            while Instant::now() < deadline && alive(*pid) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A process that still exists and is not a zombie.
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => !stat
            .rsplit(')')
            .next()
            .is_some_and(|rest| rest.trim_start().starts_with('Z')),
        Err(_) => false,
    }
}

/// One `POST /v1/race` with bounded 429 backoff. Returns the reply and
/// the number of 429s absorbed; a request still refused after the
/// retries is an error.
pub fn post_race(client: &mut Client, body: &[u8]) -> Result<(Reply, u32), String> {
    let mut refused = 0;
    loop {
        let reply = client
            .request("POST", "/v1/race", Some(body))
            .map_err(|e| format!("race request failed: {e}"))?;
        if reply.status == 429 && refused < MAX_RETRIES_429 {
            refused += 1;
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        return Ok((reply, refused));
    }
}

/// `GET /v1/stats`, parsed.
pub fn stats(client: &mut Client) -> Result<Json, String> {
    let reply = client
        .request("GET", "/v1/stats", None)
        .map_err(|e| format!("stats request failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("stats answered {}", reply.status));
    }
    suu_core::json::parse(&String::from_utf8_lossy(&reply.body)).map_err(|e| e.to_string())
}

/// A `/v1/stats` counter (0 when absent).
pub fn stat(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Front-end 429s: a daemon's own, plus a router's (nested under
/// `router`).
pub fn rejected_429(doc: &Json) -> u64 {
    stat(doc, "rejected_429")
        + doc
            .get("router")
            .map(|r| stat(r, "rejected_429"))
            .unwrap_or(0)
}

/// Wire bytes of one exchange as `(request, response)`: the request the
/// client wrote and the response the server wrote, both reconstructed
/// exactly from their framing. The server reads the first and writes the
/// second, so subtracting them from its `/proc` byte counters leaves what
/// it read and wrote besides the socket.
pub fn wire_bytes(request_body: &[u8], reply: &Reply) -> (u64, u64) {
    let reason = match reply.status {
        200 => "OK",
        429 => "Too Many Requests",
        _ => "",
    };
    let status_line = format!("HTTP/1.1 {} {reason}\r\n", reply.status).len();
    let headers: usize = reply
        .headers
        .iter()
        .map(|(k, v)| k.len() + v.len() + 4)
        .sum();
    (
        raw_request(request_body).len() as u64,
        (status_line + headers + 2 + reply.body.len()) as u64,
    )
}

/// The exact bytes `suu_serve::client::Client` writes for a race POST.
pub fn raw_request(body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /v1/race HTTP/1.1\r\nHost: suu\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// The `X-Suu-Cache` label of a reply.
pub fn cache_label(reply: &Reply) -> &str {
    reply.header("x-suu-cache").unwrap_or("")
}
