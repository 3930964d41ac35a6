//! Harness shared by the serving e2e tests: spawn the real `suud` binary
//! on an ephemeral loopback port, and talk one-shot HTTP/1.1 to it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use suu_core::json::Json;

/// A `suud` child process, killed (and its cache dir removed) on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub cache_dir: PathBuf,
}

impl Daemon {
    pub fn spawn(tag: &str) -> Daemon {
        Daemon::spawn_with(tag, &[])
    }

    /// Spawn with extra flags on a fresh cache dir named after `tag`
    /// (tests reusing a tag share — and must clean — that dir).
    pub fn spawn_with(tag: &str, extra_args: &[&str]) -> Daemon {
        let cache_dir = std::env::temp_dir().join(format!("suud-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_suud"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn suud");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("suud prints its address")
            .expect("readable stdout");
        let addr = banner
            .strip_prefix("suud listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .trim()
            .to_string();
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            cache_dir,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn json(&self) -> Json {
        suu_core::json::parse(&self.body)
            .unwrap_or_else(|e| panic!("unparsable body ({e}): {}", self.body))
    }
}

/// Minimal one-shot HTTP/1.1 client over a fresh connection.
pub fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: suu\r\n");
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("Connection: close\r\n\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}
