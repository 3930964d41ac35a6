//! Minimal blocking HTTP/1.1 **keep-alive client** — the upstream side
//! of the router's scatter/gather, also used by servebench and the e2e
//! tests.
//!
//! One [`Client`] is one connection. Requests are written eagerly
//! ([`Client::send`]) and replies read separately ([`Client::read_reply`]),
//! so a caller can **pipeline**: write a whole batch of sub-requests to a
//! backend, then read the replies in order while the backend computes
//! them — scatter parallelism across backends without a second event
//! loop. The server side answers pipelined requests strictly in order
//! (see [`crate::server`]), which is what makes the split sound.
//!
//! Connection establishment is **deadline-bounded**
//! ([`Client::connect_deadline`], std's [`TcpStream::connect_timeout`]),
//! so a dead backend costs a bounded wait, never a wedged thread. Replies
//! are bounded too: a head over [`MAX_HEAD_BYTES`] or a declared body
//! over [`MAX_BODY_BYTES`] is refused before anything is allocated for
//! it, so a hostile or broken peer cannot make the reader buffer without
//! limit.

use crate::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (`Content-Length`-framed).
    pub body: Vec<u8>,
}

impl Reply {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A persistent keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| invalid(format!("no address for {addr}")))
}

impl Client {
    /// Connect with std's blocking connect (fine for loopback callers
    /// like tests), with a read timeout against wedged peers.
    pub fn connect(addr: &str, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(resolve(addr)?)?;
        Client::from_stream(stream, read_timeout)
    }

    /// Connect with a hard deadline on establishment, through std's
    /// [`TcpStream::connect_timeout`]: a nonblocking connect, one
    /// `poll(2)` bounded by the deadline, `SO_ERROR` for the verdict,
    /// blocking mode restored. A backend that is down — or a blackholed
    /// address — costs at most `connect_timeout` and fails with
    /// [`io::ErrorKind::TimedOut`]; a zero `connect_timeout` is refused
    /// as invalid input.
    pub fn connect_deadline(
        addr: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&resolve(addr)?, connect_timeout)?;
        Client::from_stream(stream, read_timeout)
    }

    /// A client over an already-connected stream: sets the read timeout
    /// and `TCP_NODELAY`.
    pub(crate) fn from_stream(stream: TcpStream, read_timeout: Duration) -> io::Result<Client> {
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Write one request (no reply read — pipeline-friendly).
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<()> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: suu\r\n");
        if let Some(body) = body {
            req.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        req.push_str("\r\n");
        let mut bytes = req.into_bytes();
        if let Some(body) = body {
            bytes.extend_from_slice(body);
        }
        self.reader.get_mut().write_all(&bytes)
    }

    /// Read one head line into `line` (cleared first), charging it to
    /// the `head_left` bytes the head may still use. `Ok(false)` means
    /// the peer closed before the line ended.
    fn read_head_line(&mut self, line: &mut String, head_left: &mut usize) -> io::Result<bool> {
        line.clear();
        let n = (&mut self.reader).take(*head_left as u64).read_line(line)?;
        *head_left -= n;
        if line.ends_with('\n') {
            Ok(true)
        } else if *head_left == 0 {
            Err(invalid(format!(
                "reply head exceeds {MAX_HEAD_BYTES} bytes"
            )))
        } else {
            Ok(false)
        }
    }

    /// Read one `Content-Length`-framed reply. The head (status line and
    /// headers) may use at most [`MAX_HEAD_BYTES`], the body at most
    /// [`MAX_BODY_BYTES`]; a reply over either bound fails with
    /// [`io::ErrorKind::InvalidData`] before its body is allocated.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let mut head_left = MAX_HEAD_BYTES;
        let mut line = String::new();
        if !self.read_head_line(&mut line, &mut head_left)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut headers = Vec::new();
        let mut content_length = None;
        loop {
            if !self.read_head_line(&mut line, &mut head_left)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside headers",
                ));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((k, v)) = trimmed.split_once(':') {
                let name = k.trim().to_lowercase();
                let value = v.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse::<usize>().ok();
                }
                headers.push((name, value));
            }
        }
        let len = content_length.ok_or_else(|| invalid("missing Content-Length".into()))?;
        if len > MAX_BODY_BYTES {
            return Err(invalid(format!(
                "reply body of {len} bytes exceeds {MAX_BODY_BYTES}"
            )));
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            headers,
            body,
        })
    }

    /// One request/reply round trip.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<Reply> {
        self.send(method, path, body)?;
        self.read_reply()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;
    use std::time::Instant;

    const READ_TIMEOUT: Duration = Duration::from_secs(2);

    /// A one-connection peer on an ephemeral loopback port: it accepts,
    /// reads the request head, writes `reply`, then holds the connection
    /// open until the client hangs up.
    fn fake_peer(reply: Vec<u8>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 1024];
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                match conn.read(&mut buf) {
                    Ok(n) if n > 0 => seen.extend_from_slice(&buf[..n]),
                    _ => return,
                }
            }
            // The client may already have hung up on a reply it refuses.
            let _ = conn.write_all(&reply);
            while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
        });
        (addr, peer)
    }

    /// Send one request to a peer answering `reply`; the error it must
    /// fail with, and how long that took.
    fn refused_reply(reply: Vec<u8>) -> (io::Error, Duration) {
        let (addr, peer) = fake_peer(reply);
        let mut client = Client::connect(&addr, READ_TIMEOUT).unwrap();
        let start = Instant::now();
        let err = match client.request("GET", "/v1/healthz", None) {
            Ok(reply) => panic!("reply accepted: status {}", reply.status),
            Err(err) => err,
        };
        let waited = start.elapsed();
        drop(client);
        peer.join().unwrap();
        (err, waited)
    }

    #[test]
    fn a_refused_connect_fails_well_inside_the_deadline() {
        // Bind then drop: the port is (momentarily) known-closed.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let start = Instant::now();
        let err = match Client::connect_deadline(&addr, Duration::from_secs(5), READ_TIMEOUT) {
            Ok(_) => panic!("connected to a closed port"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn an_accepted_connect_sets_the_read_timeout_and_reads_a_framed_reply() {
        let (addr, peer) =
            fake_peer(b"HTTP/1.1 200 OK\r\nX-Test: yes\r\nContent-Length: 5\r\n\r\nhello".to_vec());
        let mut client =
            Client::connect_deadline(&addr, Duration::from_secs(5), READ_TIMEOUT).unwrap();
        let stream = client.reader.get_ref();
        assert_eq!(stream.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert!(stream.nodelay().unwrap());
        // The peer answers only after reading the request, so a stream
        // left nonblocking would fail this read with `WouldBlock`.
        let reply = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-test"), Some("yes"));
        assert_eq!(reply.body, b"hello");
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn a_connect_that_cannot_complete_times_out_at_the_deadline() {
        // Once a listener's accept queue is full (std listens with a
        // backlog of 128), Linux drops further SYNs: a connect can then
        // neither complete nor be refused.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut queued = Vec::new();
        loop {
            assert!(
                queued.len() < 300,
                "accept queue still open after 300 connects"
            );
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(stream) => queued.push(stream),
                Err(err) if err.kind() == io::ErrorKind::TimedOut => break,
                Err(err) => panic!("connect {} failed: {err}", queued.len() + 1),
            }
        }

        let start = Instant::now();
        let deadline = Duration::from_millis(200);
        let err = match Client::connect_deadline(&addr.to_string(), deadline, READ_TIMEOUT) {
            Ok(_) => panic!("connected past a full accept queue"),
            Err(err) => err,
        };
        let waited = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            waited >= deadline && waited < Duration::from_secs(1),
            "timed out after {waited:?}"
        );
    }

    #[test]
    fn a_declared_body_over_the_cap_fails_before_the_read_timeout() {
        // A body of exactly the cap is read in full…
        let mut at_cap =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
        at_cap.resize(at_cap.len() + MAX_BODY_BYTES, b'x');
        let (addr, peer) = fake_peer(at_cap);
        let mut client = Client::connect(&addr, READ_TIMEOUT).unwrap();
        let reply = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(reply.body.len(), MAX_BODY_BYTES);
        drop(client);
        peer.join().unwrap();

        // …one byte more is refused at once, though no body byte comes.
        let over = MAX_BODY_BYTES + 1;
        let (err, waited) = refused_reply(
            format!("HTTP/1.1 200 OK\r\nContent-Length: {over}\r\n\r\n").into_bytes(),
        );
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(waited < READ_TIMEOUT / 2, "refused after {waited:?}");
    }

    #[test]
    fn a_head_over_the_cap_fails_before_the_read_timeout() {
        // Many short header lines, and one header line that never ends;
        // neither shape ever sends the blank line that ends a head.
        let mut lines = b"HTTP/1.1 200 OK\r\n".to_vec();
        while lines.len() <= MAX_HEAD_BYTES {
            lines.extend_from_slice(b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let mut endless = b"HTTP/1.1 200 OK\r\nX-Endless: ".to_vec();
        endless.resize(MAX_HEAD_BYTES + 1024, b'a');
        for head in [lines, endless] {
            let (err, waited) = refused_reply(head);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(waited < READ_TIMEOUT / 2, "refused after {waited:?}");
        }
    }
}
