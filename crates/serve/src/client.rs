//! Minimal blocking HTTP/1.1 **keep-alive client** — the upstream side
//! of the router's scatter/gather, also reused by `suu-sweep`'s daemon
//! mode and the e2e tests.
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
//! ([`Client::connect_deadline`]): the connect starts nonblocking on the
//! workspace `mio` shim ([`mio::net::TcpStream::connect`]) and completion
//! is awaited as a writability event, so a dead backend costs a bounded
//! wait, never a wedged thread.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

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

    /// Connect with a hard deadline on establishment: nonblocking
    /// connect via the `mio` shim, completion awaited as writability,
    /// `SO_ERROR` checked for the verdict. A backend that is down —
    /// or a blackholed address — costs at most `connect_timeout`.
    pub fn connect_deadline(
        addr: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<Client> {
        let pending = mio::net::TcpStream::connect(resolve(addr)?)?;
        let mut poll = mio::Poll::new()?;
        poll.registry()
            .register(&pending, mio::Token(0), mio::Interest::WRITABLE)?;
        let mut events = mio::Events::with_capacity(4);
        let deadline = Instant::now() + connect_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("connect to {addr} timed out"),
                ));
            }
            poll.poll(&mut events, Some(remaining))?;
            if !events.is_empty() {
                break;
            }
        }
        if let Some(err) = pending.take_error()? {
            return Err(err);
        }
        let stream = pending.into_std();
        stream.set_nonblocking(false)?;
        Client::from_stream(stream, read_timeout)
    }

    fn from_stream(stream: TcpStream, read_timeout: Duration) -> io::Result<Client> {
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

    /// Read one `Content-Length`-framed reply.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
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
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
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

/// Backoff used when a 429 carries no parseable `Retry-After` header.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 1_000;

/// Longest `Retry-After` hint a client honors (30 s). The header is
/// advisory and comes from across a trust boundary; a corrupt or hostile
/// value must never stall a client for minutes — or, before this cap
/// existed, overflow the seconds→milliseconds conversion outright.
pub const MAX_RETRY_AFTER_MS: u64 = 30_000;

/// Parse a `Retry-After` header value (whole seconds, the only form the
/// suud tier emits) into a bounded backoff in milliseconds.
///
/// Hardened against untrusted input: unparseable values fall back to
/// [`DEFAULT_RETRY_AFTER_MS`], the seconds→ms conversion saturates
/// instead of overflowing, and the result is capped at
/// [`MAX_RETRY_AFTER_MS`]. `suu-sweep`'s daemon client backs off by it.
pub fn retry_after_ms(header: Option<&str>) -> u64 {
    header
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(DEFAULT_RETRY_AFTER_MS, |secs| secs.saturating_mul(1_000))
        .min(MAX_RETRY_AFTER_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_parses_and_bounds() {
        assert_eq!(retry_after_ms(Some("2")), 2_000);
        assert_eq!(retry_after_ms(Some(" 5 ")), 5_000);
        assert_eq!(retry_after_ms(Some("0")), 0);
        assert_eq!(retry_after_ms(None), DEFAULT_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("soon")), DEFAULT_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("-3")), DEFAULT_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("")), DEFAULT_RETRY_AFTER_MS);
    }

    #[test]
    fn retry_after_overflow_saturates_then_caps() {
        // u64::MAX seconds: the old `secs * 1_000` panicked in debug and
        // wrapped in release; now it saturates and the cap takes over.
        let max = u64::MAX.to_string();
        assert_eq!(retry_after_ms(Some(&max)), MAX_RETRY_AFTER_MS);
        // Values past u64 range fail the parse and take the default.
        assert_eq!(
            retry_after_ms(Some("99999999999999999999999")),
            DEFAULT_RETRY_AFTER_MS
        );
    }

    #[test]
    fn retry_after_caps_large_hints() {
        assert_eq!(retry_after_ms(Some("30")), MAX_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("31")), MAX_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("86400")), MAX_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(Some("29")), 29_000);
    }
}
