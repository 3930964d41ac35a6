//! HTTP/1.1 message types and an **incremental** request parser.
//!
//! This module is pure — bytes in, [`Request`] out — so the transport
//! can be anything; the nonblocking event loop in [`crate::server`]
//! feeds it the per-connection input buffer and acts on the verdict:
//!
//! * [`Parsed::Incomplete`] — keep reading; nothing is consumed.
//! * [`Parsed::Complete`] — one full request; `consumed` bytes are
//!   done, and the rest of the buffer may already hold the next
//!   **pipelined** request.
//! * [`Parsed::Bad`] — the byte stream is poisoned (malformed head,
//!   oversized declared body, …); answer the 4xx and close, because
//!   resynchronizing a framing error is guesswork.
//!
//! Parsing is strict enough to be safe against hostile input: the head
//! is capped at [`MAX_HEAD_BYTES`] even when no terminator ever
//! arrives, bodies need a `Content-Length` no larger than
//! [`MAX_BODY_BYTES`], and nothing is buffered beyond those caps.

/// Most bytes accepted for the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Most bytes accepted for a request body, and for a reply body
/// [`crate::client::Client::read_reply`] reads. 4 MiB covers the largest
/// reply the daemon can send: a race holds at most
/// `MAX_SCENARIOS × MAX_POLICIES` = 2,048 cells, and the CI smoke's cells
/// render to about 0.5 KB each.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path with query string, exactly as sent (e.g. `/v1/healthz`).
    pub path: String,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask for this to be the connection's last request
    /// (`Connection: close`)? Anything else keeps the connection alive —
    /// HTTP/1.1's default.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.to_ascii_lowercase().contains("close"))
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (name, value); `Content-Type`, `Content-Length` and
    /// `Connection` are emitted automatically.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (errors).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Attach a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize the full wire form. `keep_alive` decides the
    /// `Connection` header — the event loop passes `false` for the last
    /// response before it closes the connection.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// What went wrong while parsing a request (mapped to 4xx).
#[derive(Debug)]
pub struct BadRequest {
    status: u16,
    message: &'static str,
}

impl BadRequest {
    fn new(status: u16, message: &'static str) -> BadRequest {
        BadRequest { status, message }
    }

    /// The HTTP status to answer with.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Human-readable reason (the response body).
    pub fn message(&self) -> &'static str {
        self.message
    }
}

/// Verdict of one [`parse_request`] attempt.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes yet; read more and retry with the grown buffer.
    Incomplete,
    /// One complete request; the first `consumed` buffer bytes are its
    /// wire form (pipelined successors may follow them).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The byte stream is malformed; answer and close.
    Bad(BadRequest),
}

/// Index one past the blank line terminating the head, accepting both
/// `\r\n` and bare `\n` line endings (the blocking parser this replaces
/// was `read_line`-based and equally lenient).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        if buf[i + 1..].starts_with(b"\r\n") {
            return Some(i + 3);
        }
        if buf.get(i + 1) == Some(&b'\n') {
            return Some(i + 2);
        }
    }
    None
}

/// Try to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parsed {
    let head_end = match find_head_end(buf) {
        Some(end) if end > MAX_HEAD_BYTES => {
            return Parsed::Bad(BadRequest::new(413, "headers too large"))
        }
        Some(end) => end,
        // An endless unterminated head (hostile input) must produce a
        // 413, never unbounded buffering.
        None if buf.len() > MAX_HEAD_BYTES => {
            return Parsed::Bad(BadRequest::new(413, "headers too large"))
        }
        None => return Parsed::Incomplete,
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => return Parsed::Bad(BadRequest::new(400, "head is not UTF-8")),
    };
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));

    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Parsed::Bad(BadRequest::new(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Parsed::Bad(BadRequest::new(400, "unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        // Only the head terminator (and the split's trailing remnant)
        // can be empty: `find_head_end` stopped at the FIRST blank line.
        if line.is_empty() {
            continue;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_lowercase(), value.trim().to_string()))
            }
            None => return Parsed::Bad(BadRequest::new(400, "malformed header")),
        }
    }

    let body_len = match headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
    {
        None => 0,
        Some(Err(_)) => return Parsed::Bad(BadRequest::new(400, "bad Content-Length")),
        Some(Ok(len)) if len > MAX_BODY_BYTES => {
            return Parsed::Bad(BadRequest::new(413, "body too large"))
        }
        Some(Ok(len)) => len,
    };
    let total = head_end + body_len;
    if buf.len() < total {
        return Parsed::Incomplete;
    }

    Parsed::Complete {
        request: Request {
            method: method.to_uppercase(),
            path: path.to_string(),
            headers,
            body: buf[head_end..total].to_vec(),
        },
        consumed: total,
    }
}

/// The application side of the server: produces the response for one
/// request. Must be callable from any worker thread.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            Parsed::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    fn bad(buf: &[u8]) -> BadRequest {
        match parse_request(buf) {
            Parsed::Bad(bad) => bad,
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_request_with_body_and_reports_consumed() {
        let raw = b"POST /v1/race HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhelloGET /next";
        let (req, consumed) = complete(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/race");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert_eq!(&raw[consumed..], b"GET /next");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw: Vec<u8> =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /c HTTP/1.1\r\n\r\n"
                .to_vec();
        let (first, n1) = complete(&raw);
        assert_eq!(first.path, "/a");
        let (second, n2) = complete(&raw[n1..]);
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"ok");
        let (third, n3) = complete(&raw[n1 + n2..]);
        assert_eq!(third.path, "/c");
        assert_eq!(n1 + n2 + n3, raw.len());
    }

    #[test]
    fn incomplete_until_the_last_byte_arrives() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        for cut in 0..raw.len() {
            assert!(
                matches!(parse_request(&raw[..cut]), Parsed::Incomplete),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (req, consumed) = complete(raw);
        assert_eq!(req.body, b"abc");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn bare_newline_line_endings_are_accepted() {
        let (req, _) = complete(b"GET /x HTTP/1.1\nHost: y\n\n");
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn malformed_inputs_are_bad_not_incomplete() {
        assert_eq!(bad(b"garbage\r\n\r\n").status(), 400);
        assert_eq!(bad(b"GET / SPDY/9\r\n\r\n").status(), 400);
        assert_eq!(
            bad(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").status(),
            400
        );
        assert_eq!(
            bad(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").status(),
            400
        );
        let oversized = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(bad(oversized.as_bytes()).status(), 413);
    }

    #[test]
    fn unterminated_head_is_capped_not_buffered_forever() {
        let mut raw = b"GET /".to_vec();
        raw.resize(MAX_HEAD_BYTES + 1, b'a');
        assert_eq!(bad(&raw).status(), 413);
        // A terminated head that is simply too big also 413s.
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_HEAD_BYTES + 8, b'b');
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(bad(&raw).status(), 413);
    }

    #[test]
    fn wants_close_reads_the_connection_header() {
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(!req.wants_close());
        let (req, _) = complete(b"GET / HTTP/1.1\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn to_bytes_frames_and_labels_the_connection() {
        let resp = Response::json(200, "{}").with_header("X-Extra", "1");
        let keep = String::from_utf8(resp.to_bytes(true)).unwrap();
        assert!(keep.starts_with("HTTP/1.1 200 OK\r\n"), "{keep}");
        assert!(keep.contains("Content-Length: 2\r\n"), "{keep}");
        assert!(keep.contains("X-Extra: 1\r\n"), "{keep}");
        assert!(keep.contains("Connection: keep-alive\r\n\r\n{}"), "{keep}");
        let close = String::from_utf8(resp.to_bytes(false)).unwrap();
        assert!(close.contains("Connection: close\r\n\r\n{}"), "{close}");
        let busy = Response::text(429, "busy").to_bytes(true);
        assert!(String::from_utf8(busy)
            .unwrap()
            .starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
    }

    /// One well-formed request: its wire form and the fields it must
    /// parse to.
    #[derive(Debug)]
    struct Wire {
        bytes: Vec<u8>,
        method: String,
        path: String,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    }

    impl Wire {
        fn assert_parsed_as(&self, request: &Request) {
            assert_eq!(request.method, self.method, "{self:?}");
            assert_eq!(request.path, self.path, "{self:?}");
            assert_eq!(request.headers, self.headers, "{self:?}");
            assert_eq!(request.body, self.body, "{self:?}");
        }
    }

    /// Header-name characters; the first 52 are the method alphabet.
    const TOKEN: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.";

    fn token(alphabet: usize, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        collection::vec(0..alphabet, len)
            .prop_map(|ix| ix.into_iter().map(|i| char::from(TOKEN[i])).collect())
    }

    /// Printable ASCII from `lo` (0x20 admits spaces, 0x21 does not).
    fn printable(lo: u8, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        collection::vec(lo..0x7f, len).prop_map(|b| String::from_utf8(b).expect("ascii"))
    }

    /// A method token, a path without whitespace, 0–6 headers whose
    /// values may carry spaces and colons, an optional `Content-Length`
    /// body of arbitrary bytes (its header at any position), and CRLF
    /// or bare-LF line endings throughout.
    fn well_formed() -> impl Strategy<Value = Wire> {
        (
            token(52, 1..8),
            printable(0x21, 0..48),
            collection::vec((token(TOKEN.len(), 1..12), printable(0x20, 0..40)), 0..=6),
            (any::<bool>(), collection::vec(any::<u8>(), 0..256)),
            any::<bool>(),
            any::<usize>(),
        )
            .prop_map(|(method, path, headers, (has_body, body), crlf, at)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let mut lines: Vec<String> =
                    headers.iter().map(|(n, v)| format!("X-{n}:{v}")).collect();
                let mut expected: Vec<(String, String)> = headers
                    .iter()
                    .map(|(n, v)| (format!("x-{}", n.to_lowercase()), v.trim().to_string()))
                    .collect();
                let body = if has_body {
                    let at = at % (lines.len() + 1);
                    lines.insert(at, format!("Content-Length: {}", body.len()));
                    expected.insert(at, ("content-length".into(), body.len().to_string()));
                    body
                } else {
                    Vec::new()
                };
                let path = format!("/{path}");
                let mut bytes = format!("{method} {path} HTTP/1.1{eol}").into_bytes();
                for line in &lines {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.extend_from_slice(eol.as_bytes());
                }
                bytes.extend_from_slice(eol.as_bytes());
                bytes.extend_from_slice(&body);
                Wire {
                    bytes,
                    method: method.to_uppercase(),
                    path,
                    headers: expected,
                    body,
                }
            })
    }

    /// Request lines, well-formed and not, that start a soup.
    const REQUEST_LINES: &[&[u8]] = &[
        b"GET / HTTP/1.1\r\n",
        b"POST /v1/race HTTP/1.0\n",
        b"get /x HTTP/1.1 extra\r\n",
        b"GET / HTTP/2\r\n",
        b"GET /\r\n",
        b"",
    ];

    /// Pieces of HTTP framing; a request line followed by random
    /// concatenations of them often frames a (strange) request.
    const FRAGMENTS: &[&[u8]] = &[
        b"X-A: b\r\n",
        b"x-b:c:d\n",
        b"Content-Length: 3\r\n",
        b"content-length:0\n",
        b"Content-Length: -1\r\n",
        b"Content-Length: 18446744073709551616\r\n",
        b"\r\n",
        b"\n",
        b"\r",
        b" ",
        b"\t",
        b":",
        b"abc",
        b"\xff",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, raw or as a soup of HTTP fragments, never
        /// panic the parser, and a `Complete` never claims more bytes
        /// than the buffer holds.
        #[test]
        fn parse_request_is_total_on_arbitrary_bytes(
            raw in collection::vec(any::<u8>(), 0..4096),
            line in 0..REQUEST_LINES.len(),
            soup in collection::vec(0..FRAGMENTS.len(), 0..32),
        ) {
            let soup: Vec<u8> = REQUEST_LINES[line]
                .iter()
                .chain(soup.into_iter().flat_map(|i| FRAGMENTS[i]))
                .copied()
                .collect();
            for buf in [raw, soup] {
                if let Parsed::Complete { consumed, .. } = parse_request(&buf) {
                    prop_assert!(consumed <= buf.len(), "consumed {} of {:?}", consumed, buf);
                }
            }
        }

        /// A well-formed request parses `Complete` and consumes exactly
        /// its wire form; every strict prefix is `Incomplete`; and bytes
        /// appended after it (a pipelined successor or garbage) change
        /// neither the request nor `consumed`, which is what the event
        /// loop's pipelining relies on.
        #[test]
        fn parse_request_frames_well_formed_requests_exactly(
            wire in well_formed(),
            tail in collection::vec(any::<u8>(), 0..1024),
        ) {
            let (request, consumed) = complete(&wire.bytes);
            prop_assert_eq!(consumed, wire.bytes.len());
            wire.assert_parsed_as(&request);
            for cut in 0..wire.bytes.len() {
                prop_assert!(
                    matches!(parse_request(&wire.bytes[..cut]), Parsed::Incomplete),
                    "prefix of {} bytes of {:?}",
                    cut,
                    wire
                );
            }
            let mut piped = wire.bytes.clone();
            piped.extend_from_slice(&tail);
            let (request, consumed) = complete(&piped);
            prop_assert_eq!(consumed, wire.bytes.len());
            wire.assert_parsed_as(&request);
        }
    }
}
