//! # mio (offline shim)
//!
//! The build environment cannot fetch crates.io, so this workspace ships
//! a small mio-compatible readiness-polling layer over Linux `epoll`,
//! declared directly against the C library (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait` / `close`) — std already links libc, so no
//! external crate is needed.
//!
//! The surface is the subset `suu-serve`'s event loop uses:
//! [`Poll`] / [`Registry`] / [`Events`] / [`Event`] / [`Token`] /
//! [`Interest`], **level-triggered** (no `EPOLLET`): a readiness event
//! repeats until the condition is drained, so a handler that stops early
//! is re-told on the next poll rather than silently wedged. Upstream
//! connects do not go through the shim: `suu_serve::client` uses std's
//! `TcpStream::connect_timeout`, which already runs a deadline-bounded
//! nonblocking connect, so the only foreign calls are the four above.
//!
//! One deliberate deviation from real mio: sources are registered as
//! `&impl AsRawFd` (std's `TcpListener` / `TcpStream` / `UnixStream`
//! directly) instead of through mio's own wrapper types — real mio would
//! wrap the same fds in `unix::SourceFd`. Swapping the real crate back
//! in is that wrapper plus the one-line `Cargo.toml` change.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

mod sys {
    use std::os::raw::c_int;

    /// `struct epoll_event`. On x86-64 the kernel ABI packs it (no
    /// padding between the 32-bit mask and the 64-bit data word); on
    /// other Linux targets it is naturally aligned.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    #[repr(C, packed)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[derive(Clone, Copy)]
    #[repr(C)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Caller-chosen identifier attached to a registration and echoed back
/// on every readiness event for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// What readiness to wait for. Combine with `|` or [`Interest::add`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wait for the source to become readable.
    pub const READABLE: Interest = Interest(0b01);
    /// Wait for the source to become writable.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Union of two interests.
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this interest include readability?
    pub const fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Does this interest include writability?
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }

    fn epoll_mask(self) -> u32 {
        // RDHUP is always requested so a peer's half-close surfaces as a
        // readiness event instead of waiting for the next read attempt.
        let mut mask = sys::EPOLLRDHUP;
        if self.is_readable() {
            mask |= sys::EPOLLIN;
        }
        if self.is_writable() {
            mask |= sys::EPOLLOUT;
        }
        mask
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness event: a token plus the kernel's condition mask.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    mask: u32,
    token: usize,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    /// Data (or a listener backlog entry) can be read.
    pub fn is_readable(&self) -> bool {
        self.mask & sys::EPOLLIN != 0
    }

    /// The source can accept writes without blocking.
    pub fn is_writable(&self) -> bool {
        self.mask & sys::EPOLLOUT != 0
    }

    /// The peer closed (fully or its write half) — a read will observe
    /// EOF once the buffered bytes are drained.
    pub fn is_read_closed(&self) -> bool {
        self.mask & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0
    }

    /// The source is in an error state (a read/write will surface it).
    pub fn is_error(&self) -> bool {
        self.mask & sys::EPOLLERR != 0
    }
}

/// Buffer of readiness events filled by [`Poll::poll`].
pub struct Events {
    raw: Vec<sys::EpollEvent>,
    capacity: usize,
}

impl Events {
    /// Room for up to `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            raw: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Iterate the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw.iter().map(|ev| {
            // Copy the fields out — `EpollEvent` may be packed, so no
            // references into it.
            let mask = ev.events;
            let data = ev.data;
            Event {
                mask,
                token: data as usize,
            }
        })
    }

    /// Did the last poll return no events (i.e. time out)?
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// Handle for (de)registering event sources with a [`Poll`].
pub struct Registry {
    epfd: RawFd,
}

impl Registry {
    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        event: Option<sys::EpollEvent>,
    ) -> io::Result<()> {
        let mut ev = event.unwrap_or(sys::EpollEvent { events: 0, data: 0 });
        // DEL ignores the event argument but pre-2.6.9 kernels demanded a
        // non-null pointer, so one is always passed.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `source` for `interest`, tagged with `token`.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            source.as_raw_fd(),
            Some(sys::EpollEvent {
                events: interest.epoll_mask(),
                data: token.0 as u64,
            }),
        )
    }

    /// Change an existing registration's interest and/or token.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            source.as_raw_fd(),
            Some(sys::EpollEvent {
                events: interest.epoll_mask(),
                data: token.0 as u64,
            }),
        )
    }

    /// Stop watching `source` entirely.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, source.as_raw_fd(), None)
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.epfd);
        }
    }
}

/// The readiness queue: an `epoll` instance.
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// Create a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poll> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poll {
            registry: Registry { epfd },
        })
    }

    /// The registration handle.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Block until at least one registered source is ready, the timeout
    /// elapses (`events` left empty), or — transparently retried — a
    /// signal interrupts the wait. `None` blocks indefinitely. Sub-
    /// millisecond timeouts round **up** to 1 ms so a short deadline
    /// never degenerates into a busy spin.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: std::os::raw::c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms.min(i32::MAX as u128) as std::os::raw::c_int
                }
            }
        };
        events.raw.clear();
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.registry.epfd,
                    events.raw.as_mut_ptr(),
                    events.capacity as std::os::raw::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                // Safety: the kernel wrote exactly `n` plain-old-data
                // entries into the buffer, and `n <= capacity`.
                unsafe { events.raw.set_len(n as usize) };
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_event_fires_for_buffered_data() {
        let mut poll = Poll::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&a, Token(7), Interest::READABLE)
            .unwrap();

        // Nothing buffered yet: a short poll times out empty.
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        (&b).write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().expect("readable event");
        assert_eq!(ev.token(), Token(7));
        assert!(ev.is_readable());
        let mut buf = [0u8; 8];
        assert_eq!((&a).read(&mut buf).unwrap(), 4);

        // Level-triggered: once drained, the event stops repeating.
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_is_visible_and_interest_changes_apply() {
        let mut poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        poll.registry()
            .register(&server, Token(1), Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.is_writable()));

        poll.registry()
            .reregister(&server, Token(2), Interest::READABLE)
            .unwrap();
        drop(client);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().expect("close event");
        assert_eq!(ev.token(), Token(2));
        assert!(ev.is_readable() || ev.is_read_closed());

        poll.registry().deregister(&server).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "deregistered source must go silent");
    }
}
