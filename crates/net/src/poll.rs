//! A minimal readiness poller — the event-loop substrate for
//! [`crate::server`].
//!
//! No crates.io dependencies (PR 1's rule): the Linux backend declares
//! the four `epoll`/`eventfd` entry points as `extern "C"` symbols —
//! std already links libc, so this adds no dependency, only
//! declarations — and every other unix gets a portable `poll(2)`
//! fallback. Both backends expose the same API and are compiled and
//! unit-tested on Linux, so the fallback is not write-only code.
//!
//! ## Readiness semantics
//!
//! Level-triggered: `wait` reports a registered fd readable/writable as
//! long as the condition holds. Handlers may consume as little as they
//! like; the next `wait` re-reports.
//!
//! A poller is `Sync`: registration and `wait` belong to the owning
//! loop thread, while [`wake`](Poller::wake) may be called from any
//! thread (publishers, the accept thread, shutdown) to interrupt a
//! blocking `wait` — eventfd on Linux, a self-pipe on the fallback.
//! Wake events are drained internally and never surface to callers.

use std::time::Duration;

#[cfg(not(unix))]
compile_error!(
    "quaestor-net's readiness poller needs a POSIX backend (epoll or poll); \
     see crates/net/src/poll.rs"
);

/// The token `wait` hands back for an event: the `u64` supplied at
/// registration (the server packs a slot index and a generation in it).
pub type Token = u64;

/// Reserved token for the internal wake fd; never returned by `wait`.
const WAKE_TOKEN: Token = u64::MAX;

/// What readiness to watch for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    bits: u8,
}

impl Interest {
    /// Watch for readability (incoming bytes, peer close).
    pub const READABLE: Interest = Interest { bits: 0b01 };
    /// Watch for writability (send-window space).
    pub const WRITABLE: Interest = Interest { bits: 0b10 };
    /// Watch both directions.
    pub const BOTH: Interest = Interest { bits: 0b11 };

    /// Does this interest include `other`?
    pub fn contains(self, other: Interest) -> bool {
        self.bits & other.bits == other.bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Registration token of the ready fd.
    pub token: Token,
    /// Read direction is ready (data, EOF, or error).
    pub readable: bool,
    /// Write direction is ready.
    pub writable: bool,
    /// Error/hangup condition — callers should tear the fd down.
    pub error: bool,
}

#[cfg(target_os = "linux")]
pub use epoll::EpollPoller;
#[cfg(unix)]
pub use posix::PollPoller;

/// The platform's default poller.
#[cfg(target_os = "linux")]
pub type Poller = EpollPoller;
/// The platform's default poller.
#[cfg(all(unix, not(target_os = "linux")))]
pub type Poller = PollPoller;

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so `Some(1µs)` cannot spin as a zero-timeout poll.
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
        None => -1,
    }
}

/// Direct-syscall epoll backend (Linux).
#[cfg(target_os = "linux")]
mod epoll {
    use super::{timeout_ms, Event, Interest, Token, WAKE_TOKEN};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // The shim: four entry points, declared rather than linked anew —
    // std already pulls in libc on every Linux target.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.contains(Interest::READABLE) {
            m |= EPOLLIN;
        }
        if interest.contains(Interest::WRITABLE) {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance plus an eventfd waker.
    pub struct EpollPoller {
        epfd: RawFd,
        wakefd: RawFd,
    }

    impl EpollPoller {
        /// A fresh epoll instance with its wake eventfd registered.
        pub fn new() -> io::Result<EpollPoller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let wakefd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if wakefd < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(epfd) };
                return Err(e);
            }
            let poller = EpollPoller { epfd, wakefd };
            poller.ctl(EPOLL_CTL_ADD, wakefd, EPOLLIN, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let ev_ptr = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, ev_ptr) } < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Start watching `fd` under `token`.
        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        /// Change an existing registration's interest.
        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block until readiness, a wake, or the timeout; fills `events`
        /// (cleared first). `None` blocks indefinitely.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        raw.as_mut_ptr(),
                        raw.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            for ev in &raw[..n] {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    // Drain the eventfd counter so level-triggering does
                    // not re-report a consumed wake.
                    let mut buf = [0u8; 8];
                    unsafe { read(self.wakefd, buf.as_mut_ptr(), buf.len()) };
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        /// Interrupt a concurrent [`wait`](Self::wait). Callable from any
        /// thread; coalesces (n wakes may surface as one).
        pub fn wake(&self) -> io::Result<()> {
            let one = 1u64.to_ne_bytes();
            // A full eventfd counter (EAGAIN) already guarantees a pending
            // wake, so a short/failed write here is success.
            unsafe { write(self.wakefd, one.as_ptr(), one.len()) };
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

/// Portable `poll(2)` backend for non-Linux unix. Compiled on Linux too
/// so its tests run in CI.
#[cfg(unix)]
mod posix {
    use super::{timeout_ms, Event, Interest, Token};
    use parking_lot::Mutex;
    use quaestor_common::lock_rank;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.contains(Interest::READABLE) {
            m |= POLLIN;
        }
        if interest.contains(Interest::WRITABLE) {
            m |= POLLOUT;
        }
        m
    }

    /// A registration table swept by `poll(2)` each wait, plus a
    /// self-pipe waker.
    pub struct PollPoller {
        fd_table: Mutex<Vec<(RawFd, Token, i16)>>,
        pipe_rd: RawFd,
        pipe_wr: RawFd,
    }

    impl PollPoller {
        /// A fresh poller with its wake pipe created.
        pub fn new() -> io::Result<PollPoller> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(PollPoller {
                fd_table: Mutex::with_rank(
                    Vec::new(),
                    lock_rank::NET_POLL_REGISTRY.0,
                    lock_rank::NET_POLL_REGISTRY.1,
                ),
                pipe_rd: fds[0],
                pipe_wr: fds[1],
            })
        }

        /// Start watching `fd` under `token`.
        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.fd_table.lock();
            if table.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            table.push((fd, token, mask(interest)));
            Ok(())
        }

        /// Change an existing registration's interest.
        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.fd_table.lock();
            match table.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, mask(interest));
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.fd_table.lock();
            let before = table.len();
            table.retain(|(f, _, _)| *f != fd);
            if table.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Block until readiness, a wake, or the timeout; fills `events`
        /// (cleared first). `None` blocks indefinitely.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            // Copy the table out so `wake` (and diagnostics) never race a
            // lock held across a blocking syscall.
            let mut fds: Vec<PollFd> = vec![PollFd {
                fd: self.pipe_rd,
                events: POLLIN,
                revents: 0,
            }];
            let tokens: Vec<Token> = {
                let table = self.fd_table.lock();
                fds.extend(table.iter().map(|(fd, _, ev)| PollFd {
                    fd: *fd,
                    events: *ev,
                    revents: 0,
                }));
                table.iter().map(|(_, t, _)| *t).collect()
            };
            loop {
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms(timeout)) };
                if n >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            if fds[0].revents & POLLIN != 0 {
                // Drain pending wake bytes. poll reported ≥ 1 byte, and
                // pipe reads return what is there without blocking for a
                // full buffer, so this single short read cannot block.
                let mut buf = [0u8; 64];
                unsafe { read(self.pipe_rd, buf.as_mut_ptr(), buf.len()) };
            }
            for (slot, token) in fds[1..].iter().zip(tokens) {
                let r = slot.revents;
                if r == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: r & (POLLIN | POLLHUP) != 0,
                    writable: r & POLLOUT != 0,
                    error: r & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }

        /// Interrupt a concurrent [`wait`](Self::wait). Callable from any
        /// thread.
        pub fn wake(&self) -> io::Result<()> {
            let one = [1u8];
            // A pipe so backlogged the write would block already has a
            // wake pending; treat it as delivered.
            unsafe { write(self.pipe_wr, one.as_ptr(), one.len()) };
            Ok(())
        }
    }

    impl Drop for PollPoller {
        fn drop(&mut self) {
            unsafe {
                close(self.pipe_rd);
                close(self.pipe_wr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    const SHORT: Option<Duration> = Some(Duration::from_millis(60));

    /// The same behavioral suite runs against every backend, so the
    /// portable fallback is tested on Linux alongside epoll.
    macro_rules! backend_suite {
        ($name:ident, $poller:ty) => {
            mod $name {
                use super::*;

                #[test]
                fn readable_event_carries_the_registration_token() {
                    let p = <$poller>::new().unwrap();
                    let (a, mut b) = UnixStream::pair().unwrap();
                    p.register(a.as_raw_fd(), 7, Interest::READABLE).unwrap();
                    let mut events = Vec::new();
                    p.wait(&mut events, SHORT).unwrap();
                    assert!(events.is_empty(), "no data yet: {events:?}");
                    b.write_all(b"x").unwrap();
                    p.wait(&mut events, SHORT).unwrap();
                    assert_eq!(events.len(), 1);
                    assert_eq!(events[0].token, 7);
                    assert!(events[0].readable && !events[0].writable);
                }

                #[test]
                fn level_mode_refires_until_consumed() {
                    let p = <$poller>::new().unwrap();
                    let (a, mut b) = UnixStream::pair().unwrap();
                    p.register(a.as_raw_fd(), 1, Interest::READABLE).unwrap();
                    b.write_all(b"xy").unwrap();
                    let mut events = Vec::new();
                    for _ in 0..3 {
                        p.wait(&mut events, SHORT).unwrap();
                        assert_eq!(events.len(), 1, "level readiness must re-report");
                    }
                }

                #[test]
                fn interest_modify_switches_direction_and_remove_silences() {
                    let p = <$poller>::new().unwrap();
                    let (a, mut b) = UnixStream::pair().unwrap();
                    p.register(a.as_raw_fd(), 3, Interest::READABLE).unwrap();
                    b.write_all(b"x").unwrap();
                    // Modify: only writability is interesting now — the
                    // unread byte must stop being reported.
                    p.reregister(a.as_raw_fd(), 3, Interest::WRITABLE).unwrap();
                    let mut events = Vec::new();
                    p.wait(&mut events, SHORT).unwrap();
                    assert_eq!(events.len(), 1);
                    assert!(events[0].writable && !events[0].readable);
                    // Both directions at once.
                    p.reregister(a.as_raw_fd(), 3, Interest::BOTH).unwrap();
                    p.wait(&mut events, SHORT).unwrap();
                    assert!(events[0].readable && events[0].writable);
                    // Remove: a ready fd no longer surfaces at all.
                    p.deregister(a.as_raw_fd()).unwrap();
                    p.wait(&mut events, SHORT).unwrap();
                    assert!(events.is_empty(), "deregistered fd still reported");
                    // And removing twice is a clean error, not UB.
                    assert!(p.deregister(a.as_raw_fd()).is_err());
                }

                #[test]
                fn wake_interrupts_a_blocking_wait_from_another_thread() {
                    let p = std::sync::Arc::new(<$poller>::new().unwrap());
                    let waker = p.clone();
                    let t = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(40));
                        waker.wake().unwrap();
                    });
                    let mut events = Vec::new();
                    let started = Instant::now();
                    // Block "forever": only the wake can release this.
                    p.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
                    assert!(
                        started.elapsed() < Duration::from_secs(5),
                        "wake did not interrupt the wait"
                    );
                    assert!(events.is_empty(), "wake must not surface as an event");
                    t.join().unwrap();
                }

                #[test]
                fn peer_close_reports_readable() {
                    let p = <$poller>::new().unwrap();
                    let (a, b) = UnixStream::pair().unwrap();
                    p.register(a.as_raw_fd(), 9, Interest::READABLE).unwrap();
                    drop(b);
                    let mut events = Vec::new();
                    p.wait(&mut events, SHORT).unwrap();
                    assert_eq!(events.len(), 1);
                    assert!(events[0].readable, "EOF must surface as readable");
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_suite!(epoll_backend, EpollPoller);
    backend_suite!(posix_backend, PollPoller);

    #[test]
    fn timeout_expires_without_events() {
        let p = Poller::new().unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        p.wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
