//! A minimal `epoll(7)` shim over std — the readiness primitive for
//! fleets where `poll(2)` stops scaling.
//!
//! `poll(2)` hands the kernel the *entire* descriptor table on
//! every call, so each wakeup costs O(sessions) inside the syscall —
//! at a thousand sessions that is roughly a millisecond per event,
//! and the reactor's tail latency becomes O(sessions × request rate)
//! no matter how little work userspace does. `epoll` inverts the
//! contract: descriptors register once, the kernel keeps the interest
//! list, and each wakeup returns only the ready entries — O(ready),
//! independent of fleet size. The reactor and the `fc-sim` swarm
//! driver both multiplex on this shim.
//!
//! Level-triggered (the default), matching `poll(2)` semantics: a
//! readiness bit stays set until the condition is drained, so the
//! event loop never needs the re-arm bookkeeping of edge-triggered
//! mode. Each registration carries a caller-chosen `u64` token that
//! comes back verbatim on its events — the loop's session key.

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data (or a peer close, which reads as EOF).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (delivered regardless of interest).
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (delivered regardless of interest).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// One readiness event — ABI-identical to the kernel's
/// `struct epoll_event` (packed on x86-64, where the kernel ABI
/// predates the alignment rules).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty slot for the wait buffer.
    pub fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }

    /// The token the descriptor was registered with.
    pub fn token(&self) -> u64 {
        self.data
    }

    /// Whether the descriptor is readable (or at EOF / errored —
    /// conditions a read will surface, so the read path must run).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0
    }

    /// Whether the descriptor is writable without blocking.
    pub fn writable(&self) -> bool {
        self.events & EPOLLOUT != 0
    }

    /// Whether the kernel flagged an error condition.
    pub fn failed(&self) -> bool {
        self.events & EPOLLERR != 0
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// An epoll instance: a kernel-side interest list plus [`wait`].
///
/// Closing a registered descriptor removes it from the interest list
/// automatically (the kernel holds the underlying file, not the fd
/// number), so plain drop-based teardown needs no explicit
/// [`delete`] — `delete` exists for descriptors that outlive their
/// registration, like a finished-but-still-open client socket.
///
/// [`wait`]: Epoll::wait
/// [`delete`]: Epoll::delete
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    /// The raw OS error from `epoll_create1`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // checked below and surfaced as the OS error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly-aligned EpollEvent for the
        // duration of the call; the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest (`EPOLLIN` / `EPOLLOUT`)
    /// and token.
    ///
    /// # Errors
    /// The raw OS error from `epoll_ctl` (e.g. an already-registered
    /// descriptor).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces `fd`'s interest set and token.
    ///
    /// # Errors
    /// The raw OS error from `epoll_ctl`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Unregisters `fd`.
    ///
    /// # Errors
    /// The raw OS error from `epoll_ctl`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses; fills `events` from the front and returns
    /// how many entries are valid. `None` blocks indefinitely;
    /// sub-millisecond timeouts round up to 1 ms so a short positive
    /// timeout can never spin as a busy-wait. Interrupted calls
    /// (EINTR) retry with the full timeout.
    ///
    /// # Errors
    /// The raw OS error for anything other than EINTR.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    c_int::try_from(ms).unwrap_or(c_int::MAX)
                }
            }
        };
        loop {
            // SAFETY: the out-pointer and length describe exactly the
            // caller's `events` slice, which stays borrowed mutably for
            // the whole call; the kernel writes at most `events.len()`
            // entries.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll descriptor this struct owns
        // exclusively; nothing uses it after Drop.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn data_arrival_wakes_with_the_registered_token() {
        let (mut a, b) = socket_pair();
        let ep = Epoll::new().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();
        a.write_all(b"ping").unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(evs[0].token(), 42);
        assert!(evs[0].readable());
        let mut buf = [0u8; 4];
        let mut b = b;
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn idle_descriptor_times_out_with_zero_ready() {
        let (a, _b) = socket_pair();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), EPOLLIN, 1).unwrap();
        let n = ep
            .wait(
                &mut [EpollEvent::zeroed(); 4],
                Some(Duration::from_millis(20)),
            )
            .unwrap();
        assert_eq!(n, 0, "no data, no hangup — wait must time out clean");
    }

    #[test]
    fn modify_toggles_write_interest() {
        let (a, _b) = socket_pair();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut evs, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "read-only interest on a quiet socket is silent");
        ep.modify(a.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(evs[0].writable(), "fresh socket has send-buffer room");
    }

    #[test]
    fn peer_close_reads_as_ready() {
        let (a, b) = socket_pair();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), EPOLLIN, 3).unwrap();
        drop(b);
        let mut evs = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(evs[0].readable(), "EOF must wake the read path");
    }

    #[test]
    fn deleted_descriptor_goes_quiet() {
        let (mut a, b) = socket_pair();
        let ep = Epoll::new().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 9).unwrap();
        a.write_all(b"x").unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        ep.delete(b.as_raw_fd()).unwrap();
        let n = ep.wait(&mut evs, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "unregistered descriptors never surface");
    }
}
