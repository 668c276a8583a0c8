//! Thin, `libc`-free Linux syscall layer for the epoll reactor.
//!
//! crates.io is unavailable to this workspace, so the reactor
//! ([`crate::reactor`]) cannot lean on `libc`/`mio`/`tokio`. Everything
//! the event loop needs beyond what `std::net` exposes is four
//! syscall families, invoked here directly via inline assembly with
//! Linux's raw-syscall convention (negative return = `-errno`):
//!
//! * `epoll_create1` / `epoll_ctl` / `epoll_wait` — readiness
//!   notification for every socket the reactor owns.
//! * `eventfd2` + `read`/`write` — the cross-thread wakeup the protocol
//!   thread rings after queuing outbound frames.
//! * `socket` / `connect` — *nonblocking* connect (`EINPROGRESS`),
//!   which `std::net::TcpStream` cannot start without blocking; the
//!   reactor arms `EPOLLOUT` and applies its own deadline.
//! * `getsockopt(SO_ERROR)` — the connect outcome once writable.
//!
//! File descriptors are carried as [`OwnedFd`]/[`BorrowedFd`]
//! (`std::os::fd`), so closing is std's job and nothing here leaks on
//! early return. Only `x86_64` and `aarch64` Linux are supported —
//! the only targets this repo builds for; [`crate::reactor`] is gated
//! on the same cfg.

#![allow(clippy::cast_possible_wrap)]

use std::io;
use std::net::SocketAddr;
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};

// ---------------------------------------------------------------------
// Raw syscall plumbing
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const GETSOCKOPT: usize = 55;
    pub const EPOLL_WAIT: usize = 232;
    pub const EPOLL_CTL: usize = 233;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const SOCKET: usize = 198;
    pub const CONNECT: usize = 203;
    pub const GETSOCKOPT: usize = 209;
    /// aarch64 has no plain `epoll_wait`; `epoll_pwait` with a null
    /// sigmask is the same call.
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CTL: usize = 21;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Invokes a Linux syscall with up to six arguments. Returns the raw
/// kernel result: `>= 0` success, `-errno` failure.
///
/// # Safety
///
/// `n` must be a syscall number from [`nr`], and every argument must
/// be what that syscall expects: a file descriptor must be open for
/// the duration of the call, and a pointer must be valid for the reads
/// or writes the kernel makes through it, for the length passed with
/// it. Unused trailing arguments are 0.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a Linux syscall with up to six arguments. Returns the raw
/// kernel result: `>= 0` success, `-errno` failure.
///
/// # Safety
///
/// `n` must be a syscall number from [`nr`], and every argument must
/// be what that syscall expects: a file descriptor must be open for
/// the duration of the call, and a pointer must be valid for the reads
/// or writes the kernel makes through it, for the length passed with
/// it. Unused trailing arguments are 0.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a as isize => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

/// Converts a raw syscall result into `io::Result`, mapping `-errno`
/// through [`io::Error::from_raw_os_error`] so `ErrorKind` matching
/// (`WouldBlock`, `Interrupted`, …) works as with std calls.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret as usize)
    }
}

// ---------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: usize = 0x80000;

/// One epoll readiness record. Layout matches the kernel's
/// `struct epoll_event`, which is packed on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready event mask (`EPOLLIN` | …).
    pub events: u32,
    /// The token registered with [`Epoll::add`].
    pub token: u64,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes only a flag word and no pointer;
        // a negative (`-errno`) result becomes an error in `check`.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll {
            // SAFETY: `fd` was just returned by a successful syscall that
            // creates a descriptor, so it is open and nothing else owns
            // it; the `OwnedFd` becomes its only owner and closes it once.
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent { events, token };
        // SAFETY: `self.fd` is the epoll fd this value owns, and `fd` is
        // open for the call (the callers hold a `BorrowedFd`). `ev` is a
        // live local in the kernel's `struct epoll_event` layout, which
        // the kernel only reads during the call.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op as usize,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` for `events`, tagging readiness records with
    /// `token`.
    pub fn add(&self, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Changes the registered interest set of `fd`.
    pub fn modify(&self, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: BorrowedFd<'_>) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness,
    /// filling `events`. Returns how many records are valid. A zero
    /// return is a timeout; `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `self.fd` is the epoll fd this value owns. The
            // pointer and length come from one live `&mut` slice of
            // `EpollEvent`s in the kernel's layout, and the kernel writes
            // at most `events.len()` records into it.
            #[cfg(target_arch = "x86_64")]
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_WAIT,
                    self.fd.as_raw_fd() as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0,
                    0,
                )
            };
            // SAFETY: as above; the sigmask pointer is null, so the
            // kernel reads no mask.
            #[cfg(target_arch = "aarch64")]
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd.as_raw_fd() as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // null sigmask
                    8, // sigsetsize
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// eventfd
// ---------------------------------------------------------------------

const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x80000;

/// A nonblocking eventfd: the reactor's cross-thread doorbell. Any
/// thread may [`ring`](EventFd::ring); the reactor drains it from the
/// event loop.
#[derive(Debug)]
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd2` takes an initial count and a flag word and
        // no pointer; a negative (`-errno`) result becomes an error in
        // `check`.
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
        Ok(EventFd {
            // SAFETY: `fd` was just returned by a successful syscall that
            // creates a descriptor, so it is open and nothing else owns
            // it; the `OwnedFd` becomes its only owner and closes it once.
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// The fd to register with epoll (level-triggered `EPOLLIN`).
    pub fn as_fd(&self) -> BorrowedFd<'_> {
        self.fd.as_fd()
    }

    /// Adds 1 to the counter, waking any `epoll_wait` on it. Safe from
    /// any thread; an `EAGAIN` (counter saturated) still leaves the fd
    /// readable, so the wakeup is never lost.
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: `self.fd` is the eventfd this value owns. The buffer is
        // the live 8-byte local `one`, and the length passed is 8, so
        // the kernel reads exactly that local. Errors are ignored on
        // purpose (see above).
        let _ = check(unsafe {
            syscall6(
                nr::WRITE,
                self.fd.as_raw_fd() as usize,
                std::ptr::addr_of!(one) as usize,
                8,
                0,
                0,
                0,
            )
        });
    }

    /// Resets the counter to 0 (clears readability).
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: `self.fd` is the eventfd this value owns. The buffer is
        // the live 8-byte local `buf`, and the length passed is 8, so
        // the kernel writes at most that local. `EAGAIN` (counter
        // already 0) is the only expected error and needs no action.
        let _ = check(unsafe {
            syscall6(
                nr::READ,
                self.fd.as_raw_fd() as usize,
                std::ptr::addr_of_mut!(buf) as usize,
                8,
                0,
                0,
                0,
            )
        });
    }
}

// ---------------------------------------------------------------------
// Nonblocking connect
// ---------------------------------------------------------------------

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0x800;
const SOCK_CLOEXEC: usize = 0x80000;
const SOL_SOCKET: usize = 1;
const SO_ERROR: usize = 4;

/// `struct sockaddr_in` / `sockaddr_in6` serialized to kernel layout.
fn encode_sockaddr(addr: &SocketAddr) -> (Vec<u8>, u16) {
    match addr {
        SocketAddr::V4(v4) => {
            let mut raw = Vec::with_capacity(16);
            raw.extend_from_slice(&AF_INET.to_ne_bytes());
            raw.extend_from_slice(&v4.port().to_be_bytes());
            raw.extend_from_slice(&v4.ip().octets());
            raw.extend_from_slice(&[0u8; 8]); // sin_zero
            (raw, AF_INET)
        }
        SocketAddr::V6(v6) => {
            let mut raw = Vec::with_capacity(28);
            raw.extend_from_slice(&AF_INET6.to_ne_bytes());
            raw.extend_from_slice(&v6.port().to_be_bytes());
            raw.extend_from_slice(&v6.flowinfo().to_ne_bytes());
            raw.extend_from_slice(&v6.ip().octets());
            raw.extend_from_slice(&v6.scope_id().to_ne_bytes());
            (raw, AF_INET6)
        }
    }
}

/// What [`connect_nonblocking`] produced.
#[derive(Debug)]
pub enum ConnectStart {
    /// The three-way handshake completed immediately (loopback often
    /// does) — the socket is connected.
    Done(OwnedFd),
    /// The handshake is in flight; register `EPOLLOUT` and check
    /// [`take_socket_error`] when writable (or give up at a deadline).
    Pending(OwnedFd),
}

/// Starts a nonblocking TCP connect to `addr`. Never blocks: the
/// kernel's SYN retry schedule runs in the background while the caller
/// keeps its event loop turning — this is the reactor-side fix for the
/// blocking-dial hang.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<ConnectStart> {
    let (raw_addr, family) = encode_sockaddr(addr);
    // SAFETY: `socket` takes a family, a type word and a protocol and no
    // pointer; a negative (`-errno`) result becomes an error in `check`.
    let fd = check(unsafe {
        syscall6(
            nr::SOCKET,
            family as usize,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })?;
    // SAFETY: `fd` was just returned by a successful `socket`, so it is
    // open and nothing else owns it; the `OwnedFd` becomes its only
    // owner and closes it once, also on the error paths below.
    let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
    // SAFETY: `fd` is the socket owned above. The address pointer and
    // length come from `raw_addr`, a live buffer in the kernel's
    // `sockaddr_in`/`sockaddr_in6` layout, which the kernel only reads.
    let ret = check(unsafe {
        syscall6(
            nr::CONNECT,
            fd.as_raw_fd() as usize,
            raw_addr.as_ptr() as usize,
            raw_addr.len(),
            0,
            0,
            0,
        )
    });
    const EINPROGRESS: i32 = 115;
    match ret {
        Ok(_) => Ok(ConnectStart::Done(fd)),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(ConnectStart::Pending(fd)),
        Err(e) => Err(e),
    }
}

/// Reads and clears `SO_ERROR`: `Ok(())` if the pending connect
/// succeeded, the mapped error otherwise.
pub fn take_socket_error(fd: BorrowedFd<'_>) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    // SAFETY: `fd` is open for the call (a `BorrowedFd`). The option
    // buffer is the live 4-byte local `err`, and `len` is a live local
    // holding 4, so the kernel writes at most 4 bytes into `err` and
    // the result length into `len`.
    check(unsafe {
        syscall6(
            nr::GETSOCKOPT,
            fd.as_raw_fd() as usize,
            SOL_SOCKET,
            SO_ERROR,
            std::ptr::addr_of_mut!(err) as usize,
            std::ptr::addr_of_mut!(len) as usize,
            0,
        )
    })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn eventfd_rings_and_drains_through_epoll() {
        let ep = Epoll::new().expect("epoll");
        let ev = EventFd::new().expect("eventfd");
        ep.add(ev.as_fd(), EPOLLIN, 7).expect("add");
        let mut events = [EpollEvent::default(); 4];
        // Nothing rung: a short wait times out.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        ev.ring();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].token }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0, "drained");
    }

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let ep = Epoll::new().expect("epoll");
        let fd = match connect_nonblocking(&addr).expect("start connect") {
            ConnectStart::Done(fd) => fd,
            ConnectStart::Pending(fd) => {
                ep.add(fd.as_fd(), EPOLLOUT, 1).expect("add");
                let mut events = [EpollEvent::default(); 4];
                let n = ep.wait(&mut events, 5000).expect("wait");
                assert!(n >= 1, "connect became writable");
                take_socket_error(fd.as_fd()).expect("connect succeeded");
                ep.delete(fd.as_fd()).expect("del");
                fd
            }
        };
        // Promote to a std TcpStream and prove bytes flow.
        let mut stream = TcpStream::from(fd);
        stream.set_nonblocking(false).expect("blocking");
        let (mut peer, _) = listener.accept().expect("accept");
        stream.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        peer.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn nonblocking_connect_to_dead_port_reports_the_error() {
        // Bind-then-drop finds a port that refuses connections.
        let dead = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = dead.local_addr().expect("addr");
        drop(dead);
        let started = Instant::now();
        match connect_nonblocking(&addr) {
            // Loopback RST can surface at connect() or via SO_ERROR.
            Err(_) | Ok(ConnectStart::Done(_)) => {}
            Ok(ConnectStart::Pending(fd)) => {
                let ep = Epoll::new().expect("epoll");
                ep.add(fd.as_fd(), EPOLLOUT, 1).expect("add");
                let mut events = [EpollEvent::default(); 4];
                let n = ep.wait(&mut events, 5000).expect("wait");
                assert!(n >= 1, "refused connect reports readiness");
                assert!(
                    take_socket_error(fd.as_fd()).is_err(),
                    "SO_ERROR carries the refusal"
                );
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "nonblocking connect never blocked the caller"
        );
    }
}
