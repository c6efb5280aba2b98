//! Readiness-driven I/O core (std-only) for the event-loop serving front.
//!
//! Both tiers of the serving plane — `serve`'s client front and `route`'s
//! client + backend channels — run their sockets through one of these
//! reactors: every socket is switched to nonblocking mode, registered with a
//! [`Poller`] under a caller-chosen token, and a single I/O thread waits for
//! readiness events instead of parking one or two OS threads per connection.
//! [`prepare_stream`] sets every such socket up the same way.
//! Compute stays on the existing worker pool; workers hand results back
//! through a completion queue and kick the I/O thread awake with a
//! [`Waker`].
//!
//! Two poller backends, selected at [`Poller::new`]:
//!
//! * **epoll** (Linux): O(ready) readiness via direct `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait` system calls, declared here with a minimal
//!   `extern "C"` block — std already links libc on every unix target, so
//!   this adds no dependency. Level-triggered, which keeps the state
//!   machines simple: unfinished reads are simply re-reported.
//! * **scan** (portable fallback, and forceable for tests): reports every
//!   registered token as ready after a short tick sleep. Correct against
//!   nonblocking sockets — handlers treat `WouldBlock` as a no-op — at the
//!   cost of O(connections) work per tick, which is exactly the trade the
//!   fallback exists to accept.
//!
//! The reactor is deliberately tiny: tokens are bare `u64`s, there are no
//! callbacks, and timers stay in the event loops that own the deadlines.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// What readiness a registration asks for. Level-triggered in both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only (the steady state of an idle connection).
    Read,
    /// Writable only (a lame-duck connection flushing its final replies
    /// after its read side closed).
    Write,
    /// Readable and writable (a connection with pending output).
    ReadWrite,
}

impl Interest {
    fn wants_read(self) -> bool {
        matches!(self, Interest::Read | Interest::ReadWrite)
    }

    fn wants_write(self) -> bool {
        matches!(self, Interest::Write | Interest::ReadWrite)
    }
}

/// Puts a serving socket into the mode every event loop here expects:
/// nonblocking, so a handler sees `WouldBlock` instead of parking the I/O
/// thread, and `TCP_NODELAY`, so a frame written whole leaves at once
/// instead of waiting for the peer's delayed ACK (Nagle's algorithm).
///
/// Used for every accepted client socket (`serve` and `route`) and every
/// router→replica channel.
///
/// # Errors
///
/// Propagates the failing socket option call.
pub fn prepare_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: u64,
    /// The socket has bytes (or a pending accept, or an EOF) to read.
    pub readable: bool,
    /// The socket can accept more output.
    pub writable: bool,
}

/// A readiness poller over nonblocking sockets.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Scan(Scan),
}

impl Poller {
    /// The platform's best backend: epoll on Linux, the scan fallback
    /// elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            return Ok(Self {
                backend: Backend::Epoll(epoll::Epoll::new()?),
            });
        }
        #[allow(unreachable_code)]
        Self::scan()
    }

    /// The portable scan backend, explicitly — used by tests to prove the
    /// serving plane is correct without epoll.
    pub fn scan() -> io::Result<Self> {
        Ok(Self {
            backend: Backend::Scan(Scan::default()),
        })
    }

    /// Registers a socket under `token`. One registration per socket; use
    /// [`reregister`](Self::reregister) to change interest.
    #[cfg(unix)]
    pub fn register<S: AsRawFd>(
        &mut self,
        source: &S,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(epoll) => {
                epoll.control(epoll::Op::Add, source.as_raw_fd(), token, interest)
            }
            Backend::Scan(scan) => scan.register(token, interest),
        }
    }

    /// Registers a socket under `token` (portable fallback: tokens only).
    #[cfg(not(unix))]
    pub fn register<S>(&mut self, _source: &S, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Scan(scan) => scan.register(token, interest),
        }
    }

    /// Updates the interest of an existing registration.
    #[cfg(unix)]
    pub fn reregister<S: AsRawFd>(
        &mut self,
        source: &S,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(epoll) => {
                epoll.control(epoll::Op::Modify, source.as_raw_fd(), token, interest)
            }
            Backend::Scan(scan) => scan.register(token, interest),
        }
    }

    /// Updates the interest of an existing registration.
    #[cfg(not(unix))]
    pub fn reregister<S>(&mut self, _source: &S, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Scan(scan) => scan.register(token, interest),
        }
    }

    /// Removes a registration. Call before closing the socket; a vanished
    /// registration is not an error (the kernel drops epoll entries with the
    /// last close anyway).
    #[cfg(unix)]
    pub fn deregister<S: AsRawFd>(&mut self, source: &S, token: u64) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(epoll) => epoll.remove(source.as_raw_fd()),
            Backend::Scan(scan) => scan.deregister(token),
        }
    }

    /// Removes a registration.
    #[cfg(not(unix))]
    pub fn deregister<S>(&mut self, _source: &S, token: u64) -> io::Result<()> {
        match &mut self.backend {
            Backend::Scan(scan) => scan.deregister(token),
        }
    }

    /// Blocks until at least one registered socket is ready or `timeout`
    /// elapses (`None` blocks indefinitely), filling `events`. Spurious
    /// wake-ups and empty event sets are normal.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(epoll) => epoll.wait(events, timeout),
            Backend::Scan(scan) => scan.wait(events, timeout),
        }
    }
}

/// Portable fallback backend: every registered token reports ready after a
/// short tick, and the nonblocking handlers discover the truth themselves.
#[derive(Debug, Default)]
struct Scan {
    registered: HashMap<u64, Interest>,
}

impl Scan {
    /// Tick length — the latency floor this backend accepts for portability.
    const TICK: Duration = Duration::from_millis(1);

    fn register(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        self.registered.insert(token, interest);
        Ok(())
    }

    fn deregister(&mut self, token: u64) -> io::Result<()> {
        self.registered.remove(&token);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let tick = timeout.map_or(Self::TICK, |t| t.min(Self::TICK));
        if !tick.is_zero() {
            std::thread::sleep(tick);
        }
        events.extend(self.registered.iter().map(|(&token, &interest)| Event {
            token,
            readable: interest.wants_read(),
            writable: interest.wants_write(),
        }));
        Ok(())
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! Minimal direct epoll bindings. std links libc on unix, so these
    //! declarations resolve against the symbols already in the process.

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`; packed on x86-64, natural layout elsewhere —
    /// matching the kernel ABI.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) enum Op {
        Add,
        Modify,
    }

    #[derive(Debug)]
    pub(super) struct Epoll {
        epfd: RawFd,
        /// Reused kernel-side event buffer.
        buffer: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for EpollEvent {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let events = self.events;
            let data = self.data;
            write!(f, "EpollEvent {{ events: {events:#x}, data: {data} }}")
        }
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                epfd,
                buffer: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn mask(interest: Interest) -> u32 {
            match interest {
                Interest::Read => EPOLLIN,
                Interest::Write => EPOLLOUT,
                Interest::ReadWrite => EPOLLIN | EPOLLOUT,
            }
        }

        pub(super) fn control(
            &mut self,
            op: Op,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut event = EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            let op = match op {
                Op::Add => EPOLL_CTL_ADD,
                Op::Modify => EPOLL_CTL_MOD,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) } < 0 {
                let error = io::Error::last_os_error();
                // Already gone (closed elsewhere) is fine.
                if error.raw_os_error() != Some(2) && error.raw_os_error() != Some(9) {
                    return Err(error);
                }
            }
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // Round a sub-millisecond timeout up, not down to a busy loop.
            let timeout_ms = match timeout {
                None => -1,
                Some(t) if t.is_zero() => 0,
                Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
            };
            let count = loop {
                let count = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buffer.as_mut_ptr(),
                        self.buffer.len() as i32,
                        timeout_ms,
                    )
                };
                if count >= 0 {
                    break count as usize;
                }
                let error = io::Error::last_os_error();
                if error.kind() != io::ErrorKind::Interrupted {
                    return Err(error);
                }
            };
            for raw in &self.buffer[..count] {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data,
                    // Errors and hang-ups surface as readability: the next
                    // read returns the error or EOF and the state machine
                    // tears the connection down through its normal path.
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if count == self.buffer.len() {
                // Saturated: grow so a 1k-connection stampede doesn't take
                // multiple wait calls to report.
                self.buffer
                    .resize(self.buffer.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// Cross-thread wake-up for a [`Poller`]: workers finishing compute (or a
/// shutdown request) must interrupt a blocked `wait`. std has no pipe or
/// eventfd, so the waker is a loopback TCP pair — the read half lives in the
/// poller under a reserved token, the write half is shared by producers.
#[derive(Debug)]
pub struct Waker {
    writer: Mutex<TcpStream>,
}

/// The poller-side read half of a [`Waker`] pair.
#[derive(Debug)]
pub struct WakeReceiver {
    reader: TcpStream,
}

impl Waker {
    /// Builds a connected waker pair on the loopback interface.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (reader, _) = listener.accept()?;
        prepare_stream(&writer)?;
        reader.set_nonblocking(true)?;
        Ok((
            Waker {
                writer: Mutex::new(writer),
            },
            WakeReceiver { reader },
        ))
    }

    /// Interrupts the poller. Cheap and coalescing: if the wake byte is
    /// still unread (receiver already pending), the extra byte either lands
    /// in the socket buffer or the buffer is full — both mean the receiver
    /// will wake, which is all that matters.
    pub fn wake(&self) {
        let mut writer = self.writer.lock().expect("waker lock");
        // WouldBlock means megabytes of unread wake bytes: the poller is
        // guaranteed awake; any other error means it is gone. Neither needs
        // handling here.
        let _ = writer.write(&[1]);
    }
}

impl WakeReceiver {
    /// The socket to register under the event loop's wake token.
    pub fn socket(&self) -> &TcpStream {
        &self.reader
    }

    /// Consumes pending wake bytes so a level-triggered poller stops
    /// reporting them.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 256];
        while matches!(self.reader.read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn poller_kinds() -> Vec<(&'static str, Poller)> {
        let mut kinds = vec![("scan", Poller::scan().unwrap())];
        if cfg!(target_os = "linux") {
            kinds.push(("native", Poller::new().unwrap()));
        }
        kinds
    }

    #[test]
    fn reports_readable_when_bytes_arrive() {
        for (kind, mut poller) in poller_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.register(&server, 7, Interest::Read).unwrap();

            client.write_all(b"x").unwrap();
            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            let seen = loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if let Some(event) = events.iter().find(|e| e.token == 7) {
                    break *event;
                }
                assert!(Instant::now() < deadline, "{kind}: no readable event");
            };
            assert!(seen.readable, "{kind}");
            poller.deregister(&server, 7).unwrap();
        }
    }

    #[test]
    fn writable_interest_is_toggleable() {
        for (kind, mut poller) in poller_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.register(&server, 3, Interest::ReadWrite).unwrap();

            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if events.iter().any(|e| e.token == 3 && e.writable) {
                    break;
                }
                assert!(Instant::now() < deadline, "{kind}: no writable event");
            }
            // Dropping write interest stops writable reports (epoll); the
            // scan backend honors the recorded interest the same way.
            poller.reregister(&server, 3, Interest::Read).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| e.token != 3 || !e.writable),
                "{kind}: writable after downgrade"
            );
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        for (kind, mut poller) in poller_kinds() {
            let (waker, mut receiver) = Waker::pair().unwrap();
            poller
                .register(receiver.socket(), 0, Interest::Read)
                .unwrap();
            let waker = std::sync::Arc::new(waker);
            let remote = std::sync::Arc::clone(&waker);
            let kicker = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                remote.wake();
            });
            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if events.iter().any(|e| e.token == 0 && e.readable) {
                    break;
                }
                assert!(Instant::now() < deadline, "{kind}: wake never seen");
            }
            receiver.drain();
            kicker.join().unwrap();
            // Coalesced wakes collapse into the drained socket: after a
            // drain with no new wake, epoll reports nothing for the token.
            if kind == "native" {
                poller
                    .wait(&mut events, Some(Duration::from_millis(20)))
                    .unwrap();
                assert!(events.iter().all(|e| e.token != 0), "{kind}: stale wake");
            }
        }
    }
}
