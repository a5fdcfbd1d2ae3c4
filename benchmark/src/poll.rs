//! Waiting on one socket with a nanosecond timeout.
//!
//! The open-loop client must send at due times while it reads replies.
//! `SO_RCVTIMEO` rounds to scheduler ticks (up to 4 ms), far coarser
//! than the gaps between sends, so the client waits in `ppoll(2)`, whose
//! timeout is a `timespec`. The C library is linked by `std` already.

use std::os::fd::AsRawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Readiness of one socket after [`wait`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ready {
    /// Bytes (or EOF, or an error) are waiting to be read.
    pub readable: bool,
    /// The send buffer has room.
    pub writable: bool,
}

/// Blocks until `sock` is readable (or writable, when `want_write`), or
/// `timeout` passes. Errors and hang-ups report as readable, so the
/// next read surfaces them.
pub fn wait(sock: &impl AsRawFd, want_write: bool, timeout: Duration) -> std::io::Result<Ready> {
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal
    // mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(Ready::default());
        }
        return Err(err);
    }
    Ok(Ready {
        readable: fd.revents & !POLLOUT != 0,
        writable: fd.revents & POLLOUT != 0,
    })
}
