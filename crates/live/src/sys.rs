//! The crate's one foreign call, `ppoll(2)` (see the crate docs for why).
//! std links libc's `ppoll` already, so declaring it adds no dependency.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// `struct pollfd { fd, events, revents }` waiting for `POLLIN`.
#[repr(C)]
pub(crate) struct PollFd(c_int, c_short, c_short);

impl PollFd {
    /// Watches `socket`, which the caller keeps open while it waits.
    pub(crate) fn readable(socket: &std::net::UdpSocket) -> Self {
        PollFd(socket.as_raw_fd(), 0x1, 0)
    }
}

/// Blocks until one of `fds` is readable (or has an error pending) or
/// `timeout` passes. A signal (`EINTR`) ends the wait like any spurious
/// wake: the caller sweeps, finds nothing, and waits again.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    use std::ffi::{c_long, c_ulong, c_void};
    /// `struct timespec { tv_sec, tv_nsec }`; `time_t` is a `long` here.
    #[repr(C)]
    struct Timespec(c_long, c_long);
    unsafe extern "C" {
        fn ppoll(fds: *mut PollFd, n: c_ulong, tmo: *const Timespec, mask: *const c_void) -> c_int;
    }
    let secs = timeout.as_secs().min(c_long::MAX as u64) as c_long;
    let tmo = Timespec(secs, c_long::from(timeout.subsec_nanos()));
    let (ptr, n) = (fds.as_mut_ptr(), fds.len() as c_ulong);
    // SAFETY: `ptr` and `n` describe an exclusively borrowed slice of
    // `#[repr(C)]` `pollfd`s, so the kernel writes (`revents`) only inside
    // it; `tmo` is a valid `timespec` (`tv_nsec < 1e9`) that outlives the
    // call; a null `mask` keeps the signal mask. An `fd` closed meanwhile
    // yields `POLLNVAL`, not memory unsafety.
    if unsafe { ppoll(ptr, n, &tmo, std::ptr::null()) } < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Elsewhere: nap briefly and let the caller sweep again.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn wait_readable(_fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_millis(1)));
    Ok(())
}
