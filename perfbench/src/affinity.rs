//! Pinning each client, with the server session that answers it, to a
//! CPU of its own.
//!
//! A loopback request hands the CPU from client to session and back.
//! Left to the scheduler, a pair sometimes shares a CPU and sometimes
//! wakes across CPUs, and a run's latencies follow whichever placement it
//! happened to get. Pinned pairs make every run measure the same
//! placement. On a machine with fewer than two CPUs nothing is pinned.

use std::os::raw::{c_int, c_ulong};
use std::sync::OnceLock;

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper.
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Sets the CPU mask of thread `tid` (0: the calling thread).
fn set_mask(tid: c_int, mask: c_ulong) -> bool {
    // SAFETY: `mask` is an initialised `c_ulong` that outlives the call,
    // and the size passed is exactly its size, so the kernel reads only
    // that value.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<c_ulong>(), &mask) == 0 }
}

/// CPUs this process may use, capped at the width of one mask word.
/// Read once, before any thread is pinned: a pinned thread sees only
/// its own CPU.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(c_ulong::BITS as usize)
    })
}

/// Pins thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> bool {
    cpu < cpus() && set_mask(tid, 1 << cpu)
}

/// Lets the calling thread run on every CPU again.
pub fn unpin_current() {
    let n = cpus();
    let all = if n >= c_ulong::BITS as usize {
        c_ulong::MAX
    } else {
        (1 << n) - 1
    };
    set_mask(0, all);
}

/// The kernel thread id of this process's thread named `name`.
pub fn thread_named(name: &str) -> Option<i32> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == name)
        })?
        .file_name()
        .to_str()?
        .parse()
        .ok()
}
