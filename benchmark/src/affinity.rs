//! One CPU per worker thread.
//!
//! A cluster of the threaded backend is four threads (two workers, two
//! servers) on the host's two CPUs, and where the scheduler puts them
//! relative to each other decides whether a hand-off is a context switch
//! or a wake-up of the other CPU — which on a virtual machine goes
//! through the hypervisor. Left to the scheduler the placement changed
//! from one second to the next: ten runs of `mf_blocked` spread by 12 %
//! on `epoch_s` and `w2v_hybrid` ran a quarter slower; with each worker
//! on a CPU of its own, as a deployment pins them, 3 %. The benchmark's
//! own code runs on the worker threads, so it can pin those; the servers
//! stay where the scheduler puts them.

/// A CPU set of 1024 CPUs, as `sched_setaffinity` takes it.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `nth` of the CPUs it may run on
/// (counting from the lowest, wrapping around). Returns whether it did:
/// where the platform has no such call or refuses it, the thread stays
/// where the scheduler puts it.
#[cfg(target_os = "linux")]
pub fn pin_to_nth_cpu(nth: usize) -> bool {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is `size` writable bytes, and pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..64 * allowed.len())
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[nth % cpus.len()];
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_nth_cpu(_nth: usize) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `pin_to_nth_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        assert_eq!(rc, 0);
        (0..1024)
            .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn pins_the_calling_thread_only() {
        let before = allowed_cpus();
        for nth in 0..before.len() + 1 {
            let pinned = std::thread::spawn(move || {
                assert!(pin_to_nth_cpu(nth));
                allowed_cpus()
            })
            .join()
            .unwrap();
            assert_eq!(pinned, vec![before[nth % before.len()]]);
        }
        assert_eq!(allowed_cpus(), before);
    }
}
