//! Keeps the guest's CPUs from halting while an open-loop pass runs.
//!
//! At the steady rate the workers sleep most of the time, so every
//! request starts on a halted vCPU. What the hypervisor does with a
//! halted vCPU is not this program's: on the sizing host the cost of
//! that path flipped between two states from one process to the next
//! (the same seed gave a steady p50 of 15 ms or 20–26 ms, batch compute
//! 11 ms or 16–18 ms, with equal CPU time and no steal), which is wider
//! than any bound the benchmark may set. One spinning thread per CPU
//! under `SCHED_IDLE` — the scheduler runs it only when nothing else is
//! runnable and preempts it the moment anything wakes — takes that path
//! out of the measurement, the way `idle=poll` does on a host one owns.

use std::sync::atomic::{AtomicBool, Ordering};

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` of `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn demote_this_thread() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the length of
    // the call, which only reads it; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Ends the spinning even when the pass unwinds; the scope below could
/// not join otherwise.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `pass` while one `SCHED_IDLE` thread per CPU spins, and returns
/// its result with the number of spinners that ran. A thread the kernel
/// will not demote does not spin: at normal priority it would take a
/// core from the workers.
pub fn keep_awake<T>(pass: impl FnOnce() -> T) -> (T, usize) {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let spinners: Vec<_> = (0..cpus)
            .map(|_| {
                s.spawn(|| {
                    let demoted = demote_this_thread();
                    // No `spin_loop` hint: a hypervisor that traps runs
                    // of PAUSE (pause-loop exiting) would take the vCPU
                    // away, which this thread is here to prevent. The
                    // plain loop is what the README's figures were
                    // measured with.
                    #[allow(clippy::missing_spin_loop)]
                    while demoted && !done.load(Ordering::Relaxed) {}
                    demoted
                })
            })
            .collect();
        let result = {
            let _stop = StopOnDrop(&done);
            pass()
        };
        let ran = spinners
            .into_iter()
            .filter_map(|t| t.join().ok())
            .filter(|&demoted| demoted)
            .count();
        (result, ran)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinning_ends_with_the_pass() {
        let (value, ran) = keep_awake(|| 7);
        assert_eq!(value, 7);
        assert!(ran <= std::thread::available_parallelism().map_or(1, usize::from));
    }

    #[test]
    fn spinning_ends_when_the_pass_panics() {
        // Would hang, not fail, if the spinners outlived the unwind.
        let unwound = std::panic::catch_unwind(|| keep_awake(|| panic!("pass failed")));
        assert!(unwound.is_err());
    }
}
