//! Keeps the machine's CPUs from going idle while serving phases run, the
//! way booting with `idle=poll` would.
//!
//! On a virtual machine an idle CPU is handed back to the host, and
//! waking it again (a timer firing, a packet for a sleeping thread) can
//! take the host milliseconds. Every open-loop request that lands on a
//! sleeping server thread would pay that, and how often it does depends
//! on the host's other tenants, not on the program. Spinner threads under
//! `SCHED_IDLE` keep the CPUs running; the scheduler treats a CPU that
//! runs only such threads as idle, so any runnable thread of the program
//! displaces a spinner at once. The load generator spins under
//! `SCHED_IDLE` too and covers one CPU; one spinner covers each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Running spinners; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one idle-priority spinner per available CPU but one (the
    /// load generator's).
    pub fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (1..cpus.max(2))
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !lower_to_idle_priority() {
                        return; // never compete with the program at normal priority
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; false when that failed.
#[cfg(target_os = "linux")]
pub fn lower_to_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live local laid out as the kernel's
    // `struct sched_param` for the duration of the call; pid 0 names the
    // calling thread, and SCHED_IDLE takes priority 0.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn lower_to_idle_priority() -> bool {
    false
}
