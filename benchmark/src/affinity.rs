//! Putting every thread of this process on one CPU, and back.
//!
//! Phase 1 keeps one op in flight, so nothing in it runs in parallel, but
//! on the serve path each op hands over between three threads. On a
//! virtual machine a hand-over to a thread on *another* CPU costs an
//! inter-processor interrupt through the host, and which threads share a
//! CPU is the scheduler's choice of the moment: measured on the seed
//! commit, `serve_hot`'s median latency sat at 72, 100, 145 or 165 µs for
//! seconds at a time with no change of code. With the whole process on one
//! CPU every hand-over is a local context switch and the same phase repeats
//! within a few percent. The standard library has no call for this, hence
//! the raw system call.

/// Words of a CPU mask: room for 1024 CPUs, as in glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::Mask;
    use std::arch::asm;

    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;

    fn syscall3(number: isize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: the two affinity calls made through here read (set) or
        // write (get) exactly `b` bytes at `c`, and both callers pass the
        // size and address of a live `Mask`; they touch no other memory of
        // this process. `syscall` clobbers rcx and r11, declared below.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") number => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// True if thread `tid` now runs under `mask` — or has exited
    /// meanwhile (`ESRCH`), which is as good.
    pub fn set(tid: u32, mask: &Mask) -> bool {
        const ESRCH: isize = 3;
        let bytes = std::mem::size_of::<Mask>();
        let ret = syscall3(
            SCHED_SETAFFINITY,
            tid as usize,
            bytes,
            mask.as_ptr() as usize,
        );
        ret == 0 || ret == -ESRCH
    }

    pub fn get(tid: u32) -> Option<Mask> {
        let mut mask: Mask = [0; super::MASK_WORDS];
        let bytes = std::mem::size_of::<Mask>();
        // Returns the number of bytes the kernel wrote.
        (syscall3(
            SCHED_GETAFFINITY,
            tid as usize,
            bytes,
            mask.as_mut_ptr() as usize,
        ) > 0)
            .then_some(mask)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::Mask;

    pub fn set(_tid: u32, _mask: &Mask) -> bool {
        false
    }

    pub fn get(_tid: u32) -> Option<Mask> {
        None
    }
}

/// Thread ids of this process.
fn threads() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn apply(mask: &Mask) -> bool {
    let tids = threads();
    !tids.is_empty() && tids.iter().all(|&tid| sys::set(tid, mask))
}

/// While it lives, every thread of the process — and every thread they
/// spawn — runs on one CPU. Dropping it gives every thread the original
/// CPUs back.
pub struct OneCpu {
    original: Mask,
}

impl OneCpu {
    /// Pin to the `n`-th allowed CPU counting down from the highest
    /// (device interrupts land on the low ones), wrapping around. The
    /// rounds of a run take turns over the CPUs: another tenant of the
    /// host often slows one of them for a minute, and a run that sat on
    /// that one throughout would read it as the program's speed. `None`
    /// where the platform has no such call or the kernel refuses it; the
    /// phase then runs wherever the scheduler puts it.
    pub fn pin_nth(n: usize) -> Option<OneCpu> {
        let original = sys::get(0)?;
        let allowed: Vec<usize> = (0..MASK_WORDS * 64)
            .rev()
            .filter(|cpu| original[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        let cpu = *allowed.get(n % allowed.len().max(1))?;
        let mut one: Mask = [0; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        apply(&one).then_some(OneCpu { original })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // A refusal here leaves threads pinned; nothing to do about it in
        // a destructor, and `pin_nth` succeeding makes it unlikely.
        apply(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed_cpus() -> u32 {
        sys::get(0).map_or(0, |m| m.iter().map(|w| w.count_ones()).sum())
    }

    #[test]
    fn pinning_leaves_one_cpu_and_dropping_restores_them() {
        let before = allowed_cpus();
        let Some(pinned) = OneCpu::pin_nth(0) else {
            return; // not supported here
        };
        assert_eq!(allowed_cpus(), 1);
        let child = std::thread::spawn(allowed_cpus).join().unwrap();
        assert_eq!(child, 1, "a thread spawned while pinned inherits the pin");
        drop(pinned);
        assert_eq!(allowed_cpus(), before);

        // Rounds take turns over the CPUs. (One test, not two: pinning
        // moves every thread of the process, the test harness's included.)
        let mut seen = std::collections::HashSet::new();
        for n in 0..before as usize {
            let _pinned = OneCpu::pin_nth(n).expect("pinning worked above");
            seen.insert(sys::get(0).expect("readable while pinned"));
        }
        assert_eq!(seen.len(), before as usize);
        assert_eq!(allowed_cpus(), before);
    }
}
