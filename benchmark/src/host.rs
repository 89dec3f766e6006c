//! What the harness asks of the machine: one pinned CPU, the peak resident
//! set, an environment block for the report, and a fixed kernel that tells
//! a slow machine from a slow program.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Words of the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this thread — and so every thread spawned after it — to the
/// highest-numbered CPU it is allowed to run on; returns that CPU.
///
/// Unpinned, the closed-loop round trip on a 2-vCPU VM is bimodal (p50
/// 6.5 µs when client and session thread share a vCPU, 51–60 µs when they
/// do not) and which mode a run lands in is chance.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut only = [0u64; MASK_WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of exactly the byte length passed and
    // names one CPU out of the set the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } == 0)
        .then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}

/// `VmHWM` of this process in MB (0 where `/proc` does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs this process may use. Read it before pinning: afterwards it is 1.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Where and how a row was measured, so rows from different machines or
/// modes are never compared blind.
pub fn environment(seed: u64, threads: usize, pinned_cpu: Option<usize>, quick: bool) -> Json {
    Json::obj([
        (
            "git_rev",
            Json::str(first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        ("nproc", Json::Num(threads as f64)),
        ("threads_available", Json::Num(threads as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
    ])
}

/// A fixed pure-CPU loop plus a dependent walk through 4 MB, timed once per
/// round. It calls nothing under test, so when it moves the machine moved.
pub struct Canary {
    next: Vec<u32>,
}

impl Canary {
    const SLOTS: usize = 1 << 20;
    const STEPS: usize = 1 << 19;

    pub fn new() -> Self {
        // One cycle through every slot (a full-period LCG step), so the
        // walk cannot settle into a cache-resident loop.
        let next = (0..Self::SLOTS)
            .map(|i| ((i * 1_664_525 + 1_013_904_223) % Self::SLOTS) as u32)
            .collect();
        Self { next }
    }

    pub fn run(&self) -> Duration {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut at = (x as usize) % Self::SLOTS;
        for _ in 0..Self::STEPS {
            at = self.next[at] as usize;
        }
        std::hint::black_box(at);
        t.elapsed()
    }
}
