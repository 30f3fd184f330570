//! The host and source stamp printed with every run, so numbers carry
//! their host caveats and two runs can be shown to have built the same
//! code, and the CPU pinning of the client thread.

use std::process::Command;

/// Print core count, CPU model, cache sizes, compiler and git commit.
pub fn print_stamp() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{level}/size"
        ))
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
    };
    println!(
        "env: nproc={cores} cpu=\"{cpu}\" l2={} l3={}",
        cache(2),
        cache(3)
    );
    println!(
        "env: rustc=\"{}\" commit={}",
        output("rustc", &["-V"]),
        output("git", &["rev-parse", "HEAD"])
    );
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run (the checkout may not be a git repository).
fn output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Pin the calling thread to the CPU it is running on, so the scheduler
/// cannot move the client between cores mid-run and cost it its private
/// caches (on the reference host this narrowed the seed-to-seed spread of
/// the lookup tail). Returns the CPU, or `None` where pinning is not
/// available.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}
