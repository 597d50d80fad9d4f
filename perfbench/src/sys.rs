//! Process-level measurements read from the kernel: CPU time through
//! `getrusage(2)` and resident memory through `/proc/self/status`.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the
    // 64-bit Linux `struct rusage` (two `timeval`s of two `i64`s each, then
    // fourteen `long`s), which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// A `/proc/self/status` field in kB, converted to bytes (0 if absent).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of the process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// A span around one call into a layer: wall time and process CPU time.
pub struct Span {
    wall: Instant,
    cpu: f64,
}

/// What a finished [`Span`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Span {
    pub fn start() -> Self {
        Span {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    pub fn stop(self) -> Spent {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Spent {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu,
        }
    }
}

/// `available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
