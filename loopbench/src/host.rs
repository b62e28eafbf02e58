//! Process resource usage and the host description.

use std::process::Command;

use serde_json::{Map, Value};

/// `struct rusage` on Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage`
    // with the kernel's layout for this target; `getrusage` only writes
    // into it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    usage
}

/// Process user + system CPU time so far, in seconds (every thread,
/// finished ones included).
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `ru_maxrss` (the first long) is in KiB on Linux.
    rusage().longs[0] as f64 / 1024.0
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string()).filter(|line| !line.is_empty())
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree reports `None`).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// The `host` block: cores, CPU model, compiler and source revision.
pub fn describe() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut map = Map::new();
    map.insert("nproc", Value::from(nproc));
    map.insert("cpu", Value::from(cpu));
    map.insert(
        "rustc",
        Value::from(first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
    );
    map.insert(
        "commit",
        Value::from(commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string())),
    );
    Value::Object(map)
}
