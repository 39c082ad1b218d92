//! Machine fingerprint recorded with every result, and process memory.

use psa_core::json::Json;
use std::path::Path;

/// Where a measurement was taken: enough to tell two machines, two
/// toolchains or two commits apart when comparing results.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the source tree the benchmark was built from, read from
    /// its `.git` directory; `unknown` in an exported tree.
    pub git_rev: String,
    /// 1-minute load average when the run started.
    pub loadavg: f64,
}

impl Fingerprint {
    /// Probe the current machine.
    pub fn collect() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
            git_rev: git_rev(&root).unwrap_or_else(|| "unknown".into()),
            loadavg,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("nproc", self.nproc as f64);
        j.set("cpu", self.cpu.as_str());
        j.set("rustc", self.rustc.as_str());
        j.set("git_rev", self.git_rev.as_str());
        j.set("loadavg", self.loadavg);
        j
    }
}

/// Resolve `HEAD` by hand (loose ref, then `packed-refs`) so no `git`
/// process runs and nothing outside the source tree is read.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
