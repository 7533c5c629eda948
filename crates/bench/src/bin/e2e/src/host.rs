//! Host guard: what machine the wall numbers came from, and whether it was
//! quiet enough for them to mean anything.

use std::process::Command;

use crate::json::Json;

/// Snapshot of the host taken when a run starts.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub load1_start: f64,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// 1-minute load average, NaN where `/proc/loadavg` is not readable.
pub fn load1() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// `VmHWM` of this process in MiB: the peak resident set, which includes the
/// simulated CXL pool. `None` where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // `output` waits for the child, so nothing outlives this call.
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc,
            load1_start: load1(),
        }
    }

    /// Why wall numbers from this host cannot be trusted, if they cannot: a
    /// 2-rank universe needs two cores, and a load average above the core
    /// count means the rank threads were being descheduled.
    pub fn wall_unresolved(&self) -> Option<String> {
        if self.nproc < 2 {
            Some(format!("nproc = {} < 2", self.nproc))
        } else if self.load1_start > self.nproc as f64 {
            Some(format!(
                "1-min load {} > nproc {}",
                self.load1_start, self.nproc
            ))
        } else {
            None
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("load1_start", Json::Num(self.load1_start)),
            ("load1_end", Json::Num(load1())),
            (
                "wall",
                match self.wall_unresolved() {
                    Some(why) => Json::str(format!("unresolved: {why}")),
                    None => Json::str("resolved"),
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(nproc: usize, load: f64) -> Host {
        Host {
            nproc,
            cpu_model: "test".into(),
            rustc: "rustc test".into(),
            load1_start: load,
        }
    }

    #[test]
    fn guard_trips_on_one_core_or_overload() {
        assert!(host(1, 0.0).wall_unresolved().is_some());
        assert!(host(2, 2.5).wall_unresolved().is_some());
        assert!(host(2, 1.9).wall_unresolved().is_none());
        // An unreadable load average does not by itself condemn the run.
        assert!(host(4, f64::NAN).wall_unresolved().is_none());
        let j = host(2, 3.0).to_json();
        assert!(j
            .get("wall")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("unresolved"));
    }

    #[test]
    fn probe_reads_this_machine() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(!h.cpu_model.is_empty());
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
    }
}
