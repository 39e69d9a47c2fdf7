//! Small numeric and host helpers: order statistics, digests, process CPU
//! time and peak memory.

use std::fs;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Harrell–Davis estimate of quantile `q` in `(0, 1)` of `values`: the mean
/// of every order statistic, the `i`-th weighted by the mass of
/// Beta(`q(n+1)`, `(1-q)(n+1)`) on `[i/n, (i+1)/n)`. Over a dozen values a
/// sample quantile rests on one or two of them; this one draws on all, so
/// it moves less from run to run. 0 when empty.
pub fn harrell_davis(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // Midpoint rule over the Beta density; the normalizing constant cancels.
    const STEPS: usize = 1 << 16;
    let mut mass = vec![0.0; n];
    for k in 0..STEPS {
        let x = (k as f64 + 0.5) / STEPS as f64;
        let i = ((x * n as f64) as usize).min(n - 1);
        mass[i] += ((a - 1.0) * x.ln() + (b - 1.0) * (-x).ln_1p()).exp();
    }
    let total: f64 = mass.iter().sum();
    v.iter().zip(&mass).map(|(x, m)| x * m).sum::<f64>() / total
}

/// Geometric mean of positive `values`; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// 64-bit FNV-1a, the digest of output bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab","c") and ("a","bc") digest differently.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// CPU seconds this process has used, all threads (joined ones included).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system) another process has used, from
/// `/proc/<pid>/stat`; clock-tick resolution.
pub fn child_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // The command name may hold spaces; the fields after it are fixed.
    let rest = stat
        .rsplit_once(')')
        .ok_or("malformed /proc stat")?
        .1
        .split_whitespace()
        .collect::<Vec<_>>();
    let field = |i: usize| -> Result<f64, String> {
        rest.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_owned())
    };
    // SAFETY: `sysconf` takes an integer and reads process-global
    // configuration; it has no memory-safety preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    Ok((field(11)? + field(12)?) / ticks)
}

/// Peak resident set (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = fs::read_to_string(path).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_weighs_every_order_statistic() {
        assert_eq!(harrell_davis(&[], 0.5), 0.0);
        assert_eq!(harrell_davis(&[4.0], 0.99), 4.0);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // Symmetric weights put the median of 1..=11 on its middle value.
        assert!((harrell_davis(&v, 0.5) - 6.0).abs() < 1e-9);
        // An outlier 100 times the range away moves it by under half a step.
        let mut w = v.clone();
        w[10] = 1e3;
        let moved = harrell_davis(&w, 0.5) - 6.0;
        assert!(moved > 0.0 && moved < 0.5, "{moved}");
        // Near 1 the weight sits on the largest values.
        let p99 = harrell_davis(&v, 0.99);
        assert!(p99 > 10.5 && p99 < 11.0, "{p99}");
        assert_eq!(harrell_davis(&[2.0; 12], 0.5), 2.0);
    }

    #[test]
    fn digests_separate_fields() {
        let mut a = Fnv::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = Fnv::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn host_probes_read_this_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(child_cpu_s(std::process::id()).unwrap() >= 0.0);
    }
}
