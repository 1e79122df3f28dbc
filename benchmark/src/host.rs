//! What the benchmark reads from, and asks of, the host: process
//! memory and CPU time from `/proc`, and a fixed calibration loop whose
//! time moves only with the host, never with the repository's code.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// User + system CPU seconds this process has used (`/proc/self/stat`
/// fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_secs() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

const CALIB_BYTES: usize = 32 << 20;
const CHASE_SLOTS: usize = 1 << 20;
const CHASE_STEPS: usize = 1 << 20;

/// The calibration loop's inputs, built once per process.
pub struct Calibration {
    buffer: Vec<u8>,
    chase: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        let buffer: Vec<u8> = (0..CALIB_BYTES)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        // One cycle through every slot with a large odd stride, so each
        // step misses the cache line the previous one touched.
        let stride = 514_229;
        let mut chase = vec![0u32; CHASE_SLOTS];
        let mut at = 0usize;
        for _ in 0..CHASE_SLOTS {
            let next = (at + stride) % CHASE_SLOTS;
            chase[at] = next as u32;
            at = next;
        }
        Calibration { buffer, chase }
    }

    /// Nanoseconds for one pass: FNV-1a over the 32 MB buffer (compute
    /// and streaming reads) plus a 1 Mi-step pointer chase (memory
    /// latency).
    pub fn run_ns(&self) -> f64 {
        let start = Instant::now();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in black_box(&self.buffer) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut at = (h as usize) % CHASE_SLOTS;
        let chase = black_box(&self.chase);
        for _ in 0..CHASE_STEPS {
            at = chase[at] as usize;
        }
        black_box(at);
        start.elapsed().as_nanos() as f64
    }
}

/// Minimum, median and maximum of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Spread {
    /// `None` for an empty set.
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        Some(Spread {
            min: v[0],
            median,
            max: v[v.len() - 1],
            n: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_and_takes_the_middle() {
        let s = Spread::of(&[3.0, 1.0, 2.0, 10.0]).expect("non-empty");
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.5, 10.0, 4));
        assert_eq!(Spread::of(&[]), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_kb() > 0);
        assert!(cpu_secs() >= 0.0);
    }
}
