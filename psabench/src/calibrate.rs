//! Machine-speed calibration.
//!
//! On a shared machine the analyzer's speed drifts in phases of tens of
//! seconds (other tenants contend for caches and memory), by ±10% and at
//! times 1.5×, far more than the noise within a phase. A fixed reference
//! kernel with the analyzer's allocation-heavy profile (ordered-map
//! inserts, many small boxed allocations, a sort) slows down by about the
//! same factor: over 10-second windows, dividing the analyzer's time by the
//! kernel's cut the window-to-window deviation from 5.5% to 1.3% here.
//!
//! Brackets of kernel runs are taken between operations, at most about a
//! second apart. An operation's times are reported as
//! `raw × NOMINAL_MS / kernel_ms`, with `kernel_ms` the median of the
//! kernel runs taken from 3 s before it to 3 s after it: milliseconds of a
//! machine on which the kernel takes [`NOMINAL_MS`]. The
//! window spans several brackets because the drift is slow while single
//! kernel runs jitter; a factor from the two adjacent brackets alone moved
//! single jobs by ±10%. The kernel runs on a thread of its own, so its
//! allocations live in an allocator arena that the analyzer's allocations
//! never fragment, and it is part of the benchmark, so no change to the
//! analyzer can change it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel time that calibrated times are scaled to (its median on the
/// machine the baseline in `README.md` was measured on).
pub const NOMINAL_MS: f64 = 9.2;

/// Kernel runs per bracket.
const RUNS: usize = 3;

/// Longest stretch of operations between two brackets.
const BRACKET_EVERY: Duration = Duration::from_secs(1);

/// How far before and after an operation its calibration reaches.
const WINDOW: Duration = Duration::from_secs(3);

/// One run of the reference kernel, in milliseconds.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..60_000u64 {
        map.entry(i.wrapping_mul(0x9e37_79b9) % 20_000)
            .or_default()
            .push(i as u32);
    }
    let mut boxes: Vec<Box<[u64; 6]>> = (0..60_000u64)
        .map(|i| Box::new([i.wrapping_mul(0x2545_f491_4f6c_dd1d); 6]))
        .collect();
    boxes.sort_unstable_by_key(|b| b[0]);
    std::hint::black_box((map.len(), boxes.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel brackets taken during one run, and the thread that takes them.
pub struct Calibration {
    /// When each bracket was taken, and its kernel times.
    brackets: Vec<(Instant, Vec<f64>)>,
    request: Option<Sender<()>>,
    reply: Receiver<Vec<f64>>,
    worker: Option<JoinHandle<()>>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// Start the kernel thread; it runs the kernel once untimed so that
    /// growing its heap is not charged to the first bracket.
    pub fn new() -> Calibration {
        let (request, requests) = channel::<()>();
        let (replies, reply) = channel();
        let worker = std::thread::spawn(move || {
            kernel_ms();
            while requests.recv().is_ok() {
                let runs: Vec<f64> = (0..RUNS).map(|_| kernel_ms()).collect();
                if replies.send(runs).is_err() {
                    break;
                }
            }
        });
        Calibration {
            brackets: Vec::new(),
            request: Some(request),
            reply,
            worker: Some(worker),
        }
    }

    /// Take a bracket now.
    pub fn bracket(&mut self) {
        let runs = self
            .request
            .as_ref()
            .and_then(|r| r.send(()).ok())
            .and_then(|()| self.reply.recv().ok())
            .expect("calibration thread answers");
        self.brackets.push((Instant::now(), runs));
    }

    /// Take a bracket if none was taken in the last [`BRACKET_EVERY`].
    pub fn bracket_if_due(&mut self) {
        if self
            .brackets
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= BRACKET_EVERY)
        {
            self.bracket();
        }
    }

    /// The factor that scales raw times of an operation that ran from
    /// `start` to `end` to the nominal machine: `NOMINAL_MS` over the
    /// median kernel time of the brackets within 3 s of it, or of the
    /// nearest brackets before and after it when none is that close.
    pub fn factor(&self, start: Instant, end: Instant) -> f64 {
        let near = |at: &Instant| {
            start.saturating_duration_since(*at) <= WINDOW
                && at.saturating_duration_since(end) <= WINDOW
        };
        let mut runs: Vec<f64> = self
            .brackets
            .iter()
            .filter(|(at, _)| near(at))
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        if runs.is_empty() {
            let before = self.brackets.iter().rev().find(|(at, _)| *at <= start);
            let after = self.brackets.iter().find(|(at, _)| *at >= end);
            runs = before
                .into_iter()
                .chain(after)
                .flat_map(|(_, r)| r.iter().copied())
                .collect();
        }
        NOMINAL_MS / median(&runs)
    }

    /// Every kernel timing, in the order taken.
    pub fn kernel_samples(&self) -> Vec<f64> {
        self.brackets
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect()
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        // Closing the request channel ends the thread's loop.
        self.request = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
