//! The four workloads and the inputs each one generates from its seed.

use psa_codes::Sizes;
use psa_core::stats::Budget;
use psa_rsg::Level;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1: four codes at L1/L2/L3, analysis plus report.
    Table1,
    /// The eight Olden codes in multi-function form under the memory
    /// checker and its concrete validator.
    Olden,
    /// voronoi at L1 and L2: the level paradox (L1 far costlier than L2).
    Paradox,
    /// An editor session against an in-process `psa serve`.
    ServeEdit,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::Olden,
        Workload::Paradox,
        Workload::ServeEdit,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Olden => "olden",
            Workload::Paradox => "paradox",
            Workload::ServeEdit => "serve_edit",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input: programs, edit positions, request
    /// and job order, validator seeds.
    pub seed: u64,
    /// Measurement time: passes (or sessions) start while the previous
    /// one would still fit in it; at least one always runs.
    pub seconds: f64,
    /// Measure per-layer metrics (traced and untraced passes alternate)
    /// instead of end-to-end ones.
    pub trace: bool,
    /// Minimal size for tests: one pass, two jobs, about 20 requests.
    pub smoke: bool,
}

/// SplitMix64: a small, well-mixed generator for seed-derived choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Interpreter seeds for the memory validator and the coverage replay.
pub fn validator_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x7661_6c69_6461_7465);
    (0..3).map(|_| rng.next_u64()).collect()
}

/// One batch job: a source analyzed at one level.
#[derive(Debug, Clone)]
pub struct Job {
    /// `code/level`, e.g. `voronoi/L1`.
    pub name: String,
    /// C source text.
    pub source: String,
    /// Analysis level.
    pub level: Level,
    /// Run the memory checker and its concrete validator (`--check
    /// memory`).
    pub check_memory: bool,
    /// Engine budget.
    pub budget: Budget,
}

impl Job {
    /// A job with the default budget.
    pub fn new(code: &str, source: String, level: Level, check_memory: bool) -> Job {
        Job {
            name: format!("{code}/{level}"),
            source,
            level,
            check_memory,
            budget: Budget::default(),
        }
    }
}

/// The job list of a batch workload, shuffled by `seed`. `None` for
/// `serve_edit`, which issues requests instead.
pub fn batch_jobs(workload: Workload, seed: u64, smoke: bool) -> Option<Vec<Job>> {
    let sizes = Sizes::default();
    let mut jobs = Vec::new();
    match workload {
        Workload::Table1 => {
            let codes = [
                ("matvec", psa_codes::sparse_matvec(sizes)),
                ("matmat", psa_codes::sparse_matmat(sizes)),
                ("lu", psa_codes::sparse_lu(sizes)),
                ("barnes-hut", psa_codes::barnes_hut(sizes)),
            ];
            for (code, src) in codes {
                for level in Level::ALL {
                    jobs.push(Job::new(code, src.clone(), level, false));
                }
            }
            if smoke {
                jobs.truncate(2);
            }
        }
        Workload::Olden => {
            for (code, src) in psa_codes::olden::olden_codes(sizes) {
                for level in Level::ALL {
                    // tsp/L1 is too noisy to time (see README); voronoi/L1
                    // is the paradox workload's.
                    if level == Level::L1 && (code == "tsp" || code == "voronoi") {
                        continue;
                    }
                    jobs.push(Job::new(code, src.clone(), level, true));
                }
            }
            if smoke {
                jobs.truncate(2);
            }
        }
        Workload::Paradox => {
            let src = psa_codes::olden::voronoi(sizes);
            jobs.push(Job::new("voronoi", src.clone(), Level::L1, false));
            jobs.push(Job::new("voronoi", src, Level::L2, false));
        }
        Workload::ServeEdit => return None,
    }
    Rng::new(seed).shuffle(&mut jobs);
    Some(jobs)
}
