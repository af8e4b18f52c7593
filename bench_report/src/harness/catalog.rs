//! The workload catalog: the seven named workloads, their frozen sizes,
//! and how each one's inputs are generated from the seed. The program
//! under test only ever sees the generated `Vec<Job>` / systems.

use slp_core::{EntityId, SystemBuilder, TransactionSystem};
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{CertifyMode, Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{dag_mixed_jobs, hot_cold_jobs, layered_dag, long_short_jobs, read_heavy_jobs, Job};
use slp_verifier::{random_system, GenParams};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 2PL over a hot/cold mix: word-CAS grants, park/wake, waits-for.
    TwoplHotCold,
    /// 2PL, 90 % read-only jobs served from MVCC snapshots.
    ReadMostlySnapshot,
    /// DDAG traversals with 2 % inserts growing the universe.
    DdagChurn,
    /// Altruistic locking: one long scan amid short jobs.
    AltruisticLongShort,
    /// The hot/cold shape through the write-ahead log.
    TwoplDurable,
    /// 2PL hot-key storm under strict online certification.
    TwoplCertifiedStorm,
    /// The parallel verifier over a fixed catalog of systems.
    VerifierSweep,
}

/// Full size, or the 1/100 size `cargo test` runs. Results from the small
/// scale are stamped and `--compare` refuses them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The frozen sizes every reported number comes from.
    Full,
    /// 1/100 of the jobs, for tests only.
    Small,
}

impl Scale {
    /// The spelling in result files and on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }

    /// Whether a pass that has set up `done` times in `spent` sets up
    /// again for the median `setup_s` reports: three times at least, and
    /// while set-ups are cheap (under two seconds together) up to
    /// fifteen — a 13 ms set-up measured three times swings by a third.
    pub fn set_up_again(self, done: usize, spent: Duration) -> bool {
        match self {
            Scale::Full => done < 3 || (done < 15 && spent < Duration::from_secs(2)),
            Scale::Small => done < 2,
        }
    }

    /// Jobs in the run whose trace goes through the offline
    /// serializability replay. `is_serializable_with_aborts` is cubic in
    /// trace length (80 k steps take minutes), so it checks a prefix of
    /// the job slice while the linear checks and the incremental
    /// certifier cover a full-size run.
    pub fn replay_slice_jobs(self) -> usize {
        match self {
            Scale::Full => 600,
            Scale::Small => 60,
        }
    }
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::TwoplHotCold,
        Workload::ReadMostlySnapshot,
        Workload::DdagChurn,
        Workload::AltruisticLongShort,
        Workload::TwoplDurable,
        Workload::TwoplCertifiedStorm,
        Workload::VerifierSweep,
    ];

    /// The workload's name (as in `BENCHMARK.json`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwoplHotCold => "twopl_hot_cold",
            Workload::ReadMostlySnapshot => "read_mostly_snapshot",
            Workload::DdagChurn => "ddag_churn",
            Workload::AltruisticLongShort => "altruistic_long_short",
            Workload::TwoplDurable => "twopl_durable",
            Workload::TwoplCertifiedStorm => "twopl_certified_storm",
            Workload::VerifierSweep => "verifier_sweep",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line, as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TwoplHotCold => {
                "word-CAS grants, stripe park/wake and the waits-for graph do all the work; \
                 WAL, certifier, MVCC and the engine lock are idle"
            }
            Workload::ReadMostlySnapshot => {
                "MVCC snapshot reads carry 90% of the jobs while the writers still lock and \
                 pay install/flip, so a reader gain bought with writer cost shows"
            }
            Workload::DdagChurn => {
                "the paper's dynamic case: every grant is a DDAG rule check under the engine \
                 lock while inserts grow the universe; the word path is bypassed"
            }
            Workload::AltruisticLongShort => {
                "the other global-scope engine, with donation and wake rules and one long \
                 holder; separates a slow engine lock from slow DDAG planning"
            }
            Workload::TwoplDurable => {
                "WAL framing, CRC, group commit, watermark and checkpoints dominate, on an \
                 in-memory store: the sandbox's sync latency drifts 25% and is a per-layer row"
            }
            Workload::TwoplCertifiedStorm => {
                "strict online certification on a tiny hot set: the only workload where the \
                 incremental certifier in core is a large share of the wall"
            }
            Workload::VerifierSweep => {
                "the repo's other user, checking a policy: slp-verifier alone, no runtime \
                 layer runs, so runtime changes must leave it flat and vice versa"
            }
        }
    }

    /// The frozen number of jobs in one run (systems per pass for the
    /// verifier). Never scaled by host.
    pub fn jobs(self, scale: Scale) -> usize {
        let full = match self {
            Workload::TwoplHotCold => 100_000,
            Workload::ReadMostlySnapshot => 200_000,
            Workload::DdagChurn => 4_000,
            Workload::AltruisticLongShort => 60_000,
            Workload::TwoplDurable => 20_000,
            // Short runs on purpose: once the certifier's graph stops
            // truncating (a descheduled worker is enough) a run's cost
            // grows superlinearly — a 60 000-job run was seen taking 15 s
            // instead of 0.25 s. At this size such a run costs a fraction
            // of a second and the median across many repeats stays put.
            Workload::TwoplCertifiedStorm => 10_000,
            Workload::VerifierSweep => 3 + RANDOM_DRAWS,
        };
        match (scale, self) {
            (Scale::Full, _) => full,
            (Scale::Small, Workload::VerifierSweep) => 3 + RANDOM_DRAWS / 8,
            (Scale::Small, _) => full / 100,
        }
    }
}

/// Random systems per verifier catalog at full scale.
const RANDOM_DRAWS: usize = 32;

/// The seed `ddag_churn`'s database is drawn with.
const DAG_SEED: u64 = 42;

/// The seed the verifier catalog's wide system is drawn with (the one
/// `verifier_bench` uses); the random draws use `0..RANDOM_DRAWS`.
const WIDE_SEED: u64 = 9;

/// Worker threads the benchmark starts: `min(2, nproc)` — the only load
/// threads it runs.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The product-default config with only the worker count, the per-step
/// yield (a trace-diversity aid that costs throughput) and a generous
/// wall guard changed. Each workload then changes the one field it names.
pub fn base_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        step_yield: false,
        max_wall: Duration::from_secs(60),
        ..RuntimeConfig::default()
    }
}

/// One runtime workload's generated inputs.
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// The policy the runtime is built for.
    pub kind: PolicyKind,
    /// The policy's initial database.
    pub policy: PolicyConfig,
    /// Entity names interned (in this order) before a run — the nodes
    /// `ddag_churn`'s insert jobs create.
    pub fresh_names: Vec<String>,
    /// The job slice a run drains.
    pub jobs: Vec<Job>,
    /// The run's config.
    pub config: RuntimeConfig,
    /// Whether runs go through `run_durable` on a fresh log.
    pub durable: bool,
    /// Time spent generating `jobs` (and the DAG).
    pub gen_time: Duration,
}

fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

impl Prepared {
    /// Generates `workload`'s inputs from `seed`. Panics on
    /// [`Workload::VerifierSweep`], which has no runtime inputs.
    pub fn generate(workload: Workload, scale: Scale, seed: u64, workers: usize) -> Prepared {
        let n = workload.jobs(scale);
        let start = Instant::now();
        let mut config = base_config(workers);
        let mut fresh_names = Vec::new();
        let mut durable = false;
        let (kind, policy, jobs) = match workload {
            Workload::TwoplHotCold | Workload::TwoplDurable => {
                durable = workload == Workload::TwoplDurable;
                let p = pool(1024);
                let jobs = hot_cold_jobs(&p, n, 4, 16, 0.5, seed);
                (PolicyKind::TwoPhase, PolicyConfig::flat(p), jobs)
            }
            Workload::ReadMostlySnapshot => {
                config.snapshot_reads = true;
                let p = pool(1024);
                let jobs = read_heavy_jobs(&p, n, 4, 16, 0.9, seed);
                (PolicyKind::TwoPhase, PolicyConfig::flat(p), jobs)
            }
            Workload::DdagChurn => {
                // The database (the DAG) is part of the workload's
                // definition; the seed draws the jobs that run against
                // it. Dominator closures — and so throughput — differ by
                // 15 % between DAG draws, which would be read as noise.
                let dag = layered_dag(4, 16, 2, DAG_SEED);
                let policy = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
                // Fresh node ids come from the engine's own interner; the
                // names are kept so every later runtime interns the same
                // ids in the same order.
                let mut rt = Runtime::new(PolicyKind::Ddag, &policy).expect("DDAG builds");
                let mut intern = |name: &str| {
                    fresh_names.push(name.to_owned());
                    rt.intern(name).expect("DDAG interns")
                };
                let jobs = dag_mixed_jobs(&dag, n, 2, 0.02, &mut intern, seed);
                (PolicyKind::Ddag, policy, jobs)
            }
            Workload::AltruisticLongShort => {
                let p = pool(64);
                let jobs = long_short_jobs(&p, 24, n, 2, seed);
                (PolicyKind::Altruistic, PolicyConfig::flat(p), jobs)
            }
            Workload::TwoplCertifiedStorm => {
                config.certify_online = CertifyMode::Strict;
                let p = pool(64);
                let jobs = hot_cold_jobs(&p, n, 3, 4, 0.9, seed);
                (PolicyKind::TwoPhase, PolicyConfig::flat(p), jobs)
            }
            Workload::VerifierSweep => panic!("verifier_sweep has no runtime inputs"),
        };
        Prepared {
            workload,
            kind,
            policy,
            fresh_names,
            jobs,
            config,
            durable,
            gen_time: start.elapsed(),
        }
    }

    /// A fresh runtime over the initial database, fresh names interned.
    pub fn runtime(&self) -> Runtime {
        let mut rt = Runtime::new(self.kind, &self.policy).expect("catalog policies build");
        for name in &self.fresh_names {
            rt.intern(name).expect("policy interns fresh names");
        }
        rt
    }

    /// The same inputs restricted to `jobs` (ablation slices, the offline
    /// replay slice).
    pub fn with_jobs(&self, jobs: Vec<Job>) -> Prepared {
        Prepared {
            workload: self.workload,
            kind: self.kind,
            policy: self.policy.clone(),
            fresh_names: self.fresh_names.clone(),
            jobs,
            config: self.config,
            durable: self.durable,
            gen_time: Duration::ZERO,
        }
    }

    /// Targets of the read-only jobs: what `snapshot_reads` must equal
    /// when every read-only job took the snapshot path.
    pub fn read_only_targets(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.read_only)
            .map(|j| j.targets.len() as u64)
            .sum()
    }

    /// The correctness gate every run passes through: accounting, no
    /// lost or refused job, and the structural facts that make the
    /// workload what it is. Returns what was missed (empty = clean).
    pub fn gate(&self, report: &RuntimeReport, config: &RuntimeConfig) -> Vec<String> {
        let mut misses = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                misses.push(what);
            }
        };
        check(
            report.accounting_balances(),
            "attempts do not balance".into(),
        );
        check(!report.timed_out, "run hit the wall-clock guard".into());
        check(
            report.committed + report.rejected == self.jobs.len(),
            format!(
                "{} committed + {} rejected != {} jobs",
                report.committed,
                report.rejected,
                self.jobs.len()
            ),
        );
        check(
            report.rejected == 0,
            format!("{} jobs rejected", report.rejected),
        );
        check(
            report.grants == report.fast_path_grants + report.slow_path_grants,
            "grant paths do not add up".into(),
        );
        // The structural facts hold for the workload's own config; an
        // ablation run that switches the mechanism off is exempt.
        let own_config = config.grant_fast_path == self.config.grant_fast_path
            && config.snapshot_reads == self.config.snapshot_reads;
        if own_config {
            match self.workload {
                Workload::TwoplHotCold => check(
                    report.slow_path_grants == 0 && report.fast_path_grants > 0,
                    format!("{} engine-path grants on 2PL", report.slow_path_grants),
                ),
                Workload::DdagChurn | Workload::AltruisticLongShort => check(
                    report.fast_path_grants == 0,
                    format!(
                        "{} word-path grants on a global-scope engine",
                        report.fast_path_grants
                    ),
                ),
                // Equality with the (positive) read-only target count
                // says both that snapshots were read and that no
                // read-only job fell back to locks.
                Workload::ReadMostlySnapshot => check(
                    report.snapshot_reads == self.read_only_targets(),
                    format!(
                        "{} snapshot reads, {} read-only targets: a read-only job took locks",
                        report.snapshot_reads,
                        self.read_only_targets()
                    ),
                ),
                _ => {}
            }
        }
        if let Some(wal) = &report.wal {
            check(!wal.failed, "the log store failed mid-run".into());
        }
        if let Some(cert) = &report.certification {
            check(
                cert.violation.is_none(),
                format!("online certifier latched {:?}", cert.violation),
            );
        }
        check(
            config.certify_online == CertifyMode::Off || report.certification.is_some(),
            "run did not certify online".into(),
        );
        misses
    }
}

/// FNV-1a over the generated jobs: same seed, same fingerprint.
pub fn fingerprint_jobs(jobs: &[Job]) -> u64 {
    let mut h = Fnv::default();
    for job in jobs {
        h.word(job.targets.len() as u64);
        for t in &job.targets {
            h.word(u64::from(t.0));
        }
        match job.insert_under {
            Some(ins) => h.word((u64::from(ins.parent.0) << 32) | u64::from(ins.node.0)),
            None => h.word(u64::MAX),
        }
        h.word(u64::from(job.read_only));
    }
    h.0
}

/// FNV-1a over the catalog's systems in verification order: each
/// system's transactions (id and steps; the universe and initial state
/// hold hash maps, whose rendering is not stable between processes).
pub fn fingerprint_systems(systems: &[CatalogSystem]) -> u64 {
    let mut h = Fnv::default();
    for s in systems {
        for b in format!("{:?}", s.system.transactions()).bytes() {
            h.byte(b);
        }
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }
}

/// One system of the verifier catalog.
pub struct CatalogSystem {
    /// What the system is (for miss reports).
    pub label: String,
    /// The locked transaction system.
    pub system: TransactionSystem,
    /// The verdict the construction guarantees, if it guarantees one.
    pub expect_safe: Option<bool>,
}

/// A safe 2PL chain of `k` transactions over `k + 1` entities (forces
/// full coverage of the state space).
fn safe_system(k: u32) -> TransactionSystem {
    let mut b = SystemBuilder::new();
    for i in 0..=k {
        b.exists(&format!("x{i}"));
    }
    for t in 1..=k {
        let (a, bb) = (format!("x{}", t - 1), format!("x{t}"));
        b.tx(t)
            .lx(&a)
            .write(&a)
            .lx(&bb)
            .write(&bb)
            .ux(&a)
            .ux(&bb)
            .finish();
    }
    b.build()
}

/// An unsafe early-release system of `k` transactions (early exit).
fn unsafe_system(k: u32) -> TransactionSystem {
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    for t in 1..=k {
        b.tx(t)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
    }
    b.build()
}

/// The verifier catalog: a full-coverage safe system, an early-exit
/// unsafe one, a wide (13-transaction) padded system on the words-backed
/// edge-set path, and random draws. The systems are fixed — state-space
/// sizes differ by orders of magnitude between draws, so a seeded
/// catalog would measure the draw, not the verifier — and `seed` sets the
/// order they are verified in.
pub fn verifier_catalog(scale: Scale, seed: u64) -> Vec<CatalogSystem> {
    let safe_k = if scale == Scale::Full { 5 } else { 3 };
    let mut systems = vec![
        CatalogSystem {
            label: format!("safe_system({safe_k})"),
            system: safe_system(safe_k),
            expect_safe: Some(true),
        },
        CatalogSystem {
            label: "unsafe_system(3)".into(),
            system: unsafe_system(3),
            expect_safe: Some(false),
        },
        CatalogSystem {
            label: "wide_13".into(),
            system: random_system(
                GenParams {
                    transactions: 2,
                    sessions_per_tx: 2,
                    padding_txs: 11,
                    ..GenParams::default()
                },
                WIDE_SEED,
            ),
            expect_safe: None,
        },
    ];
    let draws = Workload::VerifierSweep.jobs(scale) - systems.len();
    systems.extend((0..draws as u64).map(|i| CatalogSystem {
        label: format!("random_system(#{i})"),
        system: random_system(GenParams::default(), i),
        expect_safe: None,
    }));
    // Fisher–Yates over a splitmix64 stream.
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..systems.len()).rev() {
        systems.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    systems
}
