//! `fleet_steady`: many small sessions.
//!
//! Each round is an episode: a fleet of tenants over one shared
//! copy-on-write corpus of ~16 KiB prose files, every tenant inline. A
//! tenth of the tenants run ransomware, and the rest split evenly into
//! editors doing append saves and readers; one thread replays them
//! round-robin, one open → read → (write →) close cycle per tenant per
//! turn, until every trace is done. Per-operation constant costs
//! dominate — VFS dispatch, the family gate, the stamp probe — while
//! copy-on-write private copies and tenant spawn show up in memory and
//! set-up time.

use std::time::Instant;

use cryptodrop::CryptoDrop;
use cryptodrop_fleet::{Fleet, FleetConfig, TenantSpec};
use cryptodrop_vfs::{OpenOptions, ProcessId, VPath, Vfs, VfsResult};

use super::{digest, round_seed, Pass, PassCfg, Rng, Scale};
use crate::trace::{self, layer};

/// The fleet's protected root.
const DOCS: &str = "/docs";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Attacker,
    Editor,
    Reader,
}

impl Role {
    fn executable(self) -> &'static str {
        match self {
            Role::Attacker => "cryptolocker.exe",
            Role::Editor => "wordproc.exe",
            Role::Reader => "indexer.exe",
        }
    }
}

/// The shared corpus: `files` deterministic prose bodies of ~16 KiB.
fn fleet_corpus(seed: u64, files: usize) -> Vec<(VPath, Vec<u8>)> {
    const WORDS: [&str; 12] = [
        "quarterly",
        "figures",
        "recurring",
        "prose",
        "budget",
        "review",
        "draft",
        "notes",
        "summary",
        "meeting",
        "agenda",
        "report",
    ];
    let mut rng = Rng::new(seed ^ 0xF1EE_7000);
    (0..files)
        .map(|i| {
            let mut body = Vec::with_capacity(16 * 1024);
            for line in 0..320 {
                let (a, b) = (WORDS[rng.below(12)], WORDS[rng.below(12)]);
                body.extend_from_slice(
                    format!("doc {i} line {line}: {a} {b} and more\n").as_bytes(),
                );
            }
            (VPath::new(DOCS).join(format!("doc-{i}.txt")), body)
        })
        .collect()
}

/// Each tenant's role: a tenth attackers, the rest half editors and half
/// readers, shuffled by the seed.
fn roles(seed: u64, tenants: u32) -> Vec<Role> {
    let attackers = (tenants / 10).max(1) as usize;
    let editors = (tenants as usize - attackers) / 2;
    let mut roles: Vec<Role> = (0..tenants as usize)
        .map(|i| match i {
            i if i < attackers => Role::Attacker,
            i if i < attackers + editors => Role::Editor,
            _ => Role::Reader,
        })
        .collect();
    Rng::new(seed ^ 0x0201_E500).shuffle(&mut roles);
    roles
}

/// One tenant's trace: its role and its position in it.
struct Trace {
    role: Role,
    pid: ProcessId,
    rng: Rng,
    key: u8,
    order: Vec<usize>,
    step: u32,
    steps: u32,
}

impl Trace {
    fn new(seed: u64, tenant: u32, role: Role, pid: ProcessId, scale: &Scale) -> Self {
        let mut rng = Rng::new(seed ^ u64::from(tenant).wrapping_mul(0x9E37_79B9));
        let files = scale.fleet_files;
        let mut order: Vec<usize> = (0..files).collect();
        rng.shuffle(&mut order);
        let steps = match role {
            Role::Attacker => files as u32,
            Role::Editor => scale.editor_rounds + 1,
            Role::Reader => scale.reader_rounds,
        };
        Self {
            role,
            pid,
            key: rng.below(251) as u8,
            rng,
            order,
            step: 0,
            steps,
        }
    }

    /// Whether the trace has a cycle left (an attacker stops once it is
    /// suspended).
    fn pending(&self, fs: &Vfs) -> bool {
        self.step < self.steps && !fs.is_suspended(self.pid)
    }

    /// Runs the trace's next cycle.
    fn cycle(&mut self, fs: &mut Vfs) -> VfsResult<()> {
        let (pid, step) = (self.pid, self.step);
        self.step += 1;
        let docs = VPath::new(DOCS);
        match self.role {
            Role::Attacker => {
                let path = docs.join(format!("doc-{}.txt", self.order[step as usize]));
                let key = self.key;
                rewrite(fs, pid, &path, OpenOptions::modify(), |data| {
                    data.iter()
                        .enumerate()
                        .map(|(j, b)| b ^ (j as u8).wrapping_mul(197).wrapping_add(key))
                        .collect()
                })
            }
            Role::Editor if step + 1 == self.steps => {
                let notes = docs.join("notes.txt");
                rewrite(fs, pid, &notes, OpenOptions::create(), |_| {
                    b"meeting notes: discuss quarterly prose".to_vec()
                })
            }
            Role::Editor => {
                let path = docs.join(format!("doc-{}.txt", self.rng.below(self.order.len())));
                rewrite(fs, pid, &path, OpenOptions::modify(), |data| {
                    let mut out = data.to_vec();
                    out.extend_from_slice(format!("\nedit pass {step} appended\n").as_bytes());
                    out
                })
            }
            Role::Reader => {
                let path = docs.join(format!("doc-{}.txt", self.rng.below(self.order.len())));
                let h = trace::span(layer::VFS_OPEN, || fs.open(pid, &path, OpenOptions::read()))?;
                let read = trace::span(layer::VFS_READ, || fs.read_to_end(pid, h));
                trace::span(layer::VFS_CLOSE, || fs.close(pid, h))?;
                read.map(|_| ())
            }
        }
    }
}

/// open → read → write `edit(old bytes)` from offset 0 → close.
fn rewrite(
    fs: &mut Vfs,
    pid: ProcessId,
    path: &VPath,
    options: OpenOptions,
    edit: impl FnOnce(&[u8]) -> Vec<u8>,
) -> VfsResult<()> {
    let h = trace::span(layer::VFS_OPEN, || fs.open(pid, path, options))?;
    let written = trace::span(layer::VFS_READ, || fs.read_to_end(pid, h)).and_then(|data| {
        let out = edit(&data);
        fs.seek(pid, h, 0)?;
        trace::span(layer::VFS_WRITE, || fs.write(pid, h, &out))
    });
    trace::span(layer::VFS_CLOSE, || fs.close(pid, h))?;
    written.map(|_| ())
}

/// Replays one tenant standalone — its own fully materialized corpus,
/// same namespace, same staging order, same trace — and returns the
/// digest of its verdicts.
fn standalone(
    fleet_cfg: &FleetConfig,
    corpus: &[(VPath, Vec<u8>)],
    seed: u64,
    tenant: u32,
    role: Role,
    scale: &Scale,
) -> u64 {
    let mut fs = Vfs::with_namespace(tenant);
    for (path, body) in corpus {
        fs.admin()
            .write_file(path, body)
            .expect("staging into an empty namespace cannot fail");
    }
    let session = CryptoDrop::builder()
        .config(fleet_cfg.base.clone())
        .recovery(fleet_cfg.shadow.clone())
        .deterministic_clock()
        .build()
        .expect("the fleet's default config is valid");
    session.attach(&mut fs);
    let pid = fs.spawn_process(role.executable());
    let mut t = Trace::new(seed, tenant, role, pid, scale);
    while t.pending(&fs) {
        let _ = t.cycle(&mut fs);
    }
    session.reconcile(&mut fs);
    digest(&session.detections())
}

/// Runs one pass of `fleet_steady`.
pub fn run(cfg: &PassCfg) -> Pass {
    let mut pass = Pass::default();
    let (mut missed, mut false_positives, mut mismatched) = (0u32, 0u32, Vec::new());
    let started = Instant::now();
    while cfg.budget.more(pass.rounds, started) {
        let seed = round_seed(cfg.seed, pass.rounds);
        let corpus_started = Instant::now();
        let corpus = fleet_corpus(seed, cfg.scale.fleet_files);
        pass.corpus_ns
            .push(corpus_started.elapsed().as_nanos() as u64);
        let roles = roles(seed, cfg.scale.tenants);
        let setup = Instant::now();
        let mut fleet = Fleet::new(FleetConfig::protecting(DOCS));
        for (path, body) in &corpus {
            fleet.stage_file(path.clone(), body.clone());
        }
        let mut tenants = Vec::with_capacity(roles.len());
        for (n, &role) in roles.iter().enumerate() {
            let spawn = Instant::now();
            let id = fleet
                .spawn(TenantSpec::named(format!("tenant-{n}")).deterministic_clock())
                .expect("the fleet's default config is valid");
            pass.counters
                .spawn_ns
                .push(spawn.elapsed().as_nanos() as u64);
            let fs = fleet.get_mut(id).expect("just spawned").fs_mut();
            if cfg.traced {
                trace::instrument(fs);
            }
            let pid = fs.spawn_process(role.executable());
            tenants.push((id, Trace::new(seed, id, role, pid, &cfg.scale)));
        }
        pass.setup_ns.push(setup.elapsed().as_nanos() as u64);

        let mut active = true;
        while active {
            active = false;
            for (id, t) in &mut tenants {
                let fs = fleet
                    .get_mut(*id)
                    .expect("tenant lives for the episode")
                    .fs_mut();
                if !t.pending(fs) {
                    continue;
                }
                active = true;
                if pass.timed_request(|| t.cycle(fs)).is_err() {
                    pass.failed += 1;
                }
            }
        }

        pass.sample_rss();
        let stats = fleet.stats();
        pass.counters.corpus_bytes = stats.corpus_bytes;
        pass.counters
            .private_bytes_per_tenant
            .push(stats.private_bytes as f64 / f64::from(cfg.scale.tenants));
        for (id, t) in &tenants {
            let tenant = fleet.get_mut(*id).expect("tenant lives for the episode");
            let (session, fs) = tenant.session_and_fs();
            pass.ops += fs.latency_ledger().total_ops();
            session.reconcile(fs);
            let suspended = fs.is_suspended(t.pid);
            match t.role {
                Role::Attacker => missed += u32::from(!suspended),
                _ => false_positives += u32::from(suspended),
            }
            pass.verdicts.push(digest(&session.detections()));
            pass.counters.add_session(session);
        }
        if cfg.cross_check && pass.rounds == 0 {
            // Every attacker and a seeded tenth of the benign tenants,
            // replayed standalone, must reach the same verdicts.
            let mut pick = Rng::new(seed ^ 0x5A4D_0000);
            for ((id, t), verdicts) in tenants.iter().zip(&pass.verdicts) {
                if (t.role == Role::Attacker || pick.below(10) == 0)
                    && standalone(fleet.config(), &corpus, seed, *id, t.role, &cfg.scale)
                        != *verdicts
                {
                    mismatched.push(*id);
                }
            }
        }
        pass.rounds += 1;
    }

    let cycles = pass.request_ns.len().max(1) as f64;
    pass.outcomes = vec![
        ("missed_detections", f64::from(missed), "count"),
        ("false_positives", f64::from(false_positives), "count"),
        ("error_frac", pass.failed as f64 / cycles, "ratio"),
    ];
    pass.check(
        "fleet_steady.attackers_detected",
        missed == 0,
        format!("{missed} attacker tenants not suspended"),
    );
    pass.check(
        "fleet_steady.benign_not_suspended",
        false_positives == 0,
        format!("{false_positives} benign tenants suspended"),
    );
    pass.check(
        "fleet_steady.cycles_succeed",
        pass.failed == 0,
        format!("{} cycles returned an error", pass.failed),
    );
    if cfg.cross_check {
        pass.check(
            "fleet_steady.verdicts_match_standalone",
            mismatched.is_empty(),
            format!("tenants whose verdicts differ standalone: {mismatched:?}"),
        );
    }
    pass
}
