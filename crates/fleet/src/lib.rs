//! # cryptodrop-fleet — thousands of monitored tenants in one process
//!
//! The paper evaluates CryptoDrop protecting *one* user's documents. A
//! hosting deployment inverts the cardinality: one monitor process watches
//! thousands of tenant namespaces, each with its own detector state,
//! shadow-copy budget, and audit trail — but sharing one protected corpus
//! image. This crate provides that multiplexing layer on top of the
//! single-tenant [`Session`] API:
//!
//! * [`SharedCorpus`] — the corpus staged **once** into a
//!   fingerprint-deduplicated [`BlobStore`] and mounted copy-on-write into
//!   every tenant filesystem via
//!   [`stage_shared`](cryptodrop_vfs::AdminView::stage_shared). A thousand
//!   tenants resident over a 10 MB corpus hold ~10 MB, not ~10 GB; a
//!   tenant's first write to a file materializes a private copy of just
//!   that file.
//! * [`Fleet`] — owns one [`Tenant`] (detector [`Session`] + namespaced
//!   [`Vfs`]) per spawn, with per-tenant config/shadow/pipeline/fault
//!   overrides ([`TenantSpec`]) over fleet-wide defaults
//!   ([`FleetConfig`]).
//! * **Telemetry rollup** — every tenant records into its own uncontended
//!   registry; [`Fleet::rollup`] merges them into one
//!   [`MetricsSnapshot`] off the hot path, and
//!   [`Fleet::tagged_journal`] exports every tenant's event timeline as
//!   JSONL with `"tenant"`/`"name"` tags spliced into each line.
//! * [`FleetAdmin`] — a line-delimited JSON-RPC-style admin plane
//!   (spawn / suspend / resume / despawn / restore / audit / stats /
//!   list) for driving a fleet from outside the process.
//!
//! ```
//! use cryptodrop_fleet::{Fleet, FleetConfig, TenantSpec};
//! use cryptodrop_vfs::VPath;
//!
//! let mut fleet = Fleet::new(FleetConfig::protecting("/docs"));
//! fleet.stage_file(VPath::new("/docs/report.txt"), b"quarterly".to_vec());
//!
//! let a = fleet.spawn(TenantSpec::named("alice")).unwrap();
//! let b = fleet.spawn(TenantSpec::named("bob")).unwrap();
//! // Both tenants see the file; the bytes are resident once.
//! for id in [a, b] {
//!     let t = fleet.get_mut(id).unwrap();
//!     assert_eq!(t.fs_mut().admin().read_file(&VPath::new("/docs/report.txt")).unwrap(),
//!                b"quarterly");
//!     assert_eq!(t.fs().private_bytes(), 0);
//! }
//! assert_eq!(fleet.stats().corpus_bytes, 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admin;
pub mod rpc;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use cryptodrop::{
    Config, ConfigError, CryptoDrop, PipelineConfig, PipelineStats, RecoveryReport, Session,
    ShadowConfig,
};
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_telemetry::{MetricsSnapshot, Telemetry};
use cryptodrop_vfs::{BlobStore, FaultPlan, SharedContent, VPath, Vfs};

pub use admin::FleetAdmin;

/// The protected corpus, staged once and mounted copy-on-write into every
/// tenant namespace.
///
/// Files are deduplicated by content fingerprint through a [`BlobStore`],
/// so a corpus where many tenant-visible paths carry identical bytes (a
/// template tree, say) is resident once per distinct content, and each
/// staged file carries a precomputed content stamp so mounting into a new
/// tenant is O(files), not O(bytes).
#[derive(Debug, Default)]
pub struct SharedCorpus {
    files: Vec<(VPath, SharedContent)>,
    store: BlobStore,
}

impl SharedCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages `data` at `path`, deduplicating against already-staged
    /// content. Returns `true` when the bytes were already resident (a
    /// dedup hit — no new memory). Staging the same path twice replaces
    /// the earlier entry for future mounts.
    pub fn stage(&mut self, path: VPath, data: Vec<u8>) -> bool {
        let fp = content_fingerprint(&data);
        let len = data.len() as u64;
        let (bytes, dedup_hit) = self.store.acquire_with(fp, len, || data);
        let content = SharedContent::from_arc(bytes);
        if let Some(slot) = self.files.iter_mut().find(|(p, _)| *p == path) {
            // Replacing drops one reference on the old content.
            let old = std::mem::replace(&mut slot.1, content);
            self.store.release(content_fingerprint(old.as_slice()), old.len() as u64);
        } else {
            self.files.push((path, content));
        }
        dedup_hit
    }

    /// Mounts every staged file into `fs` (creating parent directories),
    /// returning how many files were mounted. Each mount is a refcount
    /// bump — no bytes are copied until the tenant writes.
    pub fn mount_into(&self, fs: &mut Vfs) -> usize {
        let mut mounted = 0;
        for (path, content) in &self.files {
            if fs.admin().stage_shared(path, content).is_ok() {
                mounted += 1;
            }
        }
        mounted
    }

    /// Unique bytes resident across all staged content.
    pub fn bytes_held(&self) -> u64 {
        self.store.bytes_held()
    }

    /// Total logical bytes a tenant sees (sum of staged file lengths;
    /// ≥ [`bytes_held`](Self::bytes_held) when contents repeat).
    pub fn logical_bytes(&self) -> u64 {
        self.files.iter().map(|(_, c)| c.len() as u64).sum()
    }

    /// Number of staged files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Per-tenant overrides over the fleet's [`FleetConfig`] defaults.
///
/// Every field is optional: an empty spec inherits everything and gets an
/// auto-generated `tenant-<id>` name.
#[derive(Debug, Clone, Default)]
pub struct TenantSpec {
    /// Tenant name (unique within the fleet). Empty = auto-generated.
    pub name: String,
    /// Full engine config override (replaces [`FleetConfig::base`]).
    pub config: Option<Config>,
    /// Shadow-store override — the per-tenant recovery budget.
    pub shadow: Option<ShadowConfig>,
    /// Pipeline override (`Some` = run this tenant's analysis async).
    pub pipeline: Option<PipelineConfig>,
    /// Deterministic fault plan for chaos runs.
    pub faults: Option<FaultPlan>,
    /// Disables this tenant's telemetry sink (probes become no-ops and
    /// the tenant contributes nothing to rollups).
    pub quiet: bool,
    /// Pins the tenant's simulated clock to the deterministic policy:
    /// measured filter overhead is ledgered but never folded into
    /// `at_nanos`, so timestamps become a pure function of the op
    /// sequence (reproducible across machines and runs).
    pub deterministic_clock: bool,
}

impl TenantSpec {
    /// A spec with only a name set.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Sets a per-tenant shadow byte budget.
    pub fn shadow_budget(mut self, byte_budget: u64) -> Self {
        self.shadow = Some(ShadowConfig::with_budget(byte_budget));
        self
    }

    /// Runs this tenant's analysis on an async pipeline.
    pub fn pipelined(mut self, config: PipelineConfig) -> Self {
        self.pipeline = Some(config);
        self
    }

    /// Arms a deterministic fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pins this tenant's simulated clock to the deterministic policy.
    pub fn deterministic_clock(mut self) -> Self {
        self.deterministic_clock = true;
        self
    }
}

/// Fleet-wide defaults applied to every tenant a [`TenantSpec`] does not
/// override.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The engine configuration every tenant starts from.
    pub base: Config,
    /// Default per-tenant shadow-store sizing.
    pub shadow: ShadowConfig,
    /// Default pipeline (`None` = inline analysis, the right default for
    /// thousands of mostly-idle tenants: no idle worker threads).
    pub pipeline: Option<PipelineConfig>,
    /// Journal capacity (events retained) per tenant telemetry sink.
    pub journal_capacity: usize,
}

impl FleetConfig {
    /// Defaults protecting `dir` in every tenant: a modest 4 MiB shadow
    /// budget per tenant (the per-tenant working set is bounded by
    /// detection latency, not corpus size), inline analysis, and a small
    /// per-tenant journal.
    pub fn protecting(dir: impl Into<VPath>) -> Self {
        Self {
            base: Config::protecting(dir),
            shadow: ShadowConfig::with_budget(4 * 1024 * 1024),
            pipeline: None,
            journal_capacity: 4096,
        }
    }
}

/// One monitored namespace: a detector [`Session`] attached to a
/// namespaced [`Vfs`] sharing the fleet corpus.
pub struct Tenant {
    id: u32,
    name: String,
    fs: Vfs,
    session: Session,
    telemetry: Telemetry,
    suspended: bool,
}

impl Tenant {
    /// The fleet-assigned tenant id (also the VFS namespace).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The tenant's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's filesystem. Drive workloads through
    /// [`fs_mut`](Self::fs_mut); the attached filter scores every
    /// operation.
    pub fn fs(&self) -> &Vfs {
        &self.fs
    }

    /// Mutable access to the tenant's filesystem.
    pub fn fs_mut(&mut self) -> &mut Vfs {
        &mut self.fs
    }

    /// The tenant's detector session (derefs to
    /// [`Monitor`](cryptodrop::Monitor) for score/detection reads).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The session and the filesystem together — for calls like
    /// [`Session::reconcile_and_restore`] that need both at once.
    pub fn session_and_fs(&mut self) -> (&Session, &mut Vfs) {
        (&self.session, &mut self.fs)
    }

    /// The tenant's telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether the fleet has administratively suspended this tenant.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// Drives a [`Workload`](cryptodrop_vfs::Workload) — an attack
    /// sample, an evasive strategy, or a benign application — inside this
    /// tenant's namespace, spawning its pid plan and returning what the
    /// workload reported.
    pub fn drive_workload(
        &mut self,
        workload: &dyn cryptodrop_vfs::Workload,
        root: &VPath,
        seed: u64,
    ) -> cryptodrop_vfs::WorkloadOutcome {
        cryptodrop_vfs::drive_workload(&mut self.fs, workload, root, seed)
    }
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("suspended", &self.suspended)
            .field("files", &self.fs.file_count())
            .finish()
    }
}

/// Why a [`Fleet`] operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// No tenant with this id.
    UnknownTenant(u32),
    /// No tenant with this name.
    UnknownName(String),
    /// A tenant with this name already exists.
    DuplicateName(String),
    /// The tenant is administratively suspended.
    Suspended(u32),
    /// The tenant's engine configuration failed validation.
    Config(ConfigError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant(id) => write!(f, "no tenant with id {id}"),
            Self::UnknownName(name) => write!(f, "no tenant named {name:?}"),
            Self::DuplicateName(name) => write!(f, "tenant name {name:?} already in use"),
            Self::Suspended(id) => write!(f, "tenant {id} is suspended"),
            Self::Config(e) => write!(f, "tenant config rejected: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for FleetError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// A point-in-time summary of the fleet, for dashboards and the admin
/// plane's `stats` method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Active tenants.
    pub tenants: usize,
    /// Of those, administratively suspended.
    pub suspended: usize,
    /// Tenants ever spawned.
    pub spawned: u64,
    /// Tenants despawned.
    pub despawned: u64,
    /// Unique corpus bytes resident (shared across all tenants).
    pub corpus_bytes: u64,
    /// Staged corpus files.
    pub corpus_files: usize,
    /// Bytes tenants have privately materialized by writing (summed).
    pub private_bytes: u64,
    /// Logical bytes tenants still share with the corpus (summed over
    /// tenants — the memory this sharing avoids materializing).
    pub shared_logical_bytes: u64,
    /// Detections across all tenants.
    pub detections: u64,
}

/// The multiplexer: every tenant's detector and filesystem, the shared
/// corpus, and the rollup/export surface. See the [crate docs](crate).
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    corpus: SharedCorpus,
    tenants: BTreeMap<u32, Tenant>,
    by_name: HashMap<String, u32>,
    // Namespace 0 is the Vfs default; tenant ids start at 1 so every
    // tenant gets a nonzero namespace.
    next_id: u32,
    spawned: u64,
    despawned: u64,
}

impl Fleet {
    /// An empty fleet with the given defaults.
    pub fn new(cfg: FleetConfig) -> Self {
        Self {
            cfg,
            corpus: SharedCorpus::new(),
            tenants: BTreeMap::new(),
            by_name: HashMap::new(),
            next_id: 1,
            spawned: 0,
            despawned: 0,
        }
    }

    /// The fleet defaults.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The shared corpus.
    pub fn corpus(&self) -> &SharedCorpus {
        &self.corpus
    }

    /// Stages a corpus file and mounts it into every *existing* tenant
    /// (new tenants mount the whole corpus at spawn). Returns whether the
    /// bytes were already resident.
    pub fn stage_file(&mut self, path: VPath, data: Vec<u8>) -> bool {
        let dedup_hit = self.corpus.stage(path.clone(), data);
        if let Some((_, content)) = self.corpus.files.iter().find(|(p, _)| *p == path) {
            for tenant in self.tenants.values_mut() {
                let _ = tenant.fs.admin().stage_shared(&path, content);
            }
        }
        dedup_hit
    }

    /// Spawns a tenant: a fresh namespaced [`Vfs`] with the corpus
    /// mounted copy-on-write, and a detector [`Session`] built from the
    /// fleet defaults plus `spec`'s overrides, attached and scoring.
    pub fn spawn(&mut self, spec: TenantSpec) -> Result<u32, FleetError> {
        let id = self.next_id;
        let name = if spec.name.is_empty() {
            format!("tenant-{id}")
        } else {
            spec.name
        };
        if self.by_name.contains_key(&name) {
            return Err(FleetError::DuplicateName(name));
        }

        let telemetry = if spec.quiet {
            Telemetry::disabled()
        } else {
            Telemetry::new(self.cfg.journal_capacity)
        };
        let config = spec.config.unwrap_or_else(|| self.cfg.base.clone());
        let shadow = spec.shadow.unwrap_or_else(|| self.cfg.shadow.clone());
        let mut builder = CryptoDrop::builder()
            .config(config)
            .telemetry(telemetry.clone())
            .recovery(shadow);
        if let Some(pcfg) = spec.pipeline.or(self.cfg.pipeline) {
            builder = builder.pipeline_config(pcfg);
        }
        if let Some(plan) = spec.faults {
            builder = builder.faults(plan);
        }
        if spec.deterministic_clock {
            builder = builder.deterministic_clock();
        }
        let session = builder.build()?;

        let mut fs = Vfs::with_namespace(id);
        fs.set_telemetry(telemetry.clone());
        // Mount before attaching: corpus staging is administrative
        // provisioning, not tenant activity, and must not score.
        self.corpus.mount_into(&mut fs);
        session.attach(&mut fs);

        self.next_id += 1;
        self.spawned += 1;
        self.by_name.insert(name.clone(), id);
        self.tenants.insert(
            id,
            Tenant {
                id,
                name,
                fs,
                session,
                telemetry,
                suspended: false,
            },
        );
        Ok(id)
    }

    /// The tenant with this id.
    pub fn get(&self, id: u32) -> Option<&Tenant> {
        self.tenants.get(&id)
    }

    /// Mutable access to the tenant with this id.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Tenant> {
        self.tenants.get_mut(&id)
    }

    /// Resolves a tenant name to its id.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Active tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<u32> {
        self.tenants.keys().copied().collect()
    }

    /// Iterates over active tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// Number of active tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Administratively suspends a tenant: drains its pipeline so every
    /// in-flight verdict lands, then marks it suspended. Fleet-level
    /// mutating operations ([`restore`](Self::restore)) refuse suspended
    /// tenants; direct [`fs_mut`](Tenant::fs_mut) access is the caller's
    /// own responsibility.
    pub fn suspend(&mut self, id: u32) -> Result<(), FleetError> {
        let t = self.tenants.get_mut(&id).ok_or(FleetError::UnknownTenant(id))?;
        t.session.drain();
        t.suspended = true;
        Ok(())
    }

    /// Lifts an administrative suspension.
    pub fn resume(&mut self, id: u32) -> Result<(), FleetError> {
        let t = self.tenants.get_mut(&id).ok_or(FleetError::UnknownTenant(id))?;
        t.suspended = false;
        Ok(())
    }

    /// Removes a tenant, shutting its session down drain-first (every
    /// queued record is analyzed before the workers exit), and returns
    /// the tenant's final pipeline counters for the fleet's books.
    pub fn despawn(&mut self, id: u32) -> Result<PipelineStats, FleetError> {
        let tenant = self.tenants.remove(&id).ok_or(FleetError::UnknownTenant(id))?;
        self.by_name.remove(&tenant.name);
        self.despawned += 1;
        Ok(tenant.session.shutdown())
    }

    /// Reconciles pending detections into suspensions and rolls every
    /// detected family back from the tenant's shadow store (see
    /// [`Session::reconcile_and_restore`]). One report per detected
    /// family.
    pub fn restore(&mut self, id: u32) -> Result<Vec<RecoveryReport>, FleetError> {
        let t = self.tenants.get_mut(&id).ok_or(FleetError::UnknownTenant(id))?;
        if t.suspended {
            return Err(FleetError::Suspended(id));
        }
        Ok(t.session.reconcile_and_restore(&mut t.fs))
    }

    /// Merges every tenant's metric registry into one fleet-wide
    /// snapshot (counters and gauges sum by name, histograms pool —
    /// see [`MetricsSnapshot::merge`]).
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for t in self.tenants.values() {
            out.merge(&t.telemetry.metrics().snapshot());
        }
        out
    }

    /// Exports every tenant's journal as JSONL with `"tenant"` (id) and
    /// `"name"` tags spliced into each event line — one fleet-wide
    /// timeline grouped by tenant, in per-tenant sequence order.
    pub fn tagged_journal(&self) -> String {
        let mut out = String::new();
        for (id, t) in &self.tenants {
            let jsonl = t.telemetry.journal().to_jsonl();
            for line in jsonl.lines() {
                let Some(rest) = line.strip_prefix('{') else {
                    continue;
                };
                out.push_str(&format!("{{\"tenant\":{id},\"name\":"));
                rpc::write_str(&t.name, &mut out);
                if rest == "}" {
                    out.push('}');
                } else {
                    out.push(',');
                    out.push_str(rest);
                }
                out.push('\n');
            }
        }
        out
    }

    /// A point-in-time fleet summary.
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            tenants: self.tenants.len(),
            spawned: self.spawned,
            despawned: self.despawned,
            corpus_bytes: self.corpus.bytes_held(),
            corpus_files: self.corpus.file_count(),
            ..FleetStats::default()
        };
        for t in self.tenants.values() {
            if t.suspended {
                s.suspended += 1;
            }
            s.private_bytes += t.fs.private_bytes();
            s.shared_logical_bytes += t.fs.shared_bytes();
            s.detections += t.session.detections().len() as u64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_vfs::OpenOptions;

    fn docs() -> VPath {
        VPath::new("/docs")
    }

    fn fleet_with_corpus(files: usize) -> Fleet {
        let mut fleet = Fleet::new(FleetConfig::protecting(docs().as_str()));
        for i in 0..files {
            let body: Vec<u8> = (0..40u32)
                .flat_map(|l| format!("file {i} line {l}: steady prose content\n").into_bytes())
                .collect();
            fleet.stage_file(docs().join(format!("doc-{i}.txt")), body);
        }
        fleet
    }

    /// In-place xor encryption of every corpus file — the canonical
    /// ransomware-shaped workload from the core tests.
    fn encrypt_all(fs: &mut Vfs, pid: cryptodrop_vfs::ProcessId, files: usize) {
        for i in 0..files {
            let path = docs().join(format!("doc-{i}.txt"));
            let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
                break;
            };
            let Ok(data) = fs.read_to_end(pid, h) else {
                break;
            };
            let ct: Vec<u8> = data
                .iter()
                .enumerate()
                .map(|(j, b)| b ^ (j as u8).wrapping_mul(197).wrapping_add(91))
                .collect();
            if fs.seek(pid, h, 0).is_err() || fs.write(pid, h, &ct).is_err() {
                let _ = fs.close(pid, h);
                break;
            }
            if fs.close(pid, h).is_err() {
                break;
            }
        }
    }

    #[test]
    fn corpus_is_resident_once_across_tenants() {
        let mut fleet = fleet_with_corpus(20);
        let corpus_bytes = fleet.corpus().bytes_held();
        assert!(corpus_bytes > 0);
        for _ in 0..10 {
            fleet.spawn(TenantSpec::default()).unwrap();
        }
        let stats = fleet.stats();
        assert_eq!(stats.tenants, 10);
        assert_eq!(stats.corpus_bytes, corpus_bytes, "no per-tenant copies");
        assert_eq!(stats.private_bytes, 0, "nothing materialized yet");
        assert_eq!(stats.shared_logical_bytes, 10 * corpus_bytes);
        // Tenant names auto-generate and resolve.
        assert_eq!(fleet.id_of("tenant-1"), Some(1));
    }

    #[test]
    fn a_writing_tenant_materializes_only_its_own_copy() {
        let mut fleet = fleet_with_corpus(5);
        let a = fleet.spawn(TenantSpec::named("writer")).unwrap();
        let b = fleet.spawn(TenantSpec::named("reader")).unwrap();

        let path = docs().join("doc-0.txt");
        let original = fleet.get_mut(b).unwrap().fs_mut().admin().read_file(&path).unwrap();

        let t = fleet.get_mut(a).unwrap();
        let pid = t.fs_mut().spawn_process("editor.exe");
        let h = t.fs_mut().open(pid, &path, OpenOptions::modify()).unwrap();
        t.fs_mut().write(pid, h, b"edited").unwrap();
        t.fs_mut().close(pid, h).unwrap();

        assert!(fleet.get(a).unwrap().fs().private_bytes() > 0);
        assert_eq!(fleet.get(b).unwrap().fs().private_bytes(), 0);
        assert_eq!(
            fleet.get_mut(b).unwrap().fs_mut().admin().read_file(&path).unwrap(),
            original,
            "the other tenant's view is untouched"
        );
    }

    #[test]
    fn detection_and_restore_are_per_tenant() {
        let files = 30;
        let mut fleet = fleet_with_corpus(files);
        let victim = fleet.spawn(TenantSpec::named("victim")).unwrap();
        let bystander = fleet.spawn(TenantSpec::named("bystander")).unwrap();

        let originals: Vec<Vec<u8>> = (0..files)
            .map(|i| {
                fleet
                    .get_mut(victim)
                    .unwrap()
                    .fs_mut()
                    .admin()
                    .read_file(&docs().join(format!("doc-{i}.txt")))
                    .unwrap()
            })
            .collect();

        let t = fleet.get_mut(victim).unwrap();
        let pid = t.fs_mut().spawn_process("cryptolocker.exe");
        encrypt_all(t.fs_mut(), pid, files);
        assert!(t.fs().is_suspended(pid), "the attacker is dropped");
        assert_eq!(t.session().detections().len(), 1);

        let reports = fleet.restore(victim).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].files_restored > 0);
        for (i, original) in originals.iter().enumerate() {
            let path = docs().join(format!("doc-{i}.txt"));
            assert_eq!(
                &fleet.get_mut(victim).unwrap().fs_mut().admin().read_file(&path).unwrap(),
                original,
                "doc-{i} restored"
            );
        }
        let b = fleet.get(bystander).unwrap();
        assert!(b.session().detections().is_empty(), "no cross-tenant bleed");
        assert_eq!(b.fs().private_bytes(), 0);
    }

    #[test]
    fn rollup_sums_across_tenants_and_journal_is_tagged() {
        let mut fleet = fleet_with_corpus(10);
        let a = fleet.spawn(TenantSpec::named("a")).unwrap();
        let b = fleet.spawn(TenantSpec::named("b")).unwrap();
        for id in [a, b] {
            let t = fleet.get_mut(id).unwrap();
            let pid = t.fs_mut().spawn_process("app.exe");
            encrypt_all(t.fs_mut(), pid, 10);
        }
        let rollup = fleet.rollup();
        let per_tenant: u64 = fleet
            .tenants()
            .map(|t| {
                t.telemetry()
                    .metrics()
                    .snapshot()
                    .counters
                    .get("recovery.shadow.captures")
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert!(per_tenant > 0, "attacks must capture shadows");
        assert_eq!(rollup.counters["recovery.shadow.captures"], per_tenant);

        let journal = fleet.tagged_journal();
        assert!(!journal.is_empty());
        for line in journal.lines() {
            let v = rpc::parse(line).expect("tagged lines stay valid JSON");
            let tenant = v.get("tenant").and_then(|t| t.as_u64()).unwrap();
            assert!(tenant == u64::from(a) || tenant == u64::from(b));
            assert!(v.get("name").is_some());
            assert!(v.get("kind").is_some(), "original event fields survive");
        }
    }

    #[test]
    fn lifecycle_suspend_despawn_and_errors() {
        let mut fleet = fleet_with_corpus(3);
        let id = fleet.spawn(TenantSpec::named("solo")).unwrap();
        assert_eq!(
            fleet.spawn(TenantSpec::named("solo")),
            Err(FleetError::DuplicateName("solo".to_string()))
        );

        fleet.suspend(id).unwrap();
        assert!(fleet.get(id).unwrap().is_suspended());
        assert_eq!(fleet.restore(id), Err(FleetError::Suspended(id)));
        fleet.resume(id).unwrap();
        assert!(fleet.restore(id).unwrap().is_empty(), "nothing detected");

        let stats = fleet.despawn(id).unwrap();
        assert_eq!(stats, PipelineStats::default(), "inline tenant: zero stats");
        assert!(fleet.is_empty());
        assert_eq!(fleet.id_of("solo"), None);
        assert_eq!(fleet.despawn(id), Err(FleetError::UnknownTenant(id)));
        assert_eq!(fleet.restore(99), Err(FleetError::UnknownTenant(99)));

        // The name is free again and ids never recycle.
        let id2 = fleet.spawn(TenantSpec::named("solo")).unwrap();
        assert!(id2 > id);
        let s = fleet.stats();
        assert_eq!((s.spawned, s.despawned, s.tenants), (2, 1, 1));
    }

    #[test]
    fn pipelined_tenant_reports_final_stats_on_despawn() {
        let mut fleet = fleet_with_corpus(10);
        let id = fleet
            .spawn(TenantSpec::named("piped").pipelined(PipelineConfig::default()))
            .unwrap();
        let t = fleet.get_mut(id).unwrap();
        let pid = t.fs_mut().spawn_process("app.exe");
        encrypt_all(t.fs_mut(), pid, 10);
        let stats = fleet.despawn(id).unwrap();
        assert!(stats.enqueued > 0, "pipelined analysis went through queues");
        // Degraded submissions never enter a queue: the books balance on
        // queued records alone.
        assert_eq!(stats.enqueued, stats.processed);
    }

    #[test]
    fn corpus_dedup_and_restage() {
        let mut corpus = SharedCorpus::new();
        assert!(corpus.is_empty());
        assert!(!corpus.stage(VPath::new("/docs/a"), b"same bytes".to_vec()));
        assert!(corpus.stage(VPath::new("/docs/b"), b"same bytes".to_vec()));
        assert_eq!(corpus.bytes_held(), 10, "identical content resident once");
        assert_eq!(corpus.logical_bytes(), 20);
        assert_eq!(corpus.file_count(), 2);
        // Restaging a path replaces its content and releases the old ref.
        corpus.stage(VPath::new("/docs/a"), b"fresh".to_vec());
        assert_eq!(corpus.file_count(), 2);
        assert_eq!(corpus.logical_bytes(), 15);
        assert_eq!(corpus.bytes_held(), 15, "old blob still referenced by /docs/b");
        corpus.stage(VPath::new("/docs/b"), b"fresh".to_vec());
        assert_eq!(corpus.bytes_held(), 5, "last reference released the old blob");
    }

    #[test]
    fn late_staged_files_reach_existing_tenants() {
        let mut fleet = fleet_with_corpus(2);
        let id = fleet.spawn(TenantSpec::default()).unwrap();
        fleet.stage_file(docs().join("late.txt"), b"added after spawn".to_vec());
        assert_eq!(
            fleet
                .get_mut(id)
                .unwrap()
                .fs_mut()
                .admin()
                .read_file(&docs().join("late.txt"))
                .unwrap(),
            b"added after spawn"
        );
    }
}
