//! Seeded inputs: every workload is written out as the files a user would
//! hand to `purposectl` (trail, process models, policy), using the
//! repository's own generators and formatters. The program never sees the
//! seed, only these files and the HTTP traffic cut from them.

use audit::codec::{format_trail, parse_trail};
use audit::entry::LogEntry;
use audit::trail::AuditTrail;
use bpmn::encode::encode;
use bpmn::models::{clinical_trial, healthcare_treatment};
use bpmn::parse::{format_process, parse_process};
use bpmn::ProcessModel;
use cows::symbol::sym;
use policy::parse::{format_policy, parse_policy};
use policy::samples::{extended_hospital_policy, hospital_roles};
use policy::PolicyContext;
use purpose_control::auditor::{Auditor, ProcessRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workload::attacks::Injection;
use workload::dupheavy::{generate_dupheavy_with, DupHeavyConfig};
use workload::hospital::{generate_day, HospitalConfig};
use workload::simulate::{simulate_case, SimConfig};
use workload::ProcGenConfig;

pub const WORKLOADS: [&str; 3] = ["audit-dupheavy", "audit-gateway", "serve-live"];

/// Generator seeds that fix each workload's day (see `prepare`): 4242
/// makes the dupheavy day the P17 day, 42 the hospital day the 120k-entry
/// day of P12–P16.
const DUPHEAVY_BASE_SEED: u64 = 4242;
const HOSPITAL_BASE_SEED: u64 = 42;
const GATEWAY_PROCESS_SEED: u64 = 17;
const GATEWAY_WALK_SEED: u64 = 42;
const GATEWAY_CASES: usize = 600;
const HOSPITAL_ENTRIES: usize = 120_000;

/// One generated workload, as files plus the flags that name them.
pub struct Workload {
    pub name: &'static str,
    pub dir: PathBuf,
    pub trail_path: PathBuf,
    /// An empty trail beside the real one: the set-up probe.
    pub empty_trail_path: PathBuf,
    pub policy_path: PathBuf,
    /// `(purpose, process spec)`; a spec is a file path or `@builtin`.
    pub processes: Vec<(String, String)>,
    /// `(case-name prefix, purpose)`.
    pub maps: Vec<(String, String)>,
    /// Whether `audit` runs with its own `--automaton-cache` directory,
    /// emptied before every measured run (a cold start that saves the
    /// snapshot the set-up probe then loads).
    pub cold_cache: bool,
    pub trail: AuditTrail,
    pub cases: usize,
    pub peak_concurrency: usize,
    pub why: &'static str,
}

impl Workload {
    pub fn entries(&self) -> usize {
        self.trail.len()
    }

    pub fn cache_dir(&self) -> PathBuf {
        self.dir.join("automaton-cache")
    }

    /// `--process`, `--map` and `--policy` flags shared by `audit` and `serve`.
    pub fn catalog_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        for (purpose, spec) in &self.processes {
            args.push("--process".to_string());
            args.push(format!("{purpose}={spec}"));
        }
        for (prefix, purpose) in &self.maps {
            args.push("--map".to_string());
            args.push(format!("{prefix}={purpose}"));
        }
        args.push("--policy".to_string());
        args.push(self.policy_path.display().to_string());
        args
    }

    /// The auditor `purposectl` builds from these flags (same registry,
    /// prefix rules, policy and role hierarchy), for the in-process layers.
    pub fn auditor(&self) -> Result<Auditor, String> {
        let mut registry = ProcessRegistry::new();
        for (purpose, spec) in &self.processes {
            registry.register(purpose.as_str(), load_process(spec)?);
        }
        for (prefix, purpose) in &self.maps {
            registry.add_case_prefix(prefix, purpose.as_str());
        }
        let text = std::fs::read_to_string(&self.policy_path)
            .map_err(|e| format!("{}: {e}", self.policy_path.display()))?;
        let policy = parse_policy(&text).map_err(|e| format!("policy: {e}"))?;
        Ok(Auditor::new(
            registry,
            policy,
            PolicyContext::new(hospital_roles()),
        ))
    }
}

pub fn load_process(spec: &str) -> Result<ProcessModel, String> {
    match spec {
        "@healthcare_treatment" => Ok(healthcare_treatment()),
        "@clinical_trial" => Ok(clinical_trial()),
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_process(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// The shape of the gateway-rich process (AND/OR/loop blocks).
pub fn gateway_shape() -> ProcGenConfig {
    ProcGenConfig {
        target_tasks: 20,
        xor_prob: 0.2,
        and_prob: 0.3,
        or_prob: 0.15,
        loop_prob: 0.2,
        max_branch: 3,
        max_depth: 4,
    }
}

/// Generate the files of `name` for `seed` under `work`.
///
/// Each workload's day is fixed by its definition: a base day from a fixed
/// generator seed, generated once per build and cached (the generators
/// insert each entry in time order into one growing trail, so a day costs
/// time quadratic in its entries). `seed` draws which of its cases get a
/// `workload::attacks` deviation, and which.
pub fn prepare(name: &str, seed: u64, work: &Path, stamp: &str) -> Result<Workload, String> {
    let name: &'static str = WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS.join(", ")
        )
    })?;
    let dir = work.join(format!("{name}-{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: &str, text: &str| -> Result<PathBuf, String> {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    };
    let spec = |path: PathBuf| path.display().to_string();
    let base =
        |make: &dyn Fn() -> AuditTrail| cached(&work.join(format!("{name}-base.txt")), stamp, make);

    let (trail, processes, maps, policy, cold_cache, why) = match name {
        "audit-dupheavy" => {
            let cfg = DupHeavyConfig {
                cases: 4_000,
                archetypes: 4,
                duplicate_fraction: 0.92,
                deviant_fraction: 0.02,
                error_prob: 0.1,
            };
            let day = base(&|| {
                generate_dupheavy_with(&cfg, DUPHEAVY_BASE_SEED, &encode(&healthcare_treatment()))
                    .trail
            })?;
            (
                deviate(&day, seed, 0.02),
                vec![("treatment".to_string(), "@healthcare_treatment".to_string())],
                vec![("DH-".to_string(), "treatment".to_string())],
                format_policy(&extended_hospital_policy()),
                false,
                "many short template-shaped cases sharing most of their work: case grouping, \
                 parse and the preventive check dominate, automaton expansion is negligible",
            )
        }
        "audit-gateway" => {
            let model = workload::procgen::generate(&gateway_shape(), GATEWAY_PROCESS_SEED);
            let path = write("gateway.bpmn", &format_process(&model))?;
            let day = base(&|| gateway_walks(&model))?;
            (
                deviate(&day, seed, 0.04),
                vec![("gateway".to_string(), spec(path))],
                vec![("GW-".to_string(), "gateway".to_string())],
                "allow role:Worker read [*]EPR/Clinical for gateway\n\
                 allow role:Worker write [*]EPR/Clinical for gateway\n"
                    .to_string(),
                true,
                "few cases of one gateway-rich process from a cold automaton cache: replay and \
                 state expansion dominate, grouping is trivial, the snapshot codec is on set-up",
            )
        }
        _ => {
            let day = base(&|| {
                let cfg = HospitalConfig {
                    target_entries: HOSPITAL_ENTRIES,
                    ..HospitalConfig::default()
                };
                generate_day(&cfg, HOSPITAL_BASE_SEED).trail
            })?;
            (
                deviate(&day, seed, 0.02),
                vec![
                    ("treatment".to_string(), "@healthcare_treatment".to_string()),
                    ("clinicaltrial".to_string(), "@clinical_trial".to_string()),
                ],
                vec![
                    ("HT-".to_string(), "treatment".to_string()),
                    ("CT-".to_string(), "clinicaltrial".to_string()),
                ],
                format_policy(&extended_hospital_policy()),
                false,
                "the interleaved hospital day fed entry by entry into live sessions with \
                 eviction and rehydration, behind the HTTP front, admission and queue",
            )
        }
    };
    // The chronological trail is also the interleaved arrival stream:
    // `workload::stream::interleave` is a stable sort by time.
    let trail_path = write("trail.txt", &format_trail(&trail))?;
    let empty_trail_path = write("empty.txt", "")?;
    let policy_path = write("policy.txt", &policy)?;
    let cases = trail.cases().len();
    let peak_concurrency = workload::stream::peak_concurrency(trail.entries());
    Ok(Workload {
        name,
        dir,
        trail_path,
        empty_trail_path,
        policy_path,
        processes,
        maps,
        cold_cache,
        trail,
        cases,
        peak_concurrency,
        why,
    })
}

/// The trail in `path` if the same build (`stamp`) wrote it, else `make()`
/// written there.
fn cached(path: &Path, stamp: &str, make: &dyn Fn() -> AuditTrail) -> Result<AuditTrail, String> {
    let stamp_path = path.with_extension("stamp");
    if std::fs::read_to_string(&stamp_path).is_ok_and(|s| s == stamp) {
        if let Some(trail) = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| parse_trail(&t).ok())
        {
            return Ok(trail);
        }
    }
    let trail = make();
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::write(path, format_trail(&trail)).map_err(io)?;
    std::fs::write(&stamp_path, stamp).map_err(io)?;
    Ok(trail)
}

/// Give a seeded `fraction` of `day`'s cases one `workload::attacks`
/// deviation each (a skipped task or an entry under a wrong role), keeping
/// every other entry where it was.
fn deviate(day: &AuditTrail, seed: u64, fraction: f64) -> AuditTrail {
    let mut rng = StdRng::seed_from_u64(seed);
    // Keyed by name: symbol ids follow interning order, which differs
    // between a freshly generated day and one parsed back from the cache.
    let mut by_case: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in day.iter().enumerate() {
        by_case.entry(e.case.as_str()).or_default().push(i);
    }
    let mut entries: Vec<Option<LogEntry>> = day.iter().cloned().map(Some).collect();
    for indices in by_case.values() {
        if !rng.gen_bool(fraction) {
            continue;
        }
        let mut case: Vec<LogEntry> = indices.iter().map(|&i| day.entries()[i].clone()).collect();
        let injected = match rng.gen_range(0..2) {
            0 => workload::attacks::skip_task(&mut case, &mut rng),
            _ => workload::attacks::wrong_role(&mut case, &mut rng),
        };
        match injected {
            Injection::SkippedTask { task } => {
                for &i in indices {
                    if day.entries()[i].task == task {
                        entries[i] = None;
                    }
                }
            }
            Injection::WrongRole { index, .. } => {
                entries[indices[index]] = Some(case[index].clone())
            }
            _ => {}
        }
    }
    AuditTrail::from_entries(entries.into_iter().flatten().collect())
}

/// The gateway day: cases walked over the gateway process, staggered
/// over a day.
fn gateway_walks(model: &ProcessModel) -> AuditTrail {
    let encoded = encode(model);
    let mut rng = StdRng::seed_from_u64(GATEWAY_WALK_SEED);
    let day_start: audit::Timestamp = "201007060000".parse().expect("valid literal");
    let mut entries = Vec::new();
    for i in 1..=GATEWAY_CASES {
        let mut sim = SimConfig::new(sym(&format!("Patient{:04}", rng.gen_range(0..8000))));
        sim.start = day_start.plus_minutes(rng.gen_range(0..1440));
        sim.step_minutes = rng.gen_range(1..=5);
        entries.extend(simulate_case(
            &encoded,
            sym(&format!("GW-{i}")),
            &sim,
            &mut rng,
        ));
    }
    AuditTrail::from_entries(entries)
}
