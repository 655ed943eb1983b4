//! Hospital-scale workload (the §1 motivation).
//!
//! "At the Geneva University Hospitals, more than 20,000 records are opened
//! every day … it would be infeasible to verify every data usage manually."
//! [`generate_day`] synthesizes a day of hospital activity at that scale:
//! healthcare-treatment and clinical-trial cases with realistic per-task
//! action profiles, a configurable fraction of injected infringements, and
//! ground truth for measuring detection.

use crate::attacks::{self, Injection};
use crate::simulate::{simulate_case, ObjectTemplate, SimConfig, TaskProfiles};
use audit::entry::LogEntry;
use audit::time::Timestamp;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::{sym, Symbol};
use policy::statement::Action;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Day-model parameters.
#[derive(Clone, Debug)]
pub struct HospitalConfig {
    /// Target number of log entries ("record opens") for the day.
    pub target_entries: usize,
    /// Fraction of clinical-trial (vs treatment) cases.
    pub trial_fraction: f64,
    /// Fraction of cases that receive an injected infringement.
    pub attack_fraction: f64,
    /// Probability a treatment case follows an error branch.
    pub error_prob: f64,
}

impl Default for HospitalConfig {
    /// The paper's scale: 20,000 record opens in a day.
    fn default() -> Self {
        HospitalConfig {
            target_entries: 20_000,
            trial_fraction: 0.05,
            attack_fraction: 0.02,
            error_prob: 0.1,
        }
    }
}

/// What actually happened in a generated case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseTruth {
    pub purpose: Symbol,
    /// `None` → the case's *process* is compliant.
    pub injected: Option<Injection>,
    /// A clinical-trial case whose patient never consented: invisible to
    /// Algorithm 1 (the process is followed!) but caught by the preventive
    /// Def. 3 layer — the paper's two mechanisms are complementary (§3.5).
    pub consent_withheld: bool,
}

/// A generated day: the merged trail plus per-case ground truth.
#[derive(Clone, Debug)]
pub struct HospitalDay {
    pub trail: AuditTrail,
    pub truth: HashMap<Symbol, CaseTruth>,
    /// Consents granted during generation: (patient, purpose). Trial
    /// patients consent unless their case is a consent-withheld attack.
    pub consents: Vec<(Symbol, Symbol)>,
}

impl HospitalDay {
    pub fn compliant_cases(&self) -> usize {
        self.truth.values().filter(|t| t.injected.is_none()).count()
    }

    pub fn attacked_cases(&self) -> usize {
        self.truth.values().filter(|t| t.injected.is_some()).count()
    }
}

/// Action/object profiles matching the Fig. 1 tasks (and the Fig. 3
/// policy, so compliant cases also pass the preventive check).
pub fn healthcare_profiles() -> TaskProfiles {
    let mut p = TaskProfiles::new();
    let rw_clinical = vec![
        (Action::Read, ObjectTemplate::SubjectPath("EPR/Clinical")),
        (Action::Write, ObjectTemplate::SubjectPath("EPR/Clinical")),
    ];
    for t in ["T02", "T03", "T05", "T07", "T08", "T09"] {
        p.set(t, rw_clinical.clone());
    }
    p.set(
        "T01",
        vec![
            (Action::Read, ObjectTemplate::SubjectPath("EPR/Clinical")),
            (
                Action::Read,
                ObjectTemplate::SubjectPath("EPR/Demographics"),
            ),
        ],
    );
    p.set(
        "T04",
        vec![(Action::Write, ObjectTemplate::SubjectPath("EPR/Clinical"))],
    );
    // Radiology: check, scan, export.
    p.set(
        "T10",
        vec![(Action::Read, ObjectTemplate::SubjectPath("EPR/Clinical"))],
    );
    p.set(
        "T11",
        vec![(Action::Execute, ObjectTemplate::Plain("ScanSoftware"))],
    );
    p.set(
        "T12",
        vec![(
            Action::Write,
            ObjectTemplate::SubjectPath("EPR/Clinical/Scan"),
        )],
    );
    // Lab: check, exam, export.
    p.set(
        "T13",
        vec![(Action::Read, ObjectTemplate::SubjectPath("EPR/Clinical"))],
    );
    p.set(
        "T14",
        vec![(Action::Execute, ObjectTemplate::Plain("LabAnalyzer"))],
    );
    p.set(
        "T15",
        vec![(
            Action::Write,
            ObjectTemplate::SubjectPath("EPR/Clinical/Tests"),
        )],
    );
    p
}

/// Profiles for the clinical-trial tasks of Fig. 2.
pub fn trial_profiles() -> TaskProfiles {
    let mut p = TaskProfiles::new();
    p.set(
        "T91",
        vec![(
            Action::Write,
            ObjectTemplate::Plain("ClinicalTrial/Criteria"),
        )],
    );
    p.set(
        "T92",
        vec![
            (Action::Read, ObjectTemplate::SubjectPath("EPR")),
            (
                Action::Write,
                ObjectTemplate::Plain("ClinicalTrial/ListOfSelCand"),
            ),
        ],
    );
    p.set(
        "T93",
        vec![(
            Action::Write,
            ObjectTemplate::Plain("ClinicalTrial/ListOfEnrCand"),
        )],
    );
    p.set(
        "T94",
        vec![(
            Action::Write,
            ObjectTemplate::Plain("ClinicalTrial/Measurements"),
        )],
    );
    p.set(
        "T95",
        vec![(
            Action::Write,
            ObjectTemplate::Plain("ClinicalTrial/Results"),
        )],
    );
    p
}

fn patient_name(rng: &mut StdRng) -> Symbol {
    sym(&format!("patient{:05}", rng.gen_range(0..100_000)))
}

/// Generate a day of hospital activity.
pub fn generate_day(cfg: &HospitalConfig, seed: u64) -> HospitalDay {
    let ht_model = healthcare_treatment();
    let ct_model = clinical_trial();
    let ht_encoded = encode(&ht_model);
    let ct_encoded = encode(&ct_model);
    generate_day_with(cfg, seed, &ht_encoded, &ct_encoded)
}

/// As [`generate_day`], reusing pre-encoded processes (for benches that
/// amortize the encoding).
pub fn generate_day_with(
    cfg: &HospitalConfig,
    seed: u64,
    ht_encoded: &Encoded,
    ct_encoded: &Encoded,
) -> HospitalDay {
    let mut entries = Vec::new();
    let (truth, consents) = day_cases(cfg, seed, ht_encoded, ct_encoded, &mut |e| entries.push(e));
    HospitalDay {
        // One stable sort: the same trail as pushing every entry in turn,
        // without the quadratic out-of-order inserts.
        trail: AuditTrail::from_entries(entries),
        truth,
        consents,
    }
}

/// Generate a day case by case, handing every entry to `emit` in
/// generation order; returns each case's ground truth and the recorded
/// consents.
fn day_cases(
    cfg: &HospitalConfig,
    seed: u64,
    ht_encoded: &Encoded,
    ct_encoded: &Encoded,
    emit: &mut dyn FnMut(LogEntry),
) -> (HashMap<Symbol, CaseTruth>, Vec<(Symbol, Symbol)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut truth: HashMap<Symbol, CaseTruth> = HashMap::new();
    let mut consents: Vec<(Symbol, Symbol)> = Vec::new();
    let day_start: Timestamp = "201007060000".parse().expect("valid literal");

    let mut entries_so_far = 0usize;
    let mut case_no = 0usize;
    while entries_so_far < cfg.target_entries {
        case_no += 1;
        let is_trial = rng.gen_bool(cfg.trial_fraction);
        let (purpose, case, encoded, profiles) = if is_trial {
            (
                sym("clinicaltrial"),
                sym(&format!("CT-{case_no}")),
                ct_encoded,
                trial_profiles(),
            )
        } else {
            (
                sym("treatment"),
                sym(&format!("HT-{case_no}")),
                ht_encoded,
                healthcare_profiles(),
            )
        };
        let patient = patient_name(&mut rng);
        // Trial patients consent — unless this case is chosen as a
        // consent-withheld attack below.
        let mut consent_withheld = false;
        if is_trial {
            if rng.gen_bool(cfg.attack_fraction) {
                consent_withheld = true;
            } else {
                consents.push((patient, sym("clinicaltrial")));
            }
        }
        let mut sim = SimConfig::new(patient);
        sim.profiles = profiles;
        sim.error_prob = if is_trial { 0.0 } else { cfg.error_prob };
        // Spread case starts across the day.
        sim.start = day_start.plus_minutes(rng.gen_range(0..1440));
        sim.step_minutes = rng.gen_range(1..=9);
        sim.users = hospital_staff(&mut rng);
        let mut entries = simulate_case(encoded, case, &sim, &mut rng);

        let injected = if rng.gen_bool(cfg.attack_fraction) {
            let inj = match rng.gen_range(0..4) {
                0 => attacks::repurpose(&mut entries, sym("T92")),
                1 => {
                    let task = entries
                        .first()
                        .map(|e| e.task)
                        .unwrap_or_else(|| sym("T06"));
                    attacks::reuse_case(&mut entries, task, &mut rng)
                }
                2 => attacks::skip_task(&mut entries, &mut rng),
                _ => attacks::wrong_role(&mut entries, &mut rng),
            };
            match inj {
                Injection::NotApplicable => None,
                other => Some(other),
            }
        } else {
            None
        };

        entries_so_far += entries.len();
        entries.into_iter().for_each(&mut *emit);
        truth.insert(
            case,
            CaseTruth {
                purpose,
                injected,
                consent_withheld,
            },
        );
    }
    (truth, consents)
}

/// A random staffing for one case: the four Fig. 1 roles plus the trial
/// physician.
fn hospital_staff(rng: &mut StdRng) -> HashMap<Symbol, Symbol> {
    let mut m = HashMap::new();
    let id = rng.gen_range(0..500);
    m.insert(sym("GP"), sym(&format!("gp{id:03}")));
    m.insert(sym("Cardiologist"), sym(&format!("cardio{:03}", id % 50)));
    m.insert(sym("Radiologist"), sym(&format!("radio{:03}", id % 40)));
    m.insert(sym("MedicalLabTech"), sym(&format!("lab{:03}", id % 60)));
    m.insert(sym("Physician"), sym(&format!("cardio{:03}", id % 50)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_day() -> HospitalDay {
        generate_day(
            &HospitalConfig {
                target_entries: 400,
                attack_fraction: 0.2,
                ..HospitalConfig::default()
            },
            7,
        )
    }

    #[test]
    fn sorted_once_equals_pushed_entry_by_entry() {
        let (ht, ct) = (encode(&healthcare_treatment()), encode(&clinical_trial()));
        for (target_entries, seed) in [(1, 3), (400, 7), (2_000, 42)] {
            let cfg = HospitalConfig {
                target_entries,
                attack_fraction: 0.2,
                trial_fraction: 0.3,
                ..HospitalConfig::default()
            };
            let mut pushed = AuditTrail::new();
            day_cases(&cfg, seed, &ht, &ct, &mut |e| pushed.push(e));
            assert_eq!(
                generate_day_with(&cfg, seed, &ht, &ct).trail,
                pushed,
                "{target_entries} entries, seed {seed}"
            );
        }
    }

    #[test]
    fn day_reaches_target_scale() {
        let day = small_day();
        assert!(day.trail.len() >= 400);
        // Case lengths are long-tailed, so a 400-entry day yields only a
        // handful of cases (seed 7 produces 9).
        assert!(day.truth.len() > 5);
        assert!(day.trail.is_chronological());
    }

    #[test]
    fn day_contains_both_purposes() {
        let day = generate_day(
            &HospitalConfig {
                target_entries: 1500,
                trial_fraction: 0.3,
                ..HospitalConfig::default()
            },
            9,
        );
        let purposes: std::collections::HashSet<Symbol> =
            day.truth.values().map(|t| t.purpose).collect();
        assert!(purposes.contains(&sym("treatment")));
        assert!(purposes.contains(&sym("clinicaltrial")));
    }

    #[test]
    fn trial_consents_are_tracked() {
        let day = generate_day(
            &HospitalConfig {
                target_entries: 2_000,
                trial_fraction: 0.4,
                attack_fraction: 0.3,
                ..HospitalConfig::default()
            },
            13,
        );
        let withheld = day.truth.values().filter(|t| t.consent_withheld).count();
        assert!(withheld > 0, "some trial cases must withhold consent");
        assert!(!day.consents.is_empty(), "most trial patients consent");
        // Consent bookkeeping only applies to trial cases.
        for t in day.truth.values() {
            if t.consent_withheld {
                assert_eq!(t.purpose, sym("clinicaltrial"));
            }
        }
    }

    #[test]
    fn attack_fraction_is_roughly_respected() {
        let day = small_day();
        assert!(day.attacked_cases() > 0);
        assert!(day.compliant_cases() > day.attacked_cases());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_day(
            &HospitalConfig {
                target_entries: 300,
                ..HospitalConfig::default()
            },
            3,
        );
        let b = generate_day(
            &HospitalConfig {
                target_entries: 300,
                ..HospitalConfig::default()
            },
            3,
        );
        assert_eq!(a.trail, b.trail);
    }
}
