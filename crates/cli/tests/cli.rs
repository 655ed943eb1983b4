//! In-process checks of the `purposectl` argument surface and metric
//! exports, driven through the public [`purposectl::run`] entry point.

use std::path::PathBuf;

const ORDER: &str = "\
process order_fulfillment
pool Clerk
  start Start
  task Receive
  task Pick
  task Ship
  end Done
flows
  Start -> Receive -> Pick -> Ship -> Done
";

fn argv(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn write_temp(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir()
        .join("purposectl-cli-tests")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

/// Every `--flag <value>` the usage text documents.
fn documented_value_flags() -> Vec<String> {
    let mut usage = Vec::new();
    purposectl::run(&argv(&["help"]), &mut usage).unwrap();
    let usage = String::from_utf8(usage).unwrap();
    let mut flags: Vec<String> = usage
        .split_whitespace()
        .zip(usage.split_whitespace().skip(1))
        .filter(|(_, next)| next.starts_with('<'))
        .filter_map(|(flag, _)| flag.trim_start_matches('[').strip_prefix("--"))
        .map(|name| format!("--{name}"))
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

#[test]
fn every_value_flag_without_a_value_is_a_usage_error() {
    let flags = documented_value_flags();
    assert!(flags.len() > 30, "usage lists only {flags:?}");
    for flag in &flags {
        // Given last, or followed by another flag: a usage error naming the
        // flag, never a silent fall back to the default.
        for args in [vec!["stats", flag], vec!["stats", flag, "--verbose"]] {
            let mut out = Vec::new();
            let err = purposectl::run(&argv(&args), &mut out)
                .err()
                .unwrap_or_else(|| panic!("{args:?} ran although {flag} has no value"));
            assert_eq!(err.exit_code, 2, "{args:?}");
            assert!(
                err.message.contains(&format!("{flag}: missing value")),
                "{args:?}: {}",
                err.message
            );
        }
        // With a value the flag parses (the command may still fail later).
        let mut out = Vec::new();
        if let Err(e) = purposectl::run(&argv(&["stats", flag, "7"]), &mut out) {
            assert!(
                !e.message.contains("missing value"),
                "{flag}: {}",
                e.message
            );
        }
    }
    // The case from the field: `--threads --policy p` no longer audits on
    // the default single thread.
    let mut out = Vec::new();
    let err = purposectl::run(
        &argv(&["audit", "--trail", "t", "--threads", "--policy", "p"]),
        &mut out,
    )
    .unwrap_err();
    assert!(err.message.contains("--threads"), "{}", err.message);
    // Switches never swallow the next argument.
    let p = write_temp("order.bpmn", ORDER);
    let mut out = Vec::new();
    assert_eq!(
        purposectl::run(&argv(&["validate", "--verbose", &p]), &mut out).unwrap(),
        0
    );
}

#[test]
fn watch_exports_the_same_cache_counters_as_audit() {
    let p = write_temp("order_dup.bpmn", ORDER);
    // Ten cases walking the same path: every case after the first steps
    // through transitions the shared replay trie already holds.
    let mut trail = String::new();
    for case in 1..=10 {
        for (i, task) in ["Receive", "Pick", "Ship"].iter().enumerate() {
            trail.push_str(&format!(
                "carol Clerk read [A]Order {task} ORD-{case} 2026070609{:02} success\n",
                case * 3 + i
            ));
        }
    }
    let t = write_temp("order_dup.trail", &trail);
    let mut exports: Vec<obs::JsonValue> = Vec::new();
    for command in ["watch", "audit"] {
        let metrics = write_temp(&format!("{command}.metrics.json"), "");
        let mut args = vec![command.to_string()];
        if command == "audit" {
            args.push("--trail".into());
        }
        args.extend(argv(&[
            &t,
            "--process",
            &format!("fulfillment={p}"),
            "--map",
            "ORD-=fulfillment",
            "--no-automaton-cache",
            "--metrics-out",
            &metrics,
        ]));
        let mut out = Vec::new();
        let code = purposectl::run(&args, &mut out).unwrap();
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        exports.push(obs::parse_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap());
    }
    let schema_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas");
    let schema =
        obs::parse_json(&std::fs::read_to_string(schema_path.join("metrics.schema.json")).unwrap())
            .unwrap();
    let counters = |doc: &obs::JsonValue| -> Vec<String> {
        let Some(obs::JsonValue::Object(fields)) = doc.get("counters") else {
            panic!("no counters object");
        };
        fields
            .keys()
            .filter(|n| n.starts_with("trie_") || n.starts_with("automaton_"))
            .cloned()
            .collect()
    };
    let (watch, audit) = (&exports[0], &exports[1]);
    assert_eq!(counters(watch), counters(audit));
    let trie_hits = watch
        .get("counters")
        .and_then(|c| c.get("trie_hits"))
        .and_then(|v| v.as_f64())
        .expect("watch exports trie_hits");
    assert!(trie_hits > 0.0, "the shared trie served nothing");
    let errors = obs::validate(watch, &schema);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}
