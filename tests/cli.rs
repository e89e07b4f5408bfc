//! End-to-end tests of the `wfs` CLI binary: gen → stats/dot → schedule →
//! simulate → sweep, through real files and process invocations.

// Test code may panic freely; the tests-only clippy exemption does not reach
// helper fns in integration-test files, so allow at file level.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn wfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfs"))
        .args(args)
        .output()
        .expect("wfs binary runs")
}

/// FNV-1a over bytes, and the byte length, of a written file.
fn file_pin(path: &std::path::Path) -> (u64, usize) {
    let bytes = std::fs::read(path).unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, bytes.len())
}

/// A directory of one test's own, removed with its files when the test
/// ends, whether it passes or panics. The tests of this binary run in one
/// process, so the test's name keeps their directories apart.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("wfs-cli-test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn gen_stats_dot_roundtrip() {
    let tmp = TmpDir::new("gen_stats_dot_roundtrip");
    let wf = tmp.path("m30.json");
    let out = wfs(&["gen", "montage", "30", "--seed", "2", "-o", wf.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(wf.exists());

    let out = wfs(&["stats", wf.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tasks         30"), "{text}");
    assert!(text.contains("MONTAGE-30-s2"), "{text}");

    let out = wfs(&["dot", wf.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

/// A workflow file written by hand holds only `name`, `tasks` and `edges`;
/// the adjacency and the topological order are derived on load.
#[test]
fn stats_reads_a_hand_written_workflow_file() {
    let tmp = TmpDir::new("stats_reads_a_hand_written_workflow_file");
    let wf = tmp.path("pair.json");
    let task = |id: u32, name: &str, mean: f64, ext_in: f64, ext_out: f64| {
        serde_json::json!({
            "id": id, "name": name, "weight": {"mean": mean, "std_dev": 0.0},
            "external_input": ext_in, "external_output": ext_out,
        })
    };
    let doc = serde_json::json!({
        "name": "hand-pair",
        "tasks": [(task(0, "a", 100.0, 2e6, 0.0)), (task(1, "b", 50.0, 0.0, 3e6))],
        "edges": [{"from": 0, "to": 1, "size": 1e6}],
    });
    std::fs::write(&wf, doc.to_string()).unwrap();
    let out = wfs(&["stats", wf.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for line in [
        "workflow      hand-pair",
        "tasks         2",
        "edges         1",
        "depth/width   2/1",
        "entries/exits 1/1",
        "total work    150.0 Gflop",
        "total data    1.0 MB",
        "external I/O  2.0 MB in / 3.0 MB out",
    ] {
        assert!(text.contains(line), "{line}: {text}");
    }
}

#[test]
fn schedule_then_simulate() {
    let tmp = TmpDir::new("schedule_then_simulate");
    let wf = tmp.path("c30.json");
    assert!(wfs(&["gen", "cybershake", "30", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp.path("c30-sched.json");
    let out = wfs(&[
        "schedule",
        wf.to_str().unwrap(),
        "--alg",
        "heftbudg",
        "--budget",
        "1.0",
        "-o",
        sched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = wfs(&[
        "simulate",
        wf.to_str().unwrap(),
        sched.to_str().unwrap(),
        "--seed",
        "7",
        "--budget",
        "1.0",
        "--gantt",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan"), "{text}");
    assert!(text.contains("total cost"), "{text}");
    assert!(text.contains("in budget"), "{text}");
    assert!(text.contains('#'), "gantt missing: {text}");
}

#[test]
fn sweep_prints_table() {
    let tmp = TmpDir::new("sweep_prints_table");
    let wf = tmp.path("l30.json");
    assert!(wfs(&["gen", "ligo", "30", "-o", wf.to_str().unwrap()]).status.success());
    let out = wfs(&[
        "sweep",
        wf.to_str().unwrap(),
        "--budgets",
        "0.1,1.0",
        "--algs",
        "heftbudg,cg",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HEFTBUDG"), "{text}");
    assert!(text.contains("CG"), "{text}");
    // 2 budgets x 2 algorithms + header.
    assert_eq!(text.lines().count(), 5, "{text}");
}

#[test]
fn platform_dump_parses_back() {
    let out = wfs(&["platform"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let p: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(p["categories"].as_array().unwrap().len(), 3);
}

#[test]
fn epigenomics_generator_exposed() {
    let out = wfs(&["gen", "epigenomics", "20"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("EPIGENOMICS-20"), "{json}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let out = wfs(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
    // The usage text lists every algorithm `--alg` accepts.
    for alg in budget_sched::prelude::Algorithm::ALL {
        assert!(stderr.contains(alg.name()), "usage misses {alg}");
    }

    let out = wfs(&["schedule", "/nonexistent.json", "--alg", "heft", "--budget", "1"]);
    assert!(!out.status.success());

    let out = wfs(&["gen", "montage", "30", "--alg"]); // stray flag ok, still generates
    assert!(out.status.success());
}

#[test]
fn dax_roundtrip_through_cli() {
    let tmp = TmpDir::new("dax_roundtrip_through_cli");
    let dax = tmp.path("m20.dax");
    let out = wfs(&["gen", "montage", "20", "-o", dax.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let content = std::fs::read_to_string(&dax).unwrap();
    assert!(content.starts_with("<?xml"), "not DAX: {}", &content[..40.min(content.len())]);

    // The DAX file is accepted everywhere a workflow is.
    let out = wfs(&["stats", dax.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tasks         20"));

    let sched = tmp.path("m20-sched.json");
    let out = wfs(&[
        "schedule",
        dax.to_str().unwrap(),
        "--alg",
        "minminbudg",
        "--budget",
        "0.5",
        "-o",
        sched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn deadline_command_reports_min_budget() {
    let tmp = TmpDir::new("deadline_command_reports_min_budget");
    let wf = tmp.path("m30d.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let out = wfs(&["deadline", wf.to_str().unwrap(), "--deadline", "2000"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("min budget"), "{text}");

    // Unreachable deadline fails loudly.
    let out = wfs(&["deadline", wf.to_str().unwrap(), "--deadline", "0.5"]);
    assert!(!out.status.success());
}

#[test]
fn simulate_writes_svg() {
    let tmp = TmpDir::new("simulate_writes_svg");
    let wf = tmp.path("c20.json");
    assert!(wfs(&["gen", "cybershake", "20", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp.path("c20-sched.json");
    assert!(wfs(&[
        "schedule",
        wf.to_str().unwrap(),
        "--alg",
        "heftbudg",
        "--budget",
        "1",
        "-o",
        sched.to_str().unwrap()
    ])
    .status
    .success());
    let svg = tmp.path("c20.svg");
    let out = wfs(&[
        "simulate",
        wf.to_str().unwrap(),
        sched.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.starts_with("<svg"));
}

#[test]
fn custom_platform_file_is_used() {
    let tmp = TmpDir::new("custom_platform_file_is_used");
    // Dump, modify nothing, and feed it back via --platform.
    let pfile = tmp.path("platform.json");
    let out = wfs(&["platform", "-o", pfile.to_str().unwrap()]);
    assert!(out.status.success());
    let wf = tmp.path("m11.json");
    assert!(wfs(&["gen", "montage", "11", "-o", wf.to_str().unwrap()]).status.success());
    let out = wfs(&[
        "sweep",
        wf.to_str().unwrap(),
        "--budgets",
        "0.5",
        "--platform",
        pfile.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn trace_subcommand_writes_chrome_trace_and_reconciles() {
    let tmp = TmpDir::new("trace_subcommand_writes_chrome_trace_and_reconciles");
    let wf = tmp.path("t30.json");
    assert!(wfs(&["gen", "montage", "30", "--seed", "5", "-o", wf.to_str().unwrap()])
        .status
        .success());

    // Explicit output path, with ledger and counters.
    let trace = tmp.path("t30-explicit.trace.json");
    let out = wfs(&[
        "trace",
        wf.to_str().unwrap(),
        "--budget",
        "2.0",
        "--seed",
        "3",
        "--ledger",
        "--counters",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("algorithm  HEFTBUDG"), "{text}");
    assert!(text.contains("makespan"), "{text}");
    assert!(text.contains("budget ledger"), "{text}");
    assert!(text.contains("reconciles  yes (exact)"), "{text}");
    assert!(text.contains("tasks_placed"), "{text}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(!json["traceEvents"].as_array().unwrap().is_empty());
    // The exported bytes are pinned: (FNV-1a, length).
    assert_eq!(file_pin(&trace), (0x714c_2576_2600_da53, 13_172));

    // Default output path: the workflow file with `.trace.json` extension.
    let out = wfs(&["trace", wf.to_str().unwrap(), "--budget", "2.0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(file_pin(&tmp.path("t30.trace.json")), (0x515d_0365_d8d7_ecb3, 13_174));

    // The ready-set heuristics place every task through the traced step.
    for (alg, pin) in [
        ("MAX-MINBUDG", (0xc0a4_9225_2632_5185, 13_179)),
        ("SUFFERAGEBUDG", (0x0676_ea82_cd97_9cec, 13_181)),
    ] {
        let out = wfs(&[
            "trace",
            wf.to_str().unwrap(),
            "--budget",
            "2.0",
            "--alg",
            alg,
            "--ledger",
            "-o",
            trace.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("30 placements"), "{alg}: {text}");
        assert!(text.contains("reconciles  yes (exact)"), "{alg}: {text}");
        assert_eq!(file_pin(&trace), pin, "{alg}");
    }

    // Missing budget and garbage budget are usage errors.
    assert!(!wfs(&["trace", wf.to_str().unwrap()]).status.success());
    assert!(!wfs(&["trace", wf.to_str().unwrap(), "--budget", "inf"]).status.success());
}

#[test]
fn faults_trace_and_ledger_flags_export_and_reconcile() {
    let tmp = TmpDir::new("faults_trace_and_ledger_flags_export_and_reconcile");
    let wf = tmp.path("ft30.json");
    assert!(wfs(&["gen", "montage", "30", "--seed", "6", "-o", wf.to_str().unwrap()])
        .status
        .success());
    let trace = tmp.path("ft30.trace.json");
    let out = wfs(&[
        "faults",
        wf.to_str().unwrap(),
        "--budget",
        "3.0",
        "--mtbf",
        "600",
        "--boot-fail",
        "0.15",
        "--stochastic",
        "2",
        "--seed",
        "9",
        "--trace",
        trace.to_str().unwrap(),
        "--ledger",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("outcome"), "{text}");
    assert!(text.contains("budget ledger"), "{text}");
    assert!(text.contains("reconciles  yes (exact)"), "{text}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(!json["traceEvents"].as_array().unwrap().is_empty());
    // The exported bytes are pinned: (FNV-1a, length).
    assert_eq!(file_pin(&trace), (0x5f23_9f28_b7cb_4c98, 31_891));
}

#[test]
fn faults_subcommand_runs_and_is_deterministic() {
    let tmp = TmpDir::new("faults_subcommand_runs_and_is_deterministic");
    let wf = tmp.path("f30.json");
    assert!(wfs(&["gen", "montage", "30", "--seed", "4", "-o", wf.to_str().unwrap()])
        .status
        .success());
    let run = || {
        wfs(&[
            "faults",
            wf.to_str().unwrap(),
            "--budget",
            "3.0",
            "--policy",
            "retry",
            "--mtbf",
            "300",
            "--boot-fail",
            "0.2",
            "--seed",
            "3",
            "--lint",
        ])
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("outcome"), "{text}");
    assert!(text.contains("total cost"), "{text}");
    // Same seed, same output — the CLI surface is as deterministic as the
    // engine underneath.
    let b = run();
    assert_eq!(a.stdout, b.stdout);

    // Unknown policy is a usage error.
    let bad = wfs(&["faults", wf.to_str().unwrap(), "--budget", "1", "--policy", "pray"]);
    assert!(!bad.status.success());
}

#[test]
fn simulate_rejects_bad_datacenter_bandwidth() {
    let tmp = TmpDir::new("simulate_rejects_bad_datacenter_bandwidth");
    let wf = tmp.path("bw30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp.path("bw30-sched.json");
    let out = wfs(&[
        "schedule",
        wf.to_str().unwrap(),
        "--alg",
        "heftbudg",
        "--budget",
        "1.0",
        "-o",
        sched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = String::from_utf8(wfs(&["platform"]).stdout).unwrap();
    for bad in ["0", "-125000000"] {
        let pfile = tmp.path(&format!("platform-bw{bad}.json"));
        let edited = dump.replace("\"bandwidth\": 125000000", &format!("\"bandwidth\": {bad}"));
        assert_ne!(edited, dump, "platform dump format changed");
        std::fs::write(&pfile, edited).unwrap();
        let out = wfs(&[
            "simulate",
            wf.to_str().unwrap(),
            sched.to_str().unwrap(),
            "--conservative",
            "--platform",
            pfile.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "bandwidth {bad} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("datacenter bandwidth must be finite and > 0"), "{err}");
    }
}

/// A `--platform` file the planners cannot divide by is a usage error
/// (exit 2, named field), for every algorithm, not a panic.
#[test]
fn schedule_rejects_unusable_platform_files() {
    let tmp = TmpDir::new("schedule_rejects_unusable_platform_files");
    let wf = tmp.path("plat30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let dump = String::from_utf8(wfs(&["platform"]).stdout).unwrap();
    let mut empty: serde_json::Value = serde_json::from_str(&dump).unwrap();
    empty["categories"] = serde_json::Value::Array(Vec::new());
    let cases = [
        ("bw0", dump.replace("\"bandwidth\": 125000000", "\"bandwidth\": 0"), "datacenter bandwidth"),
        ("speed0", dump.replacen("\"speed\": 20", "\"speed\": 0", 1), "speed of VM category 1"),
        ("empty", empty.to_json(), "no VM categories"),
    ];
    for (name, json, expect) in cases {
        assert_ne!(json, dump, "{name}: platform dump format changed");
        let pfile = tmp.path(&format!("platform-{name}.json"));
        std::fs::write(&pfile, json).unwrap();
        for alg in ["HEFTBUDG", "CG", "HEFTBUDG+", "MIN-MIN"] {
            let out = wfs(&[
                "schedule",
                wf.to_str().unwrap(),
                "--alg",
                alg,
                "--budget",
                "2",
                "--platform",
                pfile.to_str().unwrap(),
            ]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name}/{alg}: {err}");
            assert!(err.contains(expect), "{name}/{alg}: {err}");
        }
    }
}

/// Negative prices and boot times in a `--platform` file are usage errors
/// (exit 2, named field) for `schedule` and `simulate`, not bills that run
/// backwards.
#[test]
fn negative_prices_and_boot_times_are_usage_errors() {
    let tmp = TmpDir::new("negative_prices_and_boot_times_are_usage_errors");
    let wf = tmp.path("price30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp.path("price30-sched.json");
    let out = wfs(&[
        "schedule",
        wf.to_str().unwrap(),
        "--alg",
        "heftbudg",
        "--budget",
        "1.0",
        "-o",
        sched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = String::from_utf8(wfs(&["platform"]).stdout).unwrap();
    let cases = [
        ("boot", "\"boot_time\": 100", "\"boot_time\": -50", "boot_time of VM category 0"),
        ("vm", "\"cost_per_hour\": 0.05", "\"cost_per_hour\": -1", "cost_per_hour of VM category 0"),
        ("dc", "\"cost_per_hour\": 0.022", "\"cost_per_hour\": -1", "datacenter cost_per_hour"),
        ("io", "\"io_cost_per_byte\": 0.000000000055", "\"io_cost_per_byte\": -1e-9", "io_cost_per_byte"),
    ];
    for (name, from, to, field) in cases {
        let json = dump.replacen(from, to, 1);
        assert_ne!(json, dump, "{name}: platform dump format changed");
        let pfile = tmp.path(&format!("platform-{name}.json"));
        std::fs::write(&pfile, json).unwrap();
        let (wf, sched) = (wf.to_str().unwrap(), sched.to_str().unwrap());
        let pfile = pfile.to_str().unwrap();
        for args in [
            &["schedule", wf, "--alg", "HEFTBUDG+", "--budget", "2", "--platform", pfile][..],
            &["simulate", wf, sched, "--conservative", "--platform", pfile][..],
        ] {
            let out = wfs(args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name}/{}: {err}", args[0]);
            assert!(err.contains(&format!("{field} must be finite and >= 0")), "{name}: {err}");
        }
    }
}

/// Out-of-range fault and generator flags are usage errors (exit 2), not
/// assertion panics inside the fault models' or generators' constructors.
#[test]
fn out_of_range_flags_are_usage_errors() {
    let tmp = TmpDir::new("out_of_range_flags_are_usage_errors");
    let wf = tmp.path("flags30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let wf = wf.to_str().unwrap();
    let sched = tmp.path("flags30-sched.json");
    let sched = sched.to_str().unwrap();
    assert!(wfs(&["schedule", wf, "--alg", "heftbudg", "--budget", "2", "-o", sched]).status.success());
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", wf, sched, "--budget", "nan"], "budget must be a finite non-negative amount"),
        (&["simulate", wf, sched, "--budget", "-5"], "budget must be a finite non-negative amount"),
        (&["faults", wf, "--budget", "2", "--mtbf", "0"], "mtbf must be > 0"),
        (&["faults", wf, "--budget", "2", "--mtbf", "600", "--shape", "0"], "shape must be"),
        (&["faults", wf, "--budget", "2", "--shape", "2"], "--shape needs --mtbf"),
        (&["faults", wf, "--budget", "2", "--boot-fail", "1"], "boot-fail probability must be"),
        (&["faults", wf, "--budget", "2", "--degrade", "0:0:0"], "degrade factor must be"),
        (&["faults", wf, "--budget", "2", "--degrade", "0.5:0:10"], "degrade gap must be"),
        (&["faults", wf, "--budget", "2", "--max-epochs", "0"], "max epochs must be at least 1"),
        (&["sweep", wf, "--budgets", "1,inf"], "budget must be a finite non-negative amount"),
        (&["deadline", wf, "--deadline", "nan"], "deadline must be finite and > 0"),
        (&["deadline", wf, "--deadline", "-5"], "deadline must be finite and > 0"),
        (&["deadline", wf, "--deadline", "0"], "deadline must be finite and > 0"),
        (&["deadline", wf, "--deadline", "inf"], "deadline must be finite and > 0"),
        (&["gen", "montage", "0"], "montage needs at least 11 tasks"),
        (&["gen", "sipht", "5"], "sipht needs at least 6 tasks"),
        (&["gen", "ligo", "30", "--sigma", "-1"], "sigma ratio must be in [0, 100]"),
    ];
    for (args, expect) in cases {
        let out = wfs(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(expect), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

/// Degradation windows far below the clock resolution used to spin the
/// event loop forever. The engine's liveness bound turns them into a
/// typed simulation error (exit 2) within seconds; the child is killed
/// and the test fails should it ever hang again.
#[test]
fn degradation_windows_below_clock_resolution_exit_2() {
    let tmp = TmpDir::new("degradation_windows_below_clock_resolution_exit_2");
    use std::time::{Duration, Instant};
    let wf = tmp.path("degrade30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    for spec in ["0.5:1e-300:1e-300", "0.5:1e-12:1e-12"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wfs"))
            .args(["faults", wf.to_str().unwrap(), "--budget", "5", "--degrade", spec])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("wfs binary runs");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if start.elapsed() > Duration::from_secs(60) {
                child.kill().unwrap();
                panic!("--degrade {spec}: still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let err = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
        assert_eq!(status.code(), Some(2), "--degrade {spec}: {err}");
        assert!(err.contains("liveness bound"), "--degrade {spec}: {err}");
    }
}

/// A DAX file with an out-of-range number or a repeated job id is an input
/// error (exit 2) naming the job and the field, not an assertion panic
/// inside the workflow builder.
#[test]
fn stats_rejects_hostile_dax_files() {
    let tmp = TmpDir::new("stats_rejects_hostile_dax_files");
    let doc = |a_attrs: &str, size: &str, b_id: &str| {
        format!(
            r#"<adag name="hostile">
  <job id="A" {a_attrs}><uses file="f" link="output" size="{size}"/></job>
  <job id="{b_id}" runtime="1"><uses file="f" link="input" size="1"/></job>
  <child ref="{b_id}"><parent ref="A"/></child>
</adag>"#
        )
    };
    let cases = [
        ("size-nan", doc(r#"runtime="1""#, "NaN", "B"), r#"job `A`: size="NaN""#),
        ("size-neg", doc(r#"runtime="1""#, "-5", "B"), r#"job `A`: size="-5""#),
        ("runtime-inf", doc(r#"runtime="inf""#, "1", "B"), r#"job `A`: runtime="inf""#),
        ("sigma-inf", doc(r#"runtime="1" sigma="inf""#, "1", "B"), r#"job `A`: sigma="inf""#),
        ("dup-id", doc(r#"runtime="1""#, "1", "A"), "declares job `A` twice"),
    ];
    for (name, content, expect) in cases {
        let file = tmp.path(&format!("hostile-{name}.dax"));
        std::fs::write(&file, content).unwrap();
        let out = wfs(&["stats", file.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(expect), "{name}: {err}");
    }
}

/// Hand-edited workflow files with out-of-range numbers or renumbered
/// tasks are usage errors (exit 2, naming the task or edge and the field),
/// not planner panics or silently accepted plans.
#[test]
fn schedule_rejects_hostile_workflow_files() {
    use serde_json::{json, Value};
    let tmp = TmpDir::new("schedule_rejects_hostile_workflow_files");
    let wf = tmp.path("montage20.json");
    assert!(wfs(&["gen", "montage", "20", "-o", wf.to_str().unwrap()]).status.success());
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&wf).unwrap()).unwrap();
    // `doc` with `keys` of entry `i` of `list` set to `value`.
    let set = |list: &str, i: usize, keys: &[&str], value: f64| {
        let mut doc = doc.clone();
        let Value::Array(items) = &mut doc[list] else { panic!("`{list}` is a list") };
        let mut v = &mut items[i];
        for &k in keys {
            v = &mut v[k];
        }
        *v = json!(value);
        doc
    };
    // Each field finite, their sum (the conservative weight) not.
    let mut huge = set("tasks", 5, &["weight", "mean"], 1e308);
    let Value::Array(tasks) = &mut huge["tasks"] else { panic!("`tasks` is a list") };
    tasks[5]["weight"]["std_dev"] = json!(1e308);
    let mut swapped = doc.clone();
    let Value::Array(tasks) = &mut swapped["tasks"] else { panic!("`tasks` is a list") };
    tasks.swap(0, 1);
    let edge = |end: &str| doc["edges"][0][end].as_u64().unwrap();
    let edge_msg = format!("edge T{} -> T{}: size must be finite and >= 0", edge("from"), edge("to"));
    let cases = [
        ("edge-size", set("edges", 0, &["size"], -5.0), edge_msg.as_str()),
        ("mean-neg", set("tasks", 5, &["weight", "mean"], -100.0), "task T5: weight.mean"),
        ("mean-zero", set("tasks", 5, &["weight", "mean"], 0.0), "task T5: weight.mean"),
        ("sigma-neg", set("tasks", 5, &["weight", "std_dev"], -100.0), "task T5: weight.std_dev"),
        ("ext-in-neg", set("tasks", 0, &["external_input"], -1e9), "task T0: external_input"),
        ("ext-out-neg", set("tasks", 0, &["external_output"], -1.0), "task T0: external_output"),
        ("conservative-inf", huge, "task T5: weight.mean + weight.std_dev"),
        ("out-of-order", swapped, "task at position 0 has id T1"),
    ];
    for (name, json, expect) in cases {
        let file = tmp.path(&format!("hostile-{name}.json"));
        std::fs::write(&file, json.to_json()).unwrap();
        let args = ["schedule", file.to_str().unwrap(), "--alg", "HEFTBUDG", "--budget", "2"];
        let out = wfs(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(expect), "{name}: {err}");
    }
}

/// Hand-edited schedule files whose lists do not fit the workflow or whose
/// VMs name a missing category are typed errors (exit 2), not index panics
/// in the validator or the engine.
#[test]
fn simulate_rejects_hostile_schedule_files() {
    use serde_json::{json, Value};
    let tmp = TmpDir::new("simulate_rejects_hostile_schedule_files");
    let wf = tmp.path("montage20.json");
    assert!(wfs(&["gen", "montage", "20", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp.path("montage20-sched.json");
    let (wf, sched_path) = (wf.to_str().unwrap(), sched.to_str().unwrap());
    let out = wfs(&["schedule", wf, "--alg", "heftbudg", "--budget", "2", "-o", sched_path]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&sched).unwrap()).unwrap();
    let mut short = doc.clone();
    short["assignment"].as_array_mut().unwrap().truncate(3);
    let mut extra_vm = doc.clone();
    extra_vm["vms"].as_array_mut().unwrap().push(json!(0));
    let vms = doc["vms"].as_array().unwrap().len();
    let mut bad_category = doc.clone();
    bad_category["vms"].as_array_mut().unwrap()[0] = json!(99);
    let cases = [
        ("short-assignment", short, "assignment lists 3 tasks but the workflow has 20".to_string()),
        ("extra-vm", extra_vm, format!("{vms} order lists for {} VMs", vms + 1)),
        ("category-99", bad_category, "vm0 is of VM category 99".to_string()),
    ];
    for (name, json, expect) in cases {
        let file = tmp.path(&format!("hostile-{name}.json"));
        std::fs::write(&file, json.to_json()).unwrap();
        let out = wfs(&["simulate", wf, file.to_str().unwrap(), "--conservative"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(&expect), "{name}: {err}");
    }
}
