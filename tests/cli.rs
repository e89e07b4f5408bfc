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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfs-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_stats_dot_roundtrip() {
    let wf = tmp("m30.json");
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

#[test]
fn schedule_then_simulate() {
    let wf = tmp("c30.json");
    assert!(wfs(&["gen", "cybershake", "30", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp("c30-sched.json");
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
    let wf = tmp("l30.json");
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
    let dax = tmp("m20.dax");
    let out = wfs(&["gen", "montage", "20", "-o", dax.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let content = std::fs::read_to_string(&dax).unwrap();
    assert!(content.starts_with("<?xml"), "not DAX: {}", &content[..40.min(content.len())]);

    // The DAX file is accepted everywhere a workflow is.
    let out = wfs(&["stats", dax.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tasks         20"));

    let sched = tmp("m20-sched.json");
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
    let wf = tmp("m30d.json");
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
    let wf = tmp("c20.json");
    assert!(wfs(&["gen", "cybershake", "20", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp("c20-sched.json");
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
    let svg = tmp("c20.svg");
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
    // Dump, modify nothing, and feed it back via --platform.
    let pfile = tmp("platform.json");
    let out = wfs(&["platform", "-o", pfile.to_str().unwrap()]);
    assert!(out.status.success());
    let wf = tmp("m11.json");
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
    let wf = tmp("t30.json");
    assert!(wfs(&["gen", "montage", "30", "--seed", "5", "-o", wf.to_str().unwrap()])
        .status
        .success());

    // Explicit output path, with ledger and counters.
    let trace = tmp("t30-explicit.trace.json");
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

    // Default output path: the workflow file with `.trace.json` extension.
    let out = wfs(&["trace", wf.to_str().unwrap(), "--budget", "2.0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(tmp("t30.trace.json").exists());

    // The ready-set heuristics place every task through the traced step.
    for alg in ["MAX-MINBUDG", "SUFFERAGEBUDG"] {
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
    }

    // Missing budget and garbage budget are usage errors.
    assert!(!wfs(&["trace", wf.to_str().unwrap()]).status.success());
    assert!(!wfs(&["trace", wf.to_str().unwrap(), "--budget", "inf"]).status.success());
}

#[test]
fn faults_trace_and_ledger_flags_export_and_reconcile() {
    let wf = tmp("ft30.json");
    assert!(wfs(&["gen", "montage", "30", "--seed", "6", "-o", wf.to_str().unwrap()])
        .status
        .success());
    let trace = tmp("ft30.trace.json");
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
}

#[test]
fn faults_subcommand_runs_and_is_deterministic() {
    let wf = tmp("f30.json");
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
    let wf = tmp("bw30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let sched = tmp("bw30-sched.json");
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
        let pfile = tmp(&format!("platform-bw{bad}.json"));
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
    let wf = tmp("plat30.json");
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
        let pfile = tmp(&format!("platform-{name}.json"));
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

/// Out-of-range fault and generator flags are usage errors (exit 2), not
/// assertion panics inside the fault models' or generators' constructors.
#[test]
fn out_of_range_flags_are_usage_errors() {
    let wf = tmp("flags30.json");
    assert!(wfs(&["gen", "montage", "30", "-o", wf.to_str().unwrap()]).status.success());
    let wf = wf.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["faults", wf, "--budget", "2", "--mtbf", "0"], "mtbf must be > 0"),
        (&["faults", wf, "--budget", "2", "--mtbf", "600", "--shape", "0"], "shape must be"),
        (&["faults", wf, "--budget", "2", "--boot-fail", "1"], "boot-fail probability must be"),
        (&["faults", wf, "--budget", "2", "--degrade", "0:0:0"], "degrade factor must be"),
        (&["faults", wf, "--budget", "2", "--degrade", "0.5:0:10"], "degrade gap must be"),
        (&["faults", wf, "--budget", "2", "--max-epochs", "0"], "max epochs must be at least 1"),
        (&["sweep", wf, "--budgets", "1,inf"], "budget must be a finite non-negative amount"),
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
    use std::time::{Duration, Instant};
    let wf = tmp("degrade30.json");
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
        let file = tmp(&format!("hostile-{name}.dax"));
        std::fs::write(&file, content).unwrap();
        let out = wfs(&["stats", file.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(expect), "{name}: {err}");
    }
}
