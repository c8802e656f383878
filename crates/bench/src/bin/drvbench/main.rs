//! `drvbench` — the repository's benchmark: five workloads driven through
//! the real pipeline (durable server in-process, `MonitorClient`s over
//! loopback, the whole process on one CPU), every verdict checked against
//! `sequential_reference`, six
//! end-to-end metrics on every workload and, in a separate traced run, a layer
//! budget with an explicit unattributed remainder.  See `README.md` beside
//! this file for the tables and the reasoning.
//!
//! ```text
//! drvbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! drvbench --list | --manifest | --digests | --smoke | --aa [RUNS]
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is the detailed report (machine, commit, sample counts, quartiles).

mod gen;
mod layers;
mod live;
mod metrics;
mod probe;
mod recovery;
mod run;
mod staged;
mod sys;
mod trace;
mod workloads;

use metrics::{Better, Sample, END_TO_END, PER_LAYER};
use run::{Options, Outcome};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 18;

/// The directory of the benchmark, relative to the repository root.
const PATH: &str = "crates/bench/src/bin/drvbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Run(workload, options)) => {
            // Before any thread starts: they inherit the mask.
            let cpu = sys::pin_to_one_cpu();
            if cpu.is_none() {
                eprintln!(
                    "drvbench: cannot pin to one CPU; thread placement will show in the numbers"
                );
            }
            let outcome = run::run(workload, &options);
            print_outcome(workload, &options, cpu, &outcome);
            exit_code(outcome.correct())
        }
        Ok(Mode::List) => {
            print!("{}", list());
            ExitCode::SUCCESS
        }
        Ok(Mode::Manifest) => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Ok(Mode::Digests) => {
            print!("{}", digests());
            ExitCode::SUCCESS
        }
        Ok(Mode::Smoke) => exit_code(smoke()),
        Ok(Mode::SelfCompare {
            only,
            runs,
            seconds,
        }) => exit_code(self_compare(only, runs, seconds)),
        Err(message) => {
            eprintln!("drvbench: {message}\nusage: drvbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] | --list | --manifest | --digests | --smoke | --aa [RUNS]");
            ExitCode::from(2)
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

enum Mode {
    Run(&'static Workload, Options),
    List,
    Manifest,
    Digests,
    Smoke,
    SelfCompare {
        only: Option<&'static Workload>,
        runs: usize,
        seconds: f64,
    },
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut options = Options {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        smoke: false,
    };
    let mut mode = None;
    let mut aa_runs = None;
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; see --list"))?,
                );
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(options.seconds > 0.0 && options.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
            }
            "--trace" => {
                options.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--list" => mode = Some(Mode::List),
            "--manifest" => mode = Some(Mode::Manifest),
            "--digests" => mode = Some(Mode::Digests),
            "--smoke" => mode = Some(Mode::Smoke),
            "--aa" => {
                let runs = args
                    .next_if(|next| !next.starts_with("--"))
                    .map(|n| n.parse::<usize>());
                aa_runs = Some(
                    runs.transpose()
                        .map_err(|_| "--aa takes a number of runs per side")?
                        .unwrap_or(1)
                        .max(1),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (mode, aa_runs, workload) {
        (Some(mode), _, _) => Ok(mode),
        (None, Some(runs), only) => Ok(Mode::SelfCompare {
            only,
            runs,
            seconds: options.seconds,
        }),
        (None, None, Some(workload)) => Ok(Mode::Run(workload, options)),
        (None, None, None) => Err("no --workload given".to_string()),
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics::values_json(&outcome.values, false)
    )
}

fn print_outcome(workload: &Workload, options: &Options, cpu: Option<usize>, outcome: &Outcome) {
    for error in &outcome.errors {
        eprintln!("drvbench: {}: {error}", workload.name);
    }
    if let Some(path) = &outcome.trace_file {
        eprintln!(
            "drvbench: trace written to {} (open in https://ui.perfetto.dev)",
            path.display()
        );
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"commit\": \"{}\", \
         \"nproc\": {}, \"pinned_cpu\": {}, \"kernel\": \"{}\", \"reference_digest\": \"{:016x}\", \"failed_share\": {}, \"metrics\": {}, \"as_read\": {}}}",
        workload.name,
        options.seed,
        options.seconds,
        options.traced,
        options.smoke,
        sys::commit(),
        sys::nproc(),
        cpu.map_or_else(|| "null".to_string(), |cpu| cpu.to_string()),
        sys::kernel(),
        outcome.digest,
        metrics::json_number(outcome.failed as f64 / outcome.attempted as f64),
        metrics::values_json(&outcome.values, true),
        metrics::values_json(&outcome.as_read, true)
    );
    println!("{}", result_line(outcome));
}

/// `--list`: every metric with unit, direction, bound and what it moves.
fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<22} {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics (every workload reports every one; --trace 0)\n");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<22} {:<9} {:<6} may worsen by {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    out.push_str("\nper-layer metrics (--trace 1; -1 = not measured on this workload)\n");
    for m in PER_LAYER {
        let moves: Vec<String> = m
            .moves
            .iter()
            .map(|(metric, workload)| format!("{metric} @ {workload}"))
            .collect();
        let moves = if moves.is_empty() {
            "diagnostic".to_string()
        } else {
            moves.join(", ")
        };
        let _ = writeln!(
            out,
            "  {:<44} {:<9} {:<6} -> {moves}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out
}

/// `--manifest`: `BENCHMARK.json`, rendered from the tables.
fn manifest() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"{PATH}\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

/// `--digests`: `digests.txt`, recomputed — the seed-1 fingerprints of the
/// reference verdict streams at both sizes.
fn digests() -> String {
    let mut out = String::new();
    for workload in WORKLOADS {
        for (size, shape) in [("full", workload.shape), ("smoke", workload.smoke)] {
            let _ = writeln!(
                out,
                "{} {size} {:016x}",
                workload.name,
                workloads::Input::build(1, shape).digest()
            );
        }
    }
    out
}

/// `--smoke`: every workload at ~1/50 size, both runs, in this process.
fn smoke() -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let options = Options {
                seed: 1,
                seconds: 0.1,
                traced,
                smoke: true,
            };
            let outcome = run::run(workload, &options);
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let complete = outcome.values.len() == expected.len()
                && expected
                    .iter()
                    .all(|name| outcome.values.contains_key(name));
            for error in &outcome.errors {
                eprintln!("drvbench: {}: {error}", workload.name);
            }
            println!(
                "smoke {:<20} trace {}: {} ({} events, {} failed, {} metrics)",
                workload.name,
                u8::from(traced),
                if outcome.correct() && complete {
                    "ok"
                } else {
                    "FAILED"
                },
                outcome.attempted,
                outcome.failed,
                outcome.values.len()
            );
            ok &= outcome.correct() && complete;
        }
    }
    ok
}

/// The number behind `"name": {"value": ` in a line of this program's JSON.
fn value_in(json: &str, name: &str) -> Option<f64> {
    let rest = json.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// One end-to-end metric of one child run: its value, and the same reading
/// before it was put at nominal host speed (the value itself where the
/// metric is not scaled).
struct Reading {
    value: f64,
    as_read: f64,
}

/// One child run of this executable: its readings, in `END_TO_END` order.
fn child_run(workload: &Workload, seed: u64, seconds: f64) -> Result<Vec<Reading>, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|err| err.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines.next().unwrap_or_default();
    let as_read = lines
        .next()
        .and_then(|detailed| detailed.split_once("\"as_read\": "))
        .map_or("", |(_, as_read)| as_read);
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{} seed {seed}: {}",
            workload.name,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            let value = value_in(line, m.name)
                .ok_or_else(|| format!("{} missing from the result line", m.name))?;
            Ok(Reading {
                value,
                as_read: value_in(as_read, m.name).unwrap_or(value),
            })
        })
        .collect()
}

/// `--aa [RUNS]`: the same code against itself.  For every workload (or the
/// one `--workload` names) two
/// sides of `RUNS` child runs each, alternating which side runs first and
/// each run on another seed; prints per end-to-end metric both medians,
/// their relative difference, the spread (q3 - q1) / median of each side —
/// the recorded noise floor — the same spread of the readings before they were
/// put at nominal host speed, and the bound.  False when a difference or a
/// spread exceeds the metric's bound (`setup_s` is held to the difference
/// only).
fn self_compare(only: Option<&Workload>, runs: usize, seconds: f64) -> bool {
    println!(
        "{{\"aa_runs_per_side\": {runs}, \"seconds\": {seconds}, \"commit\": \"{}\", \"nproc\": {}, \"kernel\": \"{}\"}}",
        sys::commit(),
        sys::nproc(),
        sys::kernel()
    );
    let mut ok = true;
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|only| only.name == w.name))
    {
        let mut sides: [Vec<Vec<Reading>>; 2] = Default::default();
        for pair in 0..runs {
            for turn in 0..2 {
                let side = (pair + turn) % 2;
                let seed = 1 + (2 * pair + side) as u64;
                match child_run(workload, seed, seconds) {
                    Ok(values) => sides[side].push(values),
                    Err(message) => {
                        eprintln!("drvbench: {message}");
                        ok = false;
                    }
                }
            }
        }
        for (index, metric) in END_TO_END.iter().enumerate() {
            let side = |side: usize, pick: fn(&Reading) -> f64| {
                let runs: Vec<f64> = sides[side].iter().map(|run| pick(&run[index])).collect();
                Sample::of(&runs)
            };
            let [a, b] = [0, 1].map(|s| side(s, |run| run.value));
            if a.n == 0 || b.n == 0 {
                continue;
            }
            let worse = match metric.better {
                Better::Lower => (b.value - a.value) / a.value,
                Better::Higher => (a.value - b.value) / a.value,
            };
            let spread = a.spread().max(b.spread());
            let as_read = side(0, |run| run.as_read)
                .spread()
                .max(side(1, |run| run.as_read).spread());
            let within =
                worse.abs() <= metric.bound && (metric.name == "setup_s" || spread <= metric.bound);
            ok &= within;
            println!(
                "{:<20} {:<18} a {:>14.4} b {:>14.4} {:<8} diff {:>+7.2} %  spread {:>6.2} %  as read {:>6.2} %  bound {:>4.0} %  {}",
                workload.name,
                metric.name,
                a.value,
                b.value,
                metric.unit,
                worse * 100.0,
                spread * 100.0,
                as_read * 100.0,
                metric.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        // Every metric and workload in BENCHMARK.json is one the benchmark
        // emits, and the other way round: the file is generated, never
        // edited.  Regenerate with `drvbench --manifest > BENCHMARK.json`.
        assert_eq!(include_str!("../../../../../BENCHMARK.json"), manifest());
    }

    /// The `key = value` lines of `[header]` in a manifest.
    fn section<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != format!("[{header}]"))
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn own_manifest_builds_what_the_workspace_builds() {
        // The numbers come from the package of its own (the contract wants
        // one), the unit tests run on the `drv-bench` binary: both must
        // compile the same crates under the same profile.
        let own = include_str!("Cargo.toml");
        let workspace = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        assert_eq!(
            section(own, "profile.release"),
            section(workspace, "profile.release")
        );
        let dependencies = section(own, "dependencies");
        assert!(!dependencies.is_empty());
        for line in dependencies {
            let (name, path) = line.split_once(" = ").expect("name = { path = .. }");
            let krate = path.rsplit('/').next().expect("a path");
            assert!(
                section(workspace, "workspace.dependencies")
                    .contains(&format!("{name} = {{ path = \"crates/{krate}").as_str()),
                "{name} is not the workspace's crate"
            );
            assert!(
                section(bench, "dependencies")
                    .contains(&format!("{name}.workspace = true").as_str()),
                "{name} is not a dependency of drv-bench"
            );
        }
    }

    #[test]
    fn every_per_layer_row_moves_a_metric_and_workload_that_exist() {
        for layer in PER_LAYER {
            for (metric, workload) in layer.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *metric),
                    "{}: unknown metric {metric}",
                    layer.name
                );
                assert!(
                    workloads::find(workload).is_some(),
                    "{}: unknown workload {workload}",
                    layer.name
                );
            }
            // Only diagnostics (and the two hardware readings nobody may
            // claim on) move nothing.
            let diagnostic = layer.name.starts_with("bench.")
                || ["store.sync_ms_p50", "telemetry.snapshot_us_p50"].contains(&layer.name);
            assert_eq!(layer.moves.is_empty(), diagnostic, "{}", layer.name);
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let Ok(Mode::Run(workload, options)) =
            parse(&args("--workload recover --seed 7 --seconds 3 --trace 1"))
        else {
            panic!("a run");
        };
        assert_eq!(
            (workload.name, options.seed, options.seconds, options.traced),
            ("recover", 7, 3.0, true)
        );
        assert!(
            matches!(parse(&args("--aa 10 --seconds 5")), Ok(Mode::SelfCompare { only: None, runs: 10, seconds }) if seconds == 5.0)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload recover --trace yes")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn smoke_run_emits_every_metric_and_no_failures() {
        // One cheap workload end to end under tier-1, both runs: the
        // result line carries exactly the contract's metric sets.
        let workload = workloads::find("violations-batch256").expect("listed");
        for traced in [false, true] {
            let outcome = run::run(
                workload,
                &Options {
                    seed: 1,
                    seconds: 0.2,
                    traced,
                    smoke: true,
                },
            );
            assert!(outcome.correct(), "{:?}", outcome.errors);
            let names: Vec<&str> = outcome.values.keys().copied().collect();
            let mut expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            expected.sort_unstable();
            assert_eq!(names, expected);
            let line = result_line(&outcome);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains("\"failed\": 0")
            );
        }
    }
}
