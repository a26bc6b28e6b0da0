//! Wall-clock benchmark of the served DB-GPT stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat2db_oltp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The stack runs with its default configuration behind the TCP front
//! door on loopback; two clients drive it in a closed loop of 8-turn chat
//! sessions. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `metrics.rs`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod drive;
mod metrics;
mod stack;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Duration;

use drive::{closed_loop, Client, Log, Via};
use metrics::{Metric, END_TO_END, PER_LAYER};
use stack::SetupTimes;
use stats::{mean, med, median, tail, tail_or_zero};
use trace::{Breakdown, Tracer};
use workload::{Scenario, Workload, CLIENTS};

/// Slices of the window whose median throughput is `req_per_s`.
const THROUGHPUT_SLICES: usize = 6;

/// Requests per client hashed into the printed stream digest.
const HASHED_REQUESTS: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <chat2data_analytics|kbqa_retrieval|chat2db_oltp> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit under test: `PERFBENCH_COMMIT`, else git's HEAD when run
/// from a repository root, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    // Never report the commit of a repository enclosing the checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match git.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// High-water resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup_medians(setups: &[SetupTimes]) -> [(&'static str, f64); 4] {
    let m = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    [
        ("setup_s", m(|t| t.total_s)),
        ("server.start_s", m(|t| t.start_s)),
        ("sqlengine.load_s", m(|t| t.load_s)),
        ("rag.ingest_s", m(|t| t.ingest_s)),
    ]
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end values, in [`END_TO_END`] order.
fn e2e_values(
    setups: &[SetupTimes],
    log: &Log,
    window_s: f64,
    rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let all = log.all_ms();
    vec![
        ("setup_s", setup_medians(setups)[0].1),
        ("req_per_s", log.req_per_s(window_s, THROUGHPUT_SLICES)),
        ("latency_p50_ms", med(&all)),
        ("write_p50_ms", med(&log.write_ms)),
        (
            "success_rate",
            ratio(log.attempted - log.failed, log.attempted),
        ),
        ("answer_accuracy", ratio(log.right, log.answers)),
        ("peak_rss_mb", rss_mb),
    ]
}

/// What a traced run measured.
struct Traced<'a> {
    setups: &'a [SetupTimes],
    tcp: &'a Log,
    inproc: &'a Log,
    breakdown: &'a Breakdown,
    kb_questions: usize,
    retries: u64,
    shed: u64,
}

/// Per-layer values, in [`PER_LAYER`] order.
fn layer_values(t: &Traced) -> Vec<(&'static str, f64)> {
    let b = t.breakdown;
    let setup = setup_medians(t.setups);
    let inproc_p50_us = med(&t.inproc.all_ms()) * 1e3;
    vec![
        ("server.inproc_p50_us", inproc_p50_us),
        (
            "server.transport_p50_us",
            med(&t.tcp.all_ms()) * 1e3 - inproc_p50_us,
        ),
        ("server.codec_us", mean(&b.codec)),
        ("server.session_us", mean(&b.session)),
        setup[1],
        ("text2sql.generate_us", mean(&b.generate)),
        ("text2sql.explain_us", mean(&b.explain)),
        ("sqlengine.select_p50_us", med(&b.select)),
        ("sqlengine.select_p99_us", tail_or_zero(&b.select)),
        ("sqlengine.point_read_us", mean(&b.point_read)),
        ("sqlengine.write_us", mean(&b.write)),
        ("sqlengine.schema_ddl_us", mean(&b.schema_ddl)),
        ("sqlengine.rows_returned", mean(&b.rows)),
        setup[2],
        ("rag.retrieve_p50_us", med(&b.retrieve)),
        ("rag.retrieve_p99_us", tail_or_zero(&b.retrieve)),
        ("rag.icl_us", mean(&b.icl)),
        setup[3],
        ("rag.hit_at_4", ratio(b.hits, t.kb_questions)),
        ("smmf.chat_us", mean(&b.smmf_chat)),
        ("smmf.retries", t.retries as f64),
        ("smmf.shed", t.shed as f64),
        ("llm.generate_us", mean(&b.llm_generate)),
        ("llm.tokens_per_request", mean(&b.tokens)),
        ("agents.analyze_us", mean(&b.analyze)),
        ("vis.render_us", mean(&b.render)),
        ("apps.self_us", b.apps_self_us()),
        ("trace.coverage", b.coverage()),
    ]
}

/// The result line. Panics if `values` does not name exactly the
/// catalog's metrics, in its order.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&str, f64)],
    catalog: &[Metric],
) -> String {
    let names: Vec<&str> = values.iter().map(|v| v.0).collect();
    let want: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "printed metrics must match the catalog");
    let metrics: Vec<String> = values
        .iter()
        .zip(catalog)
        .map(|((name, v), m)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn print_values(values: &[(&str, f64)], catalog: &[Metric]) {
    for ((name, v), m) in values.iter().zip(catalog) {
        println!("# {name:<26} {v:>14.4} {:<6} {}", m.unit, m.note);
    }
}

fn report_problems(log: &Log) {
    for w in log.wrong.iter().take(5) {
        println!("# PROBLEM {w}");
    }
    if log.wrong.len() > 5 {
        println!("# ... {} problems in all", log.wrong.len());
    }
}

fn run(args: &Args) -> String {
    let scenario = Scenario::new(args.workload, args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients={CLIENTS} \
         commit={} stream_hash={:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        scenario.stream_hash(HASHED_REQUESTS),
    );
    let (stack, setups) = stack::set_up_repeatedly(&scenario);
    let [total, start, load, ingest] = setup_medians(&setups).map(|m| m.1);
    println!(
        "# setup x{}: median total {total:.4} s = start {start:.4} + sql load {load:.4} + kb ingest {ingest:.4}",
        setups.len()
    );
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::new(scenario.stream(c)))
        .collect();
    let window = Duration::from_secs_f64(args.seconds);
    let warmup = Duration::from_secs_f64((args.seconds * 0.1).clamp(0.2, 1.0));
    let tcp = Via::Tcp(stack.tcp.local_addr());

    let line = if !args.trace {
        let log = closed_loop(&stack.server, tcp, &mut clients, warmup, window);
        report_problems(&log);
        let values = e2e_values(&setups, &log, args.seconds, peak_rss_mb());
        for (label, xs) in [
            ("all", log.all_ms()),
            ("read", log.read_ms.clone()),
            ("write", log.write_ms.clone()),
        ] {
            if !xs.is_empty() {
                let t = tail(&xs);
                println!(
                    "# {label:<5} p50 {:.4} ms, {} {:.4} ms",
                    median(&xs),
                    t.describe(),
                    t.value
                );
            }
        }
        print_values(&values, END_TO_END);
        let correct = log.wrong.is_empty() && log.attempted > 0;
        result_json(correct, log.attempted, log.failed, &values, END_TO_END)
    } else {
        // Three phases over the same streams: one client over TCP, the
        // same client in-process (their difference is the transport, free
        // of lock contention between clients), then the single-threaded
        // replay that times each layer.
        let third = window / 3;
        let tcp_log = closed_loop(&stack.server, tcp, &mut clients[..1], warmup, third);
        let inproc = closed_loop(
            &stack.server,
            Via::InProcess,
            &mut clients[..1],
            Duration::ZERO,
            third,
        );
        let mut tracer = Tracer::new(&stack, CLIENTS);
        tracer.replay(&mut clients, third);
        let metrics = stack.db.smmf().metrics();
        let kb_questions = tracer.breakdown.retrieve.len();
        let values = layer_values(&Traced {
            setups: &setups,
            tcp: &tcp_log,
            inproc: &inproc,
            breakdown: &tracer.breakdown,
            kb_questions,
            retries: metrics.retries,
            shed: metrics.shed,
        });
        print!("{}", tracer.breakdown.table());
        print_values(&values, PER_LAYER);
        let mut all = tcp_log;
        all.merge(inproc);
        all.merge(std::mem::take(&mut tracer.log));
        report_problems(&all);
        let correct = all.wrong.is_empty() && all.attempted > 0;
        result_json(correct, all.attempted, all.failed, &values, PER_LAYER)
    };
    drop(clients);
    stack::shut_down(stack);
    line
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = run(&args);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "kbqa_retrieval",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Kbqa, 7, 10.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "chat2db_oltp", "--trace", "2"])).is_err());
    }

    #[test]
    fn printed_metrics_are_the_catalog() {
        // `result_json` asserts the names; these calls would panic if a
        // value list drifted from the catalog (and so from BENCHMARK.json).
        let setups = [SetupTimes::default()];
        let log = Log::default();
        let line = result_json(true, 1, 0, &e2e_values(&setups, &log, 1.0, 1.0), END_TO_END);
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\"", m.name)),
                "{line}"
            );
        }
        let b = Breakdown::default();
        let t = Traced {
            setups: &setups,
            tcp: &log,
            inproc: &log,
            breakdown: &b,
            kb_questions: 0,
            retries: 0,
            shed: 0,
        };
        let line = result_json(true, 1, 0, &layer_values(&t), PER_LAYER);
        for m in PER_LAYER {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\"", m.name)),
                "{line}"
            );
        }
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let setups = [SetupTimes::default()];
        let line = result_json(
            false,
            3,
            1,
            &e2e_values(&setups, &Log::default(), 1.0, 2.5),
            END_TO_END,
        );
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["metrics"]["peak_rss_mb"]["value"].as_f64(), Some(2.5));
        assert_eq!(v["metrics"]["peak_rss_mb"]["unit"], "MB");
    }
}
