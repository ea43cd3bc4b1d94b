//! End-to-end benchmark: one workload as a closed loop with one client,
//! one complete simulation per request, tracing off.
//!
//! ```text
//! benchmark --workload vocoder_arch --seed 1 --seconds 20 --trace 0
//! benchmark --seed 1 --json out.json      # every workload, e2e then traced
//! ```
//!
//! With `--trace 1` the traced ladder runs instead, in the sibling
//! `benchmark-traced` binary, so this binary carries no counting
//! allocator. The last line of standard output is the JSON result.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use benchmark::workloads::Bench;
use benchmark::{
    median, metric_in_line, metrics_from, parse_args, peak_rss_mb, percentile, pin_to_one_cpu,
    result_line, Args, Workload, END_TO_END, USAGE,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    match args.workload {
        None => run_all(&args),
        Some(_) if args.trace => {
            let traced = sibling("benchmark-traced");
            let err = Command::new(&traced).args(std::env::args().skip(1)).exec();
            eprintln!("error: running {}: {err}", traced.display());
            exit(1);
        }
        Some(w) => {
            if let Err(e) = run_e2e(w, &args) {
                eprintln!("error: {}: {e}", w.name());
                exit(1);
            }
        }
    }
}

fn sibling(name: &str) -> std::path::PathBuf {
    std::env::current_exe()
        .expect("the running binary has a path")
        .with_file_name(name)
}

fn run_e2e(w: Workload, args: &Args) -> Result<(), String> {
    let cpu = pin_to_one_cpu()?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        bench = Some(Bench::setup(w, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let mut host_ms = Vec::new();
    let (mut sim_s, mut good_host_s) = (0.0, 0.0);
    let mut failed = 0u64;
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < args.seconds {
        let t = Instant::now();
        let result = bench.request(i);
        let host = t.elapsed();
        host_ms.push(host.as_secs_f64() * 1e3);
        match result {
            Ok(out) => {
                sim_s += out.sim_seconds;
                good_host_s += host.as_secs_f64();
            }
            Err(e) => {
                failed += 1;
                eprintln!("request {i}: {e}");
            }
        }
        i += 1;
    }
    let attempted = i;
    host_ms.sort_by(f64::total_cmp);
    let rss = peak_rss_mb()?;
    let speed = if good_host_s > 0.0 {
        sim_s / good_host_s
    } else {
        0.0
    };
    let metrics = metrics_from(
        END_TO_END,
        &[
            ("sim_speed", speed),
            ("run_ms.p50", percentile(&host_ms, 0.5)),
            ("run_ms.p95", percentile(&host_ms, 0.95)),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", rss),
        ],
    );

    println!(
        "{}: seed {}, {} inputs, {:.1} s window, closed loop, 1 client, pinned to CPU {cpu}",
        w.name(),
        args.seed,
        bench.inputs.len(),
        args.seconds.as_secs_f64()
    );
    let beyond = attempted - (0.95 * attempted as f64).ceil() as u64;
    println!("  requests   {attempted} attempted, {failed} failed, {beyond} beyond p95");
    println!("  setup      {SETUP_REPS} set-ups: {setup_s:.4?} s");
    for m in &metrics {
        println!("  {:<12} {:>12.4} {}", m.name, m.value, m.unit);
    }
    // Input 0's counts, checked in set-up and by every later request on
    // it, so two runs print the same line.
    let counts = bench.first_counts(0).expect("set-up checks input 0");
    if let Some(err) = bench.delay_err_pct(counts) {
        let iss = bench.iss_delay.expect("set with the error").as_secs_f64() * 1e3;
        println!(
            "  delay_err_pct {err:.4} %  (architecture {:.3} ms vs ISS {iss:.3} ms)",
            counts.mean_delay_ns as f64 / 1e6
        );
    }
    println!("counts {}", counts.to_json());
    let correct = failed == 0 && good_host_s > 0.0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// Runs every workload, e2e then traced, each in a fresh child process,
/// one at a time, and optionally writes the combined results.
fn run_all(args: &Args) {
    let exe = sibling("benchmark");
    // Per pass (e2e, traced), per workload: the result line and the
    // document entry.
    let mut sections: [Vec<(Option<String>, String)>; 2] = Default::default();
    let mut overhead = Vec::new();
    let mut ok = true;
    for (t, section) in sections.iter_mut().enumerate() {
        for w in Workload::ALL {
            let mut child = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.as_secs_f64().to_string()])
                .args(["--trace", &t.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawning {}: {e}", exe.display()));
            let mut lines = Vec::new();
            for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
                let line = line.expect("child output is text");
                println!("{line}");
                lines.push(line);
            }
            let status = child.wait().expect("waiting for the child");
            let result = lines.last().filter(|l| l.starts_with('{'));
            ok &= status.success() && result.is_some_and(|l| l.contains("\"correct\":true"));
            let counts = lines.iter().find_map(|l| l.strip_prefix("counts "));
            let entry = format!(
                "\"{}\":{{\"result\":{},\"counts\":{}}}",
                w.name(),
                result.map_or("null", String::as_str),
                counts.unwrap_or("null")
            );
            section.push((result.cloned(), entry));
        }
    }
    println!("\ntrace overhead (traced run's plain step vs e2e run_ms.p50):");
    let passes = Workload::ALL.iter().zip(&sections[0]).zip(&sections[1]);
    for ((w, (e2e, _)), (traced, _)) in passes {
        let p50 = e2e.as_deref().and_then(|l| metric_in_line(l, "run_ms.p50"));
        let traced = traced
            .as_deref()
            .and_then(|l| metric_in_line(l, "host.traced_ms"));
        if let (Some(p50), Some(traced)) = (p50, traced) {
            let pct = (traced / p50 - 1.0) * 100.0;
            println!("  {:<18} {pct:+.2} %", w.name());
            overhead.push(format!("\"{}\":{pct}", w.name()));
        }
    }
    if let Some(path) = &args.json {
        let join = |s: &Vec<(Option<String>, String)>| {
            s.iter()
                .map(|(_, e)| e.as_str())
                .collect::<Vec<_>>()
                .join(",")
        };
        let doc = format!(
            "{{\"seed\":{},\"seconds\":{},\"host\":{},\"e2e\":{{{}}},\"traced\":{{{}}},\"trace_overhead_pct\":{{{}}}}}\n",
            args.seed,
            args.seconds.as_secs_f64(),
            host_json(),
            join(&sections[0]),
            join(&sections[1]),
            overhead.join(",")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing {}: {e}", path.display());
            exit(1);
        }
        println!("wrote {}", path.display());
    }
    if !ok {
        eprintln!("error: a workload failed its checks");
        exit(1);
    }
}

/// The host line every committed result carries.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{{\"nproc\":{nproc},\"cpu\":\"{cpu}\"}}")
}
