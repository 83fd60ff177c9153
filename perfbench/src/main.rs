//! The COSMOS benchmark binary.
//!
//! ```text
//! cosmos-perfbench --workload fanout|sensor-mix|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that produces the per-layer metrics. The last
//! line of standard output is the result object; lines starting with
//! `detail ` carry the run's counters and sample counts for the run
//! record. See `README.md` in this directory.

mod alloc;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use run::{deploy, no_record, Counters, Tally};
use stats::{median, percentile, print_result, Metric};
use workload::{Kind, Plan};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds: Option<u64> = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosmos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.kind, args.seed);
    println!(
        "detail {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"hardware_threads\": {}, \"source_tuples\": {}, \"batches\": {}, \"controls\": {}, \"open_loop_rate_tps\": {}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.inputs.len(),
        plan.batches.len(),
        plan.controls.len(),
        args.kind.open_loop_rate()
    );
    let ok = if args.trace {
        trace::traced_run(&plan)
    } else {
        measured_run(&plan, args.seconds)
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Closed-loop chunks per repetition.
const CHUNKS: usize = 64;

/// Per index, the smallest sample over the repetitions that have one.
///
/// The host's speed drifts by up to 1.7x over seconds while nothing in
/// the program changes, and interference only ever slows a sample down.
/// Each repetition does exactly the same work in the same order, so the
/// smallest of a chunk's, a tuple's or a submit's samples across
/// repetitions is its cost with the least interference, and the system's
/// own stalls, which recur at the same index in every repetition, stay.
fn least_per_index(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            reps.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"link_bytes\": {}, \"weighted_cost_bits\": {}, \"tuple_hops\": {}, \"plan_hits\": {}, \"plan_misses\": {}, \"delivered\": {}, \"delivered_digest\": {}, \"routing_digest\": {}}}",
        c.link_bytes,
        c.weighted_cost_bits,
        c.tuple_hops,
        c.plan_hits,
        c.plan_misses,
        c.delivered,
        c.delivered_digest,
        c.routing_digest
    )
}

/// The untraced run, its repetitions fixed per workload
/// (`Kind::repetitions`), each on a fresh deployment. Closed loop: every
/// batch driven back to back, each chunk of batches timed; the last one
/// is checked against the reference evaluator. Open loop: the leading
/// batches driven on the schedule. The two alternate, spread evenly over
/// the run, so both see the host's fast and slow spells. Then further
/// set-ups, up to the workload's count. Returns whether a result line was
/// printed.
fn measured_run(plan: &Plan, seconds: u64) -> bool {
    let rate = plan.kind.open_loop_rate();
    let n = plan.inputs.len() as f64;
    let chunks = plan.chunks(CHUNKS);
    let reps = plan.kind.repetitions(seconds);
    let open_batches = plan.open_loop_batches(rate, reps.open_seconds);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut submits: Vec<Vec<f64>> = Vec::new();
    let mut deploy_one = |tally: &mut Tally, submits: &mut Vec<Vec<f64>>| {
        let mut sub = Vec::new();
        let (d, s) = deploy(plan, tally, &mut sub, &mut no_record, true)?;
        setup_s.push(s);
        submits.push(sub);
        Some(d)
    };

    let mut chunk_s: Vec<Vec<f64>> = Vec::new();
    let mut closed_wall_tps = Vec::new();
    let mut speed_factors = Vec::new();
    let mut closed_counters: Vec<Counters> = Vec::new();
    let mut service: Vec<Vec<f64>> = Vec::new();
    let mut wall_latency: Vec<Vec<f64>> = Vec::new();
    let mut lateness: Vec<Vec<f64>> = Vec::new();
    let mut open_counters: Vec<Counters> = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut checked = 0;
    let total = reps.closed + reps.open;
    for k in 0..total {
        let Some(mut d) = deploy_one(&mut tally, &mut submits) else {
            break;
        };
        let sub = submits.last_mut().expect("pushed by deploy_one");
        if (k + 1) * reps.open / total > k * reps.open / total {
            let o = run::open_loop(plan, &mut d, rate, open_batches, &mut tally, sub);
            service.push(o.service_us);
            wall_latency.push(o.wall_latency_us);
            lateness.push(o.lateness_us);
            open_counters.push(d.counters(plan));
        } else {
            let (wall, factors) = run::closed_loop(plan, &mut d, &chunks, &mut tally, sub);
            chunk_s.push(wall.iter().zip(&factors).map(|(t, f)| t * f).collect());
            closed_wall_tps.push(n / wall.iter().sum::<f64>());
            speed_factors.extend(factors);
            closed_counters.push(d.counters(plan));
            if closed_counters.len() == reps.closed {
                peak_rss = peak_rss_mb();
                checked = d.check(plan, &mut tally);
            }
        }
    }
    if closed_counters.len() < reps.closed || open_counters.len() < reps.open {
        eprintln!("cosmos-perfbench: deployment failed: {:?}", tally.errors);
        return false;
    }
    // More set-ups where they are cheap, so `setup_s` is a median of
    // many; each is dropped at once.
    while submits.len() < reps.setups {
        if deploy_one(&mut tally, &mut submits).is_none() {
            break;
        }
    }

    // Deterministic counters: every repetition of a phase must have done
    // exactly the same work.
    for counters in [&closed_counters, &open_counters] {
        tally.attempted += counters.len() as u64;
        if counters.iter().any(|c| *c != counters[0]) {
            tally.fail(format!(
                "deterministic counters differ across repetitions: {counters:?}"
            ));
        }
    }
    let chunk_min = least_per_index(&chunk_s);
    let latency_min = run::queue_latency(plan, rate, &least_per_index(&service));
    let wall_latency_min = least_per_index(&wall_latency);
    let lateness_min = least_per_index(&lateness);
    let submit_min = least_per_index(&submits);
    let c = closed_counters[0];
    println!(
        "detail {{\"closed_loop_reps\": {}, \"closed_loop_wall_tps\": {:?}, \"open_loop_reps\": {}, \"open_loop_tuples\": {}, \"latency_samples\": {}, \"submit_samples\": {}, \"setup_s\": {:?}, \"checked_queries\": {checked}, \"speed_factor_p10\": {}, \"speed_factor_p50\": {}, \"speed_factor_p90\": {}, \"wall_latency_p50_us\": {}, \"wall_latency_p99_us\": {}, \"lateness_p50_us\": {}, \"lateness_p99_us\": {}, \"failed_ratio\": {}, \"counters\": {}, \"open_loop_counters\": {}}}",
        chunk_s.len(),
        closed_wall_tps,
        service.len(),
        plan.batches[open_batches - 1].end,
        latency_min.len(),
        submit_min.len(),
        setup_s,
        stats::json_number(percentile(&speed_factors, 10.0)),
        stats::json_number(percentile(&speed_factors, 50.0)),
        stats::json_number(percentile(&speed_factors, 90.0)),
        stats::json_number(percentile(&wall_latency_min, 50.0)),
        stats::json_number(percentile(&wall_latency_min, 99.0)),
        stats::json_number(percentile(&lateness_min, 50.0)),
        stats::json_number(percentile(&lateness_min, 99.0)),
        stats::json_number(tally.failed as f64 / tally.attempted.max(1) as f64),
        counters_json(&c),
        open_counters.first().map_or("null".to_string(), counters_json),
    );
    for e in &tally.errors {
        eprintln!("cosmos-perfbench: {e}");
    }
    let metrics = [
        Metric {
            name: "throughput_tps",
            value: n / chunk_min.iter().sum::<f64>(),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_us",
            value: percentile(&latency_min, 50.0),
            unit: "us",
        },
        Metric {
            name: "latency_p99_us",
            value: percentile(&latency_min, 99.0),
            unit: "us",
        },
        Metric {
            name: "submit_p50_us",
            value: percentile(&submit_min, 50.0),
            unit: "us",
        },
        Metric {
            name: "submit_p90_us",
            value: percentile(&submit_min, 90.0),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "link_bytes_per_tuple",
            value: c.link_bytes as f64 / n,
            unit: "B",
        },
        Metric {
            name: "weighted_cost_per_tuple",
            value: f64::from_bits(c.weighted_cost_bits) / n,
            unit: "B.delay",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];
    let finite = metrics.iter().all(|m| m.value.is_finite());
    print_result(
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        &metrics,
    );
    true
}
