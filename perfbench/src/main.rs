//! The AlfredO benchmark: three workloads that drive the real stack
//! (`osgi` → `rosgi` → `alfredo` engine, session and room, plus `net`,
//! `ui` and `journal`) through public APIs.
//!
//! ```text
//! perfbench --workload <shop_churn|shop_taps|room_fanout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` measures the same workload untraced, then with the `obs`
//! layer on (for the tracing overhead), then with the per-layer probes,
//! and reports the per-layer metrics, the parts against the whole and the
//! tracing overhead. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod churn;
mod fanout;
mod layers;
mod shop;
mod taps;
mod util;

use std::time::{Duration, Instant};

use layers::{Layers, LAYERS};
use util::{median, peak_rss_mb, q, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Phases per measured stretch, each a process of its own with a freshly
/// set-up stack: `setup_s` is the median of their set-up times, and every
/// other metric pools their windows.
const PHASES: usize = 10;
/// Share of `--seconds` the traced run spends untraced, and again with
/// the `obs` layer on, for the tracing overhead; the rest runs probed.
const TRACED_RUN_COMPARE_SHARE: f64 = 0.35;
/// Seconds a side fixture runs to measure layers off the workload's path.
const SIDE_SECONDS: f64 = 1.0;
/// A run that has not finished by then is stopped with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

/// An end-to-end metric of one workload, under its own name: one value
/// per window, and the samples behind them.
pub struct Named {
    pub name: String,
    pub unit: String,
    pub windows: Vec<f64>,
    pub n: usize,
}

impl Named {
    pub fn new(name: &str, unit: &str, windows: Vec<f64>, n: usize) -> Self {
        Named {
            name: name.to_owned(),
            unit: unit.to_owned(),
            windows,
            n,
        }
    }

    /// The median of the window values (NaN when there are none).
    pub fn value(&self) -> f64 {
        q(&mut self.windows.clone(), 0.5)
    }
}

/// What one measured phase of a workload produced.
pub struct PhaseResult {
    pub named: Vec<Named>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed (also counted in `failed`).
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl PhaseResult {
    fn get(&self, name: &str) -> Option<&Named> {
        self.named.iter().find(|n| n.name == name)
    }

    /// Pools another phase of the same workload into this one.
    fn merge(mut self, other: PhaseResult) -> PhaseResult {
        for (mine, theirs) in self.named.iter_mut().zip(other.named) {
            debug_assert_eq!(mine.name, theirs.name);
            mine.windows.extend(theirs.windows);
            mine.n += theirs.n;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.notes.extend(other.notes);
        self
    }
}

/// The seed of phase `k`: every phase gets its own inputs, all drawn
/// from the run's seed.
fn phase_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x100_0000_01B3).wrapping_add(k as u64)
}

/// How much of the stack's own tracing a set-up switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// The `obs` spans and histograms the stack already records.
    Obs,
    /// `Obs`, plus the benchmark's per-layer probes (echo peers, timed
    /// room sinks), which `measure` runs when given `layers`.
    Probed,
}

/// A workload's running stack.
pub trait Stack {
    /// Runs the workload for `secs`; with `layers`, probes each layer.
    fn measure(&mut self, secs: f64, seed: u64, layers: Option<&mut Layers>) -> PhaseResult;
    /// Counts allocations and wire traffic per operation with one load
    /// thread running. Called on a stack set up with `Tracing::Off`, so
    /// the counts are the program's as the end-to-end runs use it.
    fn count(&mut self, seed: u64, layers: &mut Layers);
    fn teardown(self: Box<Self>);
}

/// One workload: how it is built, and which of its own metrics fill the
/// shared end-to-end slots of `BENCHMARK.json`.
struct Workload {
    name: &'static str,
    transport: &'static str,
    load: &'static str,
    /// Own metric names for `throughput_per_s`, `latency_p50_us`,
    /// `latency_p95_us` and `slow_path_us`.
    slots: [&'static str; 4],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "shop_churn",
        transport: "loopback TCP (reactor)",
        load: "closed loop, 2 phone threads, 1 session in 8 cold",
        slots: [
            "sessions_per_s",
            "startup_p50_us",
            "startup_p95_us",
            "startup_cold_p50_us",
        ],
    },
    Workload {
        name: "shop_taps",
        transport: "in-memory channel fabric",
        load: "closed loop, 2 phone threads, one long-lived session each",
        slots: [
            "taps_per_s",
            "tap_p50_us",
            "tap_p95_us",
            "tap_detail_p50_us",
        ],
    },
    Workload {
        name: "room_fanout",
        transport: "loopback TCP (reactor), 8 receiving members",
        load: "open loop, 1 generator thread",
        slots: [
            "publish_capacity_per_s",
            "delta_p50_us",
            "delta_p95_us",
            "fanout_p95_us",
        ],
    },
];

const SLOT_NAMES: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("slow_path_us", "us"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    /// In a phase process: whether the `obs` layer is on.
    trace: bool,
    /// Set in a phase process: run phase `k` only and report it.
    phase: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut phase = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            // Internal: how a run starts its phase processes.
            "--phase" => phase = Some(value.parse::<usize>().map_err(|e| bad(e.to_string()))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        phase,
    })
}

fn setup(workload: &str, seed: u64, tracing: Tracing) -> Box<dyn Stack> {
    match workload {
        "shop_churn" => Box::new(churn::Churn::setup(seed, tracing)),
        "shop_taps" => Box::new(taps::Taps::setup(seed, tracing)),
        "room_fanout" => Box::new(fanout::Fanout::setup(seed, tracing)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs `Stack::count` for `workload` on a fresh untraced stack.
fn count(workload: &str, seed: u64, layers: &mut Layers) {
    let mut stack = setup(workload, seed, Tracing::Off);
    util::counted(|| stack.count(seed, layers));
    stack.teardown();
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}, giving up");
        std::process::exit(3);
    });
    if let Some(k) = args.phase {
        phase_process(&args, k, process_start);
    }
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={commit} cores={cores}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# transport: {}; load: {}", w.transport, w.load);

    let json = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    println!("{json}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Reactor and timer threads are process-wide; exiting ends them.
    std::process::exit(0);
}

fn untraced_run(args: &Args) -> String {
    let w = args.workload;
    let (res, setups, rss) = run_phases(args, args.seconds, false);
    let setup_s = median(&mut setups.clone()).unwrap_or(f64::NAN);

    print_named(&res, "");
    println!(
        "setup_s = {setup_s:.4} s (median of {PHASES} set-ups: {})",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("peak_rss_mb = {rss:.2} MiB (largest of the phase processes)");

    let mut metrics = vec![("setup_s", "s", setup_s), ("peak_rss_mb", "MiB", rss)];
    for (slot, (name, unit)) in w.slots.iter().zip(SLOT_NAMES) {
        let v = res.get(slot).map_or(f64::NAN, |n| n.value());
        metrics.push((name, unit, v));
    }
    result_json(res.mismatches == 0, res.attempted, res.failed, &metrics)
}

fn traced_run(args: &Args) -> String {
    let w = args.workload;
    let compare_secs = args.seconds * TRACED_RUN_COMPARE_SHARE;
    let (plain, _, _) = run_phases(args, compare_secs, false);
    let (obs, _, _) = run_phases(args, compare_secs, true);

    let mut layers = Layers::default();
    let mut stack = setup(w.name, args.seed, Tracing::Probed);
    let probed = stack.measure(
        args.seconds - 2.0 * compare_secs,
        args.seed,
        Some(&mut layers),
    );
    stack.teardown();
    count(w.name, args.seed, &mut layers);
    shop::probe_render(&mut layers, 200);

    for side in ["shop_churn", "room_fanout", "shop_taps"] {
        if side == w.name || LAYERS.iter().all(|d| layers.has(d.name)) {
            continue;
        }
        let mut side_layers = Layers::default();
        let mut stack = setup(side, args.seed, Tracing::Probed);
        stack.measure(SIDE_SECONDS, args.seed, Some(&mut side_layers));
        stack.teardown();
        count(side, args.seed, &mut side_layers);
        layers.fill_from_side(side_layers);
    }

    print_named(&plain, "untraced ");
    print_named(&obs, "obs ");
    print_named(&probed, "probed ");
    println!("# per-layer metrics (probed); `side` = measured on a side fixture, off this workload's path");
    for d in LAYERS {
        match layers.value(d.name) {
            Some(v) => println!(
                "{} = {v:.3} {} (n={}, {}) — should move {}",
                d.name,
                d.unit,
                layers.count(d.name),
                if layers.is_side(d.name) {
                    "side"
                } else {
                    "on path"
                },
                d.moves
            ),
            None => println!("{} = (not measured) {}", d.name, d.unit),
        }
    }
    parts_against_whole(&layers, &probed);
    println!(
        "# tracing overhead: median with obs on minus untraced median \
         (both as {PHASES} phase processes, probes off)"
    );
    for n in &obs.named {
        if let Some(p) = plain.get(&n.name) {
            println!(
                "overhead {} = {:+.2} {}",
                n.name,
                n.value() - p.value(),
                n.unit
            );
        }
    }

    let metrics: Vec<(&str, &str, f64)> = LAYERS
        .iter()
        .map(|d| (d.name, d.unit, layers.value(d.name).unwrap_or(f64::NAN)))
        .collect();
    let all = [&plain, &obs, &probed];
    result_json(
        all.iter().all(|r| r.mismatches == 0),
        all.iter().map(|r| r.attempted).sum(),
        all.iter().map(|r| r.failed).sum(),
        &metrics,
    )
}

/// What a phase process reports: its result, its set-up time (from the
/// process's start) and its peak RSS.
struct Phase {
    result: PhaseResult,
    setup_s: f64,
    rss_mb: f64,
}

/// Runs the workload for `secs` as `PHASES` phase processes, with the
/// `obs` layer on or off; returns their pooled result, set-up times and
/// largest peak RSS.
fn run_phases(args: &Args, secs: f64, obs: bool) -> (PhaseResult, Vec<f64>, f64) {
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    let mut res: Option<PhaseResult> = None;
    for k in 0..PHASES {
        let phase = run_phase_process(args, k, secs / PHASES as f64, obs);
        setups.push(phase.setup_s);
        rss = rss.max(phase.rss_mb);
        res = Some(match res {
            Some(r) => r.merge(phase.result),
            None => phase.result,
        });
    }
    (res.expect("at least one phase"), setups, rss)
}

/// Runs phase `k` of the workload for `secs` in a process of its own, so
/// every phase starts with fresh threads, allocator and descriptor table,
/// and waits for it. In a phase process `--trace 1` switches `obs` on.
fn run_phase_process(args: &Args, k: usize, secs: f64, obs: bool) -> Phase {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &secs.to_string()])
        .args(["--trace", if obs { "1" } else { "0" }])
        .args(["--phase", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a phase process");
    let text = String::from_utf8_lossy(&output.stdout);
    match (output.status.success(), parse_phase(&text)) {
        (true, Some(phase)) => phase,
        _ => {
            eprintln!("perfbench: phase {k} failed ({})", output.status);
            std::process::exit(1);
        }
    }
}

/// The body of a phase process: set up, measure, report, exit.
fn phase_process(args: &Args, k: usize, process_start: Instant) -> ! {
    let seed = phase_seed(args.seed, k);
    let tracing = if args.trace {
        Tracing::Obs
    } else {
        Tracing::Off
    };
    let mut stack = setup(args.workload.name, seed, tracing);
    let setup_s = process_start.elapsed().as_secs_f64();
    let res = stack.measure(args.seconds, seed, None);
    stack.teardown();
    let mut out = String::new();
    for n in &res.named {
        let windows: Vec<String> = n.windows.iter().map(f64::to_string).collect();
        out += &format!(
            "metric {} {} {} {}\n",
            n.name,
            n.unit,
            n.n,
            windows.join(" ")
        );
    }
    out += &format!(
        "counts {} {} {}\nsetup_s {setup_s}\nrss_mb {}\n",
        res.attempted,
        res.failed,
        res.mismatches,
        peak_rss_mb()
    );
    for note in &res.notes {
        out += &format!("note {note}\n");
    }
    print!("{out}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

fn parse_phase(text: &str) -> Option<Phase> {
    let mut res = PhaseResult {
        named: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: 0,
        notes: Vec::new(),
    };
    let (mut setup_s, mut rss_mb) = (None, None);
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut fields = rest.split_whitespace();
        match tag {
            "metric" => {
                let name = fields.next()?;
                let unit = fields.next()?;
                let n = fields.next()?.parse().ok()?;
                let windows = fields.map(str::parse).collect::<Result<_, _>>().ok()?;
                res.named.push(Named::new(name, unit, windows, n));
            }
            "counts" => {
                res.attempted = fields.next()?.parse().ok()?;
                res.failed = fields.next()?.parse().ok()?;
                res.mismatches = fields.next()?.parse().ok()?;
            }
            "setup_s" => setup_s = fields.next()?.parse().ok(),
            "rss_mb" => rss_mb = fields.next()?.parse().ok(),
            "note" => res.notes.push(rest.to_owned()),
            _ => {}
        }
    }
    Some(Phase {
        result: res,
        setup_s: setup_s?,
        rss_mb: rss_mb?,
    })
}

fn print_named(res: &PhaseResult, prefix: &str) {
    for n in &res.named {
        println!(
            "{prefix}{} = {:.3} {} (n={})",
            n.name,
            n.value(),
            n.unit,
            n.n
        );
    }
    let ratio = res.failed as f64 / res.attempted.max(1) as f64;
    println!(
        "{prefix}error_ratio = {ratio:.6} failed/attempted ({} of {}, {} output mismatches)",
        res.failed, res.attempted, res.mismatches
    );
    for note in &res.notes {
        println!("{prefix}note: {note}");
    }
}

/// Sums the measured layer medians under `startup_p50_us` and
/// `tap_p50_us` of the probed stretch and prints what they leave
/// unexplained.
fn parts_against_whole(layers: &Layers, probed: &PhaseResult) {
    let v = |n: &str| layers.value(n).unwrap_or(0.0);
    println!("# parts against the whole (probed medians)");
    if probed.get("startup_p50_us").is_none() && probed.get("tap_p50_us").is_none() {
        println!("(this workload reports neither startup_p50_us nor tap_p50_us)");
    }
    if let Some(startup) = probed.get("startup_p50_us") {
        let parts = [
            "net.tcp_connect_us",
            "alfredo.connect_us",
            "alfredo.acquire_us",
        ];
        let sum: f64 = parts.iter().map(|p| v(p)).sum();
        println!(
            "startup_p50_us = {:.1} us; {} = {sum:.1} us; residual = {:.1} us",
            startup.value(),
            parts.join(" + "),
            startup.value() - sum
        );
        let phases = [
            "alfredo.phase.handshake_us",
            "alfredo.phase.lease_us",
            "alfredo.phase.tier_transfer_us",
            "alfredo.phase.render_us",
        ];
        let sum: f64 = phases.iter().map(|p| v(p)).sum();
        println!("  engine phase spans: {} = {sum:.1} us", phases.join(" + "));
    }
    if let Some(tap) = probed.get("tap_p50_us") {
        let encode = v("rosgi.encode_ns") / 1e3;
        let decode = v("rosgi.decode_ns") / 1e3;
        let (ping, service, controller) = (
            v("rosgi.ping_us"),
            v("osgi.service_us"),
            v("alfredo.controller_us"),
        );
        let sum = ping + service + encode + decode + controller;
        println!(
            "tap_p50_us = {:.1} us; rosgi.ping_us {ping:.1} + osgi.service_us {service:.1} + \
             rosgi.encode {encode:.2} + rosgi.decode {decode:.2} + alfredo.controller_us \
             {controller:.1} = {sum:.1} us; residual = {:.1} us",
            tap.value(),
            tap.value() - sum
        );
        let handoff = ping + v("rosgi.residual_us").max(0.0);
        println!(
            "  hand-off (ping + invoke residual) = {handoff:.1} us vs codec (encode + decode) = \
             {:.2} us: {}",
            encode + decode,
            if handoff > 4.0 * (encode + decode) {
                "hand-off dominates the invoke"
            } else {
                "the codec is a comparable share of the invoke"
            }
        );
    }
}

/// The result line. A metric that is not a finite number makes the run
/// incorrect and is written as 0.
fn result_json(ok: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut correct = ok;
    let mut body = Vec::new();
    for (name, unit, v) in metrics {
        let v = if v.is_finite() {
            *v
        } else {
            correct = false;
            0.0
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
