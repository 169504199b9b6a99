//! `perfbench`: the repository benchmark. It drives the trained
//! default-scale detector through three seeded workloads, checks every
//! output against a computation made apart from the serving layers, and
//! prints each metric by name with its unit. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload long-paced --seed 1 --seconds 15 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- train
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod bundle;
mod check;
mod corpus;
mod http;
mod layers;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ibcm_core::{AlarmPolicy, FaultCounters, SessionVerdict, StreamConfig};

use crate::check::SeqAlarm;
use crate::corpus::Inputs;
use crate::served::Load;
use crate::stats::Latency;
use crate::trace::Tracer;

type Error = Box<dyn std::error::Error + Send + Sync>;

/// Daemon shards: no more than the reference host's cores (2).
pub const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The stream semantics every workload serves and the reference replays:
/// the daemon benchmark's window/trend policy with a 0.1 likelihood
/// threshold, which raises an alarm on roughly one event in eight, so
/// every run has enough alarms for a tail percentile of alarm lag.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        policy: AlarmPolicy {
            likelihood_threshold: 0.1,
            window: 5,
            warmup: 5,
            trend_window: 5,
            ..AlarmPolicy::default()
        },
        ..StreamConfig::default()
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReplaySaturate,
    LongPaced,
    HttpPaced,
}

/// Offered rates. Each is fixed, so a faster program is measured at the
/// same load, and each sits well below what the reference host sustains.
const SATURATE_SCORE_HZ: f64 = 20.0;
const LONG_EVENTS_HZ: f64 = 1500.0;
const LONG_BURST: usize = 150;
/// One verdict per burst, sent between bursts (see `served::phase`).
const LONG_SCORE_HZ: f64 = 10.0;
const HTTP_CYCLE_HZ: f64 = 8.0;
const HTTP_BATCH: usize = 100;
/// One verdict request per event cycle, sent half a cycle after the batch.
const HTTP_SCORE_HZ: f64 = HTTP_CYCLE_HZ;
/// Closed-loop input is sized for this many events a second, about four
/// times what the reference host reaches, so the stream never runs dry.
const SATURATE_HEADROOM_HZ: f64 = 25_000.0;

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "replay-saturate" => Some(Workload::ReplaySaturate),
            "long-paced" => Some(Workload::LongPaced),
            "http-paced" => Some(Workload::HttpPaced),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReplaySaturate => "replay-saturate",
            Workload::LongPaced => "long-paced",
            Workload::HttpPaced => "http-paced",
        }
    }

    fn inputs(self, seed: u64, seconds: f64) -> Inputs {
        let span = seconds + 1.0;
        let scored = |hz: f64| (hz * seconds).ceil() as usize;
        match self {
            Workload::ReplaySaturate => corpus::default_scale(
                seed,
                (SATURATE_HEADROOM_HZ * span) as usize,
                scored(SATURATE_SCORE_HZ),
            ),
            Workload::LongPaced => corpus::long_sessions(
                seed,
                (LONG_EVENTS_HZ * span) as usize,
                scored(LONG_SCORE_HZ),
            ),
            Workload::HttpPaced => corpus::default_scale(
                seed,
                (HTTP_CYCLE_HZ * HTTP_BATCH as f64 * span) as usize,
                scored(HTTP_SCORE_HZ),
            ),
        }
    }

    fn ckpt(self) -> PathBuf {
        out_dir().join(format!("ckpt-{}", self.name()))
    }
}

/// Operations attempted and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub events: u64,
    pub scores: u64,
    pub alarm_pages: u64,
    pub http_429: u64,
    pub http_5xx: u64,
    pub failed_shards: u64,
    pub restarts: u64,
    /// Other refused or failed calls.
    pub failed: u64,
}

impl Ops {
    fn attempted(&self) -> u64 {
        self.events + self.scores + self.alarm_pages + self.http_429
    }

    fn failed(&self) -> u64 {
        self.failed + self.http_429 + self.failed_shards + self.restarts
    }
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// One measured pass of a workload.
#[derive(Default)]
pub struct Phase {
    /// Events admitted: a prefix of the workload's stream.
    pub admitted: usize,
    /// From the first event offered until the drain returned.
    pub wall_s: f64,
    /// From the first event offered until the last one was.
    pub producer_s: f64,
    /// Alarms with the moment each became visible to the client.
    pub alarms: Vec<(SeqAlarm, f64)>,
    pub counters: FaultCounters,
    /// When each admitted event was due.
    pub due_s: Vec<f64>,
    pub verdicts: Vec<(usize, SessionVerdict)>,
    pub score_latency_ms: Vec<f64>,
    /// How late the open-loop generators ran, per scheduled send.
    pub lateness_ms: Vec<f64>,
    pub ops: Ops,
    /// Alarms the server still held at drain (never paged).
    pub unpaged: u64,
    pub peak_rss_mb: f64,
    pub layers: Vec<Metric>,
    pub tracer: Tracer,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Phase {
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    fn events_per_s(&self) -> f64 {
        self.admitted as f64 / self.wall_s.max(1e-9)
    }

    fn alarm_lag(&self, reference: &check::Reference) -> Latency {
        let lags: Vec<f64> = self
            .alarms
            .iter()
            .filter_map(|(a, at)| {
                let event = reference.event_of_seq(a.seq)?;
                Some((at - self.due_s.get(event)?) * 1e3)
            })
            .collect();
        Latency::of(&lags)
    }

    /// Every correctness check on this phase's outputs.
    fn check(
        &self,
        detector: &ibcm_core::MisuseDetector,
        inputs: &Inputs,
        reference: &check::Reference,
        counters: FaultCounters,
    ) -> Result<(), String> {
        let alarms: Vec<SeqAlarm> = self.alarms.iter().map(|(a, _)| a.clone()).collect();
        check::alarms_match(&alarms, &reference.prefix(self.admitted))?;
        check::alarms_obey_policy(&alarms, &stream_config())?;
        if self.counters != counters {
            return Err(format!(
                "fault counters {:?} differ from the reference {counters:?}",
                self.counters
            ));
        }
        check::verdicts_match(detector, &inputs.sessions, &self.verdicts)?;
        if self.unpaged > 0 {
            return Err(format!("{} alarms were never paged", self.unpaged));
        }
        if self.ops.failed() > 0 {
            return Err(format!("operations failed: {:?}", self.ops));
        }
        Ok(())
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, Error> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!("unknown workload {name:?} (replay-saturate, long-paced, http-paced)")
                })?);
            }
            "--seed" => seed = value()?.parse()?,
            "--seconds" => seconds = value()?.parse()?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Times `SETUP_REPS` set-ups, shutting all but the last down again.
fn timed_setups<T>(
    mut start: impl FnMut() -> Result<T, Error>,
    mut stop: impl FnMut(T) -> Result<(), Error>,
) -> Result<(f64, T), Error> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let started = start()?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            last = Some(started);
        } else {
            stop(started)?;
        }
    }
    Ok((stats::quantile(&times, 0.5), last.ok_or("no set-up")?))
}

/// Runs one measured phase of `w`. The first phase of a run also times
/// set-up; later ones start untimed.
fn run_phase(
    w: Workload,
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    timed: bool,
) -> Result<(Phase, f64), Error> {
    let out = out_dir();
    match w {
        Workload::ReplaySaturate | Workload::LongPaced => {
            let (setup_s, (detector, daemon)) = if timed {
                timed_setups(
                    || served::start(&out, &w.ckpt()),
                    |(_, mut d)| d.drain().map(|_| ()).map_err(Into::into),
                )?
            } else {
                (0.0, served::start(&out, &w.ckpt())?)
            };
            let (load, score_hz) = match w {
                Workload::ReplaySaturate => (Load::Saturate, SATURATE_SCORE_HZ),
                _ => (
                    Load::Paced {
                        rate: LONG_EVENTS_HZ,
                        burst: LONG_BURST,
                    },
                    LONG_SCORE_HZ,
                ),
            };
            let ph = served::phase(
                &detector,
                daemon,
                inputs,
                load,
                score_hz,
                seconds,
                trace,
                &w.ckpt(),
            )?;
            Ok((ph, setup_s))
        }
        Workload::HttpPaced => {
            let name = format!("ckpt-{}", w.name());
            let (setup_s, server) = if timed {
                timed_setups(|| http::Server::start(&name), |s| s.stop().map(|_| ()))?
            } else {
                (0.0, http::Server::start(&name)?)
            };
            let ph = http::phase(
                server,
                inputs,
                HTTP_CYCLE_HZ,
                HTTP_BATCH,
                HTTP_SCORE_HZ,
                seconds,
                trace,
            )?;
            Ok((ph, setup_s))
        }
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn print_ops(label: &str, ph: &Phase) {
    let o = ph.ops;
    println!(
        "ops[{label}]: events {} scores {} alarm_pages {} http_429 {} http_5xx {} \
         failed_shards {} restarts {} other_failed {} | attempted {} failed {} | \
         generator lateness p50 {:.3} ms p99 {:.3} ms",
        o.events,
        o.scores,
        o.alarm_pages,
        o.http_429,
        o.http_5xx,
        o.failed_shards,
        o.restarts,
        o.failed,
        o.attempted(),
        o.failed(),
        stats::quantile(&ph.lateness_ms, 0.5),
        stats::quantile(&ph.lateness_ms, 0.99),
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, Error> {
    let out = out_dir();
    bundle::ensure(&out)?;
    let w = args.workload;
    let inputs = w.inputs(args.seed, args.seconds);
    eprintln!(
        "[perfbench] {} seed {} seconds {} trace {}: {} events, {} sessions available",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        inputs.events.len(),
        inputs.sessions.len()
    );

    // End-to-end figures come from an untraced phase; the traced run adds
    // a second, traced phase and the isolated layer timings.
    let (plain, setup_s) = run_phase(w, &inputs, args.seconds, false, true)?;
    let traced = if args.trace {
        Some(run_phase(w, &inputs, args.seconds, true, false)?.0)
    } else {
        None
    };
    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();

    // The oracle: one single-threaded replay of the longest admitted
    // prefix, with the lm/nn counters read around it.
    let detector = bundle::load(&out)?;
    let config = stream_config();
    let mut marks: Vec<usize> = phases.iter().map(|p| p.admitted).collect();
    marks.sort_unstable();
    let longest = marks.last().copied().unwrap_or(0);
    let before = ibcm_obs::global().render_prometheus();
    let reference = check::replay(&detector, &config, &inputs.events[..longest], &marks);
    let after = ibcm_obs::global().render_prometheus();
    let delta = |name: &str| stats::prom_sum(&after, name) - stats::prom_sum(&before, name);
    let scored_per_event = delta("ibcm_lm_actions_scored_total") / longest.max(1) as f64;
    let kernels_per_event = delta("ibcm_nn_kernel_calls_total") / longest.max(1) as f64;
    // The fault counters the replay recorded after `admitted` events.
    let counters_at = |admitted: usize| {
        let at = marks.iter().position(|&m| m == admitted).unwrap_or(0);
        reference.counters_at[at]
    };

    let mut correct = true;
    for (i, ph) in phases.iter().enumerate() {
        if let Err(e) = ph.check(&detector, &inputs, &reference, counters_at(ph.admitted)) {
            eprintln!("[perfbench] CHECK FAILED ({} phase {i}): {e}", w.name());
            correct = false;
        }
        print_ops(if i == 0 { "untraced" } else { "traced" }, ph);
    }

    let lag = plain.alarm_lag(&reference);
    let score = Latency::of(&plain.score_latency_ms);
    println!(
        "{} seed {}: {} events admitted, {} alarms (lag tail = p{:.1} of {}), {} verdicts \
         (score tail = p{:.1} of {}), all outputs {}",
        w.name(),
        args.seed,
        plain.admitted,
        plain.alarms.len(),
        lag.tail_q * 100.0,
        lag.n,
        plain.verdicts.len(),
        score.tail_q * 100.0,
        score.n,
        if correct { "checked OK" } else { "WRONG" }
    );
    // Gated end-to-end metrics: the ones whose run-to-run spread on the
    // reference host stays well inside their bound (see README.md,
    // "Bounds and spread"). The latency tails and verdict latencies are
    // printed here and reported by the traced run, without a bound.
    let e2e = vec![
        metric("events_per_s", plain.events_per_s(), "1/s"),
        metric("alarm_lag_p50_ms", lag.p50, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", plain.peak_rss_mb, "MB"),
    ];
    let unbounded = vec![
        metric("alarm_lag_p99_ms", lag.tail, "ms"),
        metric("score_p50_ms", score.p50, "ms"),
        metric("score_p99_ms", score.tail, "ms"),
    ];
    print_table("end-to-end", &e2e);
    print_table("end-to-end, reported without a bound", &unbounded);

    let attempted: u64 = phases.iter().map(|p| p.ops.attempted()).sum();
    let failed: u64 = phases.iter().map(|p| p.ops.failed()).sum();
    let Some(mut traced) = traced else {
        println!("{}", json_line(correct, attempted, failed, &e2e));
        return Ok(correct);
    };

    // Per-layer figures: the traced phase's own, then isolated timings on
    // the same events and sessions.
    let mut tracer = std::mem::take(&mut traced.tracer);
    let mut layer = std::mem::take(&mut traced.layers);
    layer.extend(unbounded);
    let events = &inputs.events[..traced.admitted];
    tracer.enter("layers");
    let costs = layers::measure(&detector, &inputs.sessions, events, &mut tracer);
    // Closed-loop capacity on the same events: the traced phase itself on
    // replay-saturate, an isolated in-process daemon pass on the paced
    // workloads (whose own throughput is their offered rate).
    let capacity_eps = if w == Workload::ReplaySaturate {
        plain.events_per_s()
    } else {
        let (det, daemon) = served::start(&out, &w.ckpt())?;
        let isolated = Inputs {
            events: events.to_vec(),
            sessions: Vec::new(),
        };
        tracer.enter("served.closed_loop_pass");
        let mut ph = served::phase(
            &det,
            daemon,
            &isolated,
            Load::Saturate,
            0.0,
            f64::INFINITY,
            true,
            &w.ckpt(),
        )?;
        tracer.exit();
        if let Err(e) = ph.check(
            &detector,
            &isolated,
            &reference,
            counters_at(traced.admitted),
        ) {
            eprintln!("[perfbench] CHECK FAILED (closed-loop daemon pass): {e}");
            correct = false;
        }
        if w == Workload::HttpPaced {
            // The serving daemon lives in the server child: its served.*
            // figures come from this pass over the same events.
            layer.append(&mut ph.layers);
        }
        ph.events_per_s()
    };
    if w != Workload::HttpPaced {
        let (handler_ms, transport_ms) = http::probe(&inputs, 20, 100)?;
        layer.push(metric("http.handler_ms", handler_ms, "ms"));
        layer.push(metric("http.transport_wait_ms", transport_ms, "ms"));
    }
    tracer.exit();
    let _ = std::fs::remove_dir_all(w.ckpt());

    let k = detector.n_clusters() as f64;
    let pre = layers::pre_lock_in_share(&inputs.events[..longest], &config, detector.lock_in());
    let ocsvm_per_event = pre * costs.ocsvm_scores_us;
    let lm_per_event = scored_per_event * costs.lm_try_feed_us
        + (k - scored_per_event).max(0.0) * costs.lm_try_advance_us;
    let layer_sum = ocsvm_per_event + lm_per_event;
    let e2e_per_event = SHARDS as f64 * 1e6 / capacity_eps;
    let traced_lag = traced.alarm_lag(&reference);
    layer.extend([
        metric("core.monitor_event_us", reference.per_event_us, "us"),
        metric("core.score_session_us", costs.score_session_us, "us"),
        metric(
            "core.checkpoint_bytes",
            reference.checkpoint_bytes as f64,
            "bytes",
        ),
        metric(
            "core.checkpoint_encode_ms",
            reference.checkpoint_encode_ms,
            "ms",
        ),
        metric("ocsvm.scores_us", costs.ocsvm_scores_us, "us"),
        metric("ocsvm.pre_lock_in_share", pre, "ratio"),
        metric("lm.try_feed_us", costs.lm_try_feed_us, "us"),
        metric("lm.try_advance_us", costs.lm_try_advance_us, "us"),
        metric("lm.actions_scored_per_event", scored_per_event, "count"),
        metric("nn.kernel_calls_per_event", kernels_per_event, "count"),
        metric("http.read_request_us", costs.read_request_us, "us"),
        metric(
            "http.parse_events_us_per_event",
            costs.parse_events_us_per_event,
            "us",
        ),
        metric(
            "gen.lateness_p99_ms",
            stats::quantile(&plain.lateness_ms, 0.99),
            "ms",
        ),
        metric("recon.layer_sum_us", layer_sum, "us"),
        metric(
            "recon.unexplained_vs_monitor_us",
            reference.per_event_us - layer_sum,
            "us",
        ),
        metric("recon.closed_loop_event_us", e2e_per_event, "us"),
        metric(
            "recon.unexplained_vs_e2e_us",
            e2e_per_event - layer_sum,
            "us",
        ),
        metric(
            "trace.overhead_events_pct",
            (1.0 - traced.events_per_s() / plain.events_per_s()) * 100.0,
            "%",
        ),
        metric(
            "trace.overhead_lag_p50_pct",
            (traced_lag.p50 / lag.p50.max(1e-9) - 1.0) * 100.0,
            "%",
        ),
    ]);
    layer.sort_by_key(|m| m.name);

    println!("per-layer spans (traced phase and isolated timings)");
    println!(
        "  {:<24} {:>9} {:>12} {:>12} {:>10}",
        "span", "calls", "total_ms", "self_ms", "mean_us"
    );
    for r in tracer.table() {
        println!(
            "  {:<24} {:>9} {:>12.3} {:>12.3} {:>10.3}",
            r.name,
            r.calls,
            r.total_ms,
            r.self_ms,
            r.total_ms * 1e3 / r.calls.max(1) as f64
        );
    }
    println!(
        "reconciliation per event: ocsvm {ocsvm_per_event:.2} us ({:.1}% of events pre-lock-in) \
         + lm {lm_per_event:.2} us = {layer_sum:.2} us | monitor {:.2} us -> unexplained {:.2} us | \
         closed-loop daemon x{SHARDS} shards {e2e_per_event:.2} us -> unexplained {:.2} us",
        pre * 100.0,
        reference.per_event_us,
        reference.per_event_us - layer_sum,
        e2e_per_event - layer_sum,
    );
    print_table("per-layer", &layer);
    let trace_path = out.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    tracer.write_jsonl(&trace_path)?;
    eprintln!(
        "[perfbench] wrote {} spans to {}",
        tracer.spans.len(),
        trace_path.display()
    );
    println!("{}", json_line(correct, attempted, failed, &layer));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => bundle::train(&out_dir()).map(|m| {
            eprintln!(
                "[perfbench] trained {m:?} -> {}",
                bundle::bundle_path(&out_dir()).display()
            );
            true
        }),
        Some("serve") => {
            let name = args.get(1).map_or("ckpt-serve", String::as_str);
            http::serve_child(&out_dir(), &out_dir().join(name)).map(|_| true)
        }
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::from(2)
        }
    }
}
