//! The in-process workloads: events through `Daemon::ingest` (closed loop
//! or paced bursts), alarms through `poll_alarms`, and a second client
//! thread calling `MisuseDetector::score_session` at a fixed rate.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ibcm_core::{MisuseDetector, SessionVerdict};
use ibcm_logsim::ActionId;
use ibcm_served::{CheckpointStore, Daemon, MergedAlarm, ServedConfig};

use crate::check::SeqAlarm;
use crate::corpus::Inputs;
use crate::trace::Tracer;
use crate::{bundle, stats, stream_config, Error, Phase, SHARDS};

/// How long the generator keeps polling for alarms after its last burst.
pub const GRACE_S: f64 = 0.5;
/// Between paced bursts the generator polls the merged stream with this
/// pause in between (spent in [`spin_until`], so a poll costs no wake-up).
const POLL_PAUSE_S: f64 = 0.000_25;
/// The closed loop polls the merged stream after this many ingests.
const POLL_EVERY: usize = 32;

/// How events are offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: the next event goes in as soon as `ingest` returns.
    Saturate,
    /// Open loop: `burst` events every `burst / rate` seconds.
    Paced { rate: f64, burst: usize },
}

/// Set-up, as timed: load and verify the bundle, start the daemon with a
/// fresh disk-backed checkpoint directory.
pub fn start(out: &Path, ckpt: &Path) -> Result<(Arc<MisuseDetector>, Daemon), Error> {
    let detector = Arc::new(bundle::load(out)?);
    let _ = std::fs::remove_dir_all(ckpt);
    std::fs::create_dir_all(ckpt)?;
    let config = ServedConfig::new(stream_config()).with_shards(SHARDS);
    let daemon = Daemon::new(Arc::clone(&detector), config, CheckpointStore::disk(ckpt))?;
    Ok((detector, daemon))
}

/// What a verdict client recorded.
#[derive(Default)]
pub struct ScoreLog {
    pub verdicts: Vec<(usize, SessionVerdict)>,
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    /// Requests that got no verdict.
    pub failed: u64,
}

pub fn sleep_until(t0: Instant, due_s: f64) {
    let now = t0.elapsed().as_secs_f64();
    if due_s > now {
        std::thread::sleep(Duration::from_secs_f64(due_s - now));
    }
}

/// Waits by yielding in a loop instead of sleeping. The paced in-process
/// clients wait this way so that neither vCPU halts between bursts: on a
/// virtual machine a halted vCPU pays the hypervisor's wake-up at every
/// burst, which tracks the neighbours' load (1-29 % steal from run to
/// run) and moved the lag median by up to 2x. A yielding thread gives
/// way to a runnable shard at once.
pub fn spin_until(t0: Instant, due_s: f64) {
    while t0.elapsed().as_secs_f64() < due_s {
        std::thread::yield_now();
    }
}

/// Open-loop verdict client: request `k` (for `sessions[k mod n]`) is due
/// at `(k + phase) / hz` seconds after `t0`, and its latency runs from that
/// due time; `wait` waits for a due time. `call` returns `None` for a
/// request that got no verdict.
pub fn score_loop(
    sessions: &[Vec<ActionId>],
    hz: f64,
    phase: f64,
    t0: Instant,
    until_s: f64,
    wait: fn(Instant, f64),
    mut call: impl FnMut(&[ActionId]) -> Result<Option<SessionVerdict>, Error>,
) -> Result<ScoreLog, Error> {
    let mut log = ScoreLog::default();
    for k in 0.. {
        let due = (k as f64 + phase) / hz;
        if due >= until_s {
            break;
        }
        wait(t0, due);
        log.lateness_ms
            .push((t0.elapsed().as_secs_f64() - due).max(0.0) * 1e3);
        let session = k % sessions.len();
        let verdict = call(&sessions[session])?;
        log.latency_ms
            .push((t0.elapsed().as_secs_f64() - due) * 1e3);
        match verdict {
            Some(v) => log.verdicts.push((session, v)),
            None => log.failed += 1,
        }
    }
    Ok(log)
}

fn seq_alarm(m: MergedAlarm) -> SeqAlarm {
    SeqAlarm {
        seq: m.seq,
        alarm: m.alarm,
    }
}

/// One measured phase against a started daemon. `score_rate` of 0 runs
/// no scoring client. On a paced load the verdicts are due half a
/// verdict period after the burst times (one verdict per burst when the
/// rates match), so they are served while the shards are idle instead of
/// competing with every burst for the cores, and both client threads
/// wait in [`spin_until`].
#[allow(clippy::too_many_arguments)]
pub fn phase(
    detector: &Arc<MisuseDetector>,
    mut daemon: Daemon,
    inputs: &Inputs,
    load: Load,
    score_rate: f64,
    seconds: f64,
    trace: bool,
    ckpt: &Path,
) -> Result<Phase, Error> {
    let before = ibcm_obs::global().render_prometheus();
    let t0 = Instant::now();
    let mut tracer = Tracer::new(trace, t0, 0);
    let mut ph = Phase::default();
    let mut depth_samples: Vec<f64> = Vec::new();
    let mut visible = |daemon: &mut Daemon, tracer: &mut Tracer, ph: &mut Phase| {
        let fresh = tracer.time("served.poll_alarms", || daemon.poll_alarms());
        ph.ops.alarm_pages += 1;
        let at = t0.elapsed().as_secs_f64();
        ph.alarms
            .extend(fresh.into_iter().map(|m| (seq_alarm(m), at)));
        if tracer.enabled() {
            depth_samples.extend(daemon.queue_depths().into_iter().map(|d| d as f64));
        }
    };
    let events = &inputs.events;
    let (score_phase, wait): (f64, fn(Instant, f64)) = match load {
        Load::Saturate => (0.0, sleep_until),
        Load::Paced { .. } => (0.5, spin_until),
    };
    let score = std::thread::scope(|scope| -> Result<Option<(ScoreLog, Tracer)>, Error> {
        let scorer = (score_rate > 0.0).then(|| {
            scope.spawn(|| -> Result<_, Error> {
                let mut tracer = Tracer::new(trace, t0, 1);
                let log = score_loop(
                    &inputs.sessions,
                    score_rate,
                    score_phase,
                    t0,
                    seconds,
                    wait,
                    |s| {
                        Ok(Some(
                            tracer.time("core.score_session", || detector.score_session(s)),
                        ))
                    },
                )?;
                Ok((log, tracer))
            })
        });
        let mut i = 0;
        match load {
            Load::Saturate => {
                while i < events.len() {
                    if i % 64 == 0 && t0.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    ph.due_s.push(t0.elapsed().as_secs_f64());
                    if let Err(e) = tracer.time("served.ingest", || daemon.ingest(events[i])) {
                        eprintln!("[perfbench] ingest failed: {e}");
                        ph.ops.failed += 1;
                        break;
                    }
                    i += 1;
                    if i % POLL_EVERY == 0 {
                        visible(&mut daemon, &mut tracer, &mut ph);
                    }
                }
                ph.producer_s = t0.elapsed().as_secs_f64();
            }
            Load::Paced { rate, burst } => {
                let period = burst as f64 / rate;
                for k in 0.. {
                    let due = k as f64 * period;
                    if due >= seconds || i >= events.len() {
                        break;
                    }
                    while t0.elapsed().as_secs_f64() < due {
                        visible(&mut daemon, &mut tracer, &mut ph);
                        let now = t0.elapsed().as_secs_f64();
                        spin_until(t0, due.min(now + POLL_PAUSE_S));
                    }
                    ph.lateness_ms
                        .push((t0.elapsed().as_secs_f64() - due) * 1e3);
                    let end = (i + burst).min(events.len());
                    for event in &events[i..end] {
                        if let Err(e) = tracer.time("served.ingest", || daemon.ingest(*event)) {
                            eprintln!("[perfbench] ingest failed: {e}");
                            ph.ops.failed += 1;
                            break;
                        }
                        ph.due_s.push(due);
                        i += 1;
                    }
                    if i < end {
                        break;
                    }
                    visible(&mut daemon, &mut tracer, &mut ph);
                }
                ph.producer_s = t0.elapsed().as_secs_f64();
                let grace_end = ph.producer_s + GRACE_S;
                while t0.elapsed().as_secs_f64() < grace_end {
                    visible(&mut daemon, &mut tracer, &mut ph);
                    spin_until(t0, t0.elapsed().as_secs_f64() + POLL_PAUSE_S);
                }
            }
        }
        ph.admitted = i;
        ph.ops.events = i as u64;
        match scorer {
            Some(handle) => Ok(Some(handle.join().map_err(|_| "scoring client panicked")??)),
            None => Ok(None),
        }
    })?;
    let drain = tracer.time("served.drain", || daemon.drain())?;
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph.alarms
        .extend(drain.alarms.into_iter().map(|m| (seq_alarm(m), ph.wall_s)));
    ph.counters = drain.counters;
    ph.ops.restarts = drain.restarts;
    ph.ops.failed_shards = drain.failed_shards.len() as u64;
    ph.peak_rss_mb = stats::peak_rss_mb();
    if let Some((log, score_tracer)) = score {
        ph.ops.scores = log.latency_ms.len() as u64;
        ph.verdicts = log.verdicts;
        ph.score_latency_ms = log.latency_ms;
        ph.lateness_ms.extend(log.lateness_ms);
        tracer.absorb(score_tracer);
    }
    let after = ibcm_obs::global().render_prometheus();
    let batches = stats::prom_sum(&after, "ibcm_served_worker_batches_total")
        - stats::prom_sum(&before, "ibcm_served_worker_batches_total");
    if trace {
        let ingest = tracer.durations_us("served.ingest");
        ph.layer(
            "served.ingest_call_p50_us",
            stats::quantile(&ingest, 0.5),
            "us",
        );
        ph.layer(
            "served.ingest_call_p99_us",
            stats::quantile(&ingest, 0.99),
            "us",
        );
        ph.layer(
            "served.producer_wait_share",
            tracer.total_s("served.ingest") / ph.producer_s.max(1e-9),
            "ratio",
        );
        ph.layer(
            "served.queue_depth_mean",
            stats::mean(&depth_samples),
            "count",
        );
        ph.layer(
            "served.poll_alarms_us",
            stats::mean(&tracer.durations_us("served.poll_alarms")),
            "us",
        );
        ph.layer(
            "served.events_per_worker_batch",
            ph.admitted as f64 / batches.max(1.0),
            "count",
        );
        ph.layer(
            "served.checkpoint_disk_bytes",
            stats::dir_bytes(ckpt) as f64,
            "bytes",
        );
    }
    ph.tracer = tracer;
    Ok(ph)
}
