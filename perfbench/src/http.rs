//! The HTTP workload: `HttpServer` in a child process of this binary
//! (`perfbench serve`), driven over loopback keep-alive connections. One
//! connection posts NDJSON event batches at a fixed rate and pages
//! `/v1/alarms`; a second posts `/v1/score` at a fixed rate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use ibcm_core::{FaultCounters, SessionEvent, SessionVerdict, StreamAlarm, StreamAlarmKind};
use ibcm_http::json::{self, JsonValue};
use ibcm_http::{HttpConfig, HttpServer, HttpService};
use ibcm_lm::SessionScore;
use ibcm_logsim::{ActionId, ClusterId, UserId};

use crate::check::SeqAlarm;
use crate::corpus::Inputs;
use crate::served::{self, sleep_until, GRACE_S};
use crate::trace::Tracer;
use crate::{stats, Error, Phase};

/// The child process: serve until stdin closes, then drain and report.
pub fn serve_child(out: &Path, ckpt: &Path) -> Result<(), Error> {
    let (detector, daemon) = served::start(out, ckpt)?;
    let http = HttpConfig::new().with_addr("127.0.0.1:0");
    let service = Arc::new(HttpService::new(
        detector,
        daemon,
        http.alarm_buffer,
        http.max_batch_events,
    ));
    let mut server = HttpServer::bind(http, Arc::clone(&service))?;
    println!("ready {}", server.local_addr());
    std::io::stdout().flush()?;
    std::io::stdin().read_to_end(&mut Vec::new())?;
    server.shutdown();
    let report = service.drain()?;
    let c = report.counters;
    println!(
        "drained unpaged={} restarts={} failed_shards={} non_monotonic={} duplicate={} \
         unknown_action={} unknown_user={} dropped={} shed={} peak_rss_mb={} ckpt_bytes={}",
        report.alarms.len(),
        report.restarts,
        report.failed_shards.len(),
        c.non_monotonic,
        c.duplicate,
        c.unknown_action,
        c.unknown_user,
        c.dropped,
        c.shed,
        stats::peak_rss_mb(),
        stats::dir_bytes(ckpt),
    );
    Ok(())
}

/// A running server child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// What the child reported after draining.
pub struct Drained {
    fields: Vec<(String, f64)>,
}

impl Drained {
    pub fn get(&self, key: &str) -> f64 {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn counters(&self) -> FaultCounters {
        let n = |k: &str| self.get(k) as u64;
        FaultCounters {
            non_monotonic: n("non_monotonic"),
            duplicate: n("duplicate"),
            unknown_action: n("unknown_action"),
            unknown_user: n("unknown_user"),
            dropped: n("dropped"),
            shed: n("shed"),
        }
    }
}

impl Server {
    /// Starts a child and waits until it listens: the timed set-up.
    pub fn start(ckpt_name: &str) -> Result<Server, Error> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", ckpt_name])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout")?);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("ready ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server child did not start: {line:?}").into());
        };
        let addr = addr.to_string();
        Ok(Server {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    /// Closes stdin, reads the drain report and waits for the exit.
    pub fn stop(mut self) -> Result<Drained, Error> {
        drop(self.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        let report = line
            .trim()
            .strip_prefix("drained ")
            .ok_or_else(|| format!("server child ended without a report ({status}): {line:?}"))?;
        let fields = report
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.parse().unwrap_or(f64::NAN)))
            .collect();
        Ok(Drained { fields })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when a run fails half-way: never leave the child.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A keep-alive HTTP/1.1 client that sends each request in one write.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub rtt_ms: f64,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, Error> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, Error> {
        let start = Instant::now();
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse()?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            rtt_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

pub fn events_ndjson(events: &[SessionEvent]) -> Vec<u8> {
    let mut body = String::new();
    for e in events {
        body.push_str(&format!(
            "{{\"user\":{},\"action\":{},\"minute\":{}}}\n",
            e.user.index(),
            e.action.index(),
            e.minute
        ));
    }
    body.into_bytes()
}

pub fn score_json(actions: &[ActionId]) -> Vec<u8> {
    let ids: Vec<String> = actions.iter().map(|a| a.index().to_string()).collect();
    format!("{{\"actions\":[{}]}}", ids.join(",")).into_bytes()
}

fn num<T: std::str::FromStr>(v: Option<&JsonValue>) -> Result<T, Error> {
    match v {
        Some(JsonValue::Num(raw)) => raw.parse().map_err(|_| format!("bad number {raw}").into()),
        other => Err(format!("expected a number, got {other:?}").into()),
    }
}

pub fn parse_verdict(body: &[u8]) -> Result<SessionVerdict, Error> {
    let v = json::parse(body).map_err(|e| e.message)?;
    let score = v.get("score");
    Ok(SessionVerdict {
        cluster: ClusterId(num(v.get("cluster"))?),
        score: SessionScore {
            avg_likelihood: num(score.and_then(|s| s.get("avg_likelihood")))?,
            avg_loss: num(score.and_then(|s| s.get("avg_loss")))?,
            n_predictions: num(score.and_then(|s| s.get("n_predictions")))?,
        },
    })
}

/// Parses an alarm page into its alarms and `dropped` count.
pub fn parse_alarms(body: &[u8]) -> Result<(Vec<SeqAlarm>, u64), Error> {
    let v = json::parse(body).map_err(|e| e.message)?;
    let mut out = Vec::new();
    for a in v.get("alarms").and_then(JsonValue::as_array).unwrap_or(&[]) {
        let windowed_likelihood = match a.get("windowed_likelihood") {
            Some(JsonValue::Null) => None,
            w => Some(num(w)?),
        };
        out.push(SeqAlarm {
            seq: num(a.get("seq"))?,
            alarm: StreamAlarm {
                user: UserId(num(a.get("user"))?),
                position: num(a.get("position"))?,
                minute: num(a.get("minute"))?,
                windowed_likelihood,
                trend: a.get("trend") == Some(&JsonValue::Bool(true)),
                kind: match a.get("kind").and_then(JsonValue::as_str) {
                    Some("shed") => StreamAlarmKind::Shed,
                    _ => StreamAlarmKind::Score,
                },
            },
        });
    }
    Ok((out, num(v.get("dropped"))?))
}

/// Server-side handler time and client-side transport wait per request,
/// for the `/v1` routes, from the server's `/metrics` and the client's
/// round trips.
fn handler_and_transport(client: &mut Client, rtt_ms: &[f64]) -> Result<(f64, f64), Error> {
    let metrics = client.call("GET", "/metrics", b"")?;
    let text = String::from_utf8_lossy(&metrics.body);
    let (mut sum, mut count) = (0.0, 0.0);
    for route in ["/v1/events", "/v1/score", "/v1/alarms"] {
        let label = format!("route=\"{route}\"");
        sum += stats::prom_sum_where(&text, "ibcm_http_request_seconds_sum", &label);
        count += stats::prom_sum_where(&text, "ibcm_http_request_seconds_count", &label);
    }
    let handler_ms = sum * 1e3 / count.max(1.0);
    Ok((handler_ms, stats::mean(rtt_ms) - handler_ms))
}

/// The paced HTTP phase against a started server.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    server: Server,
    inputs: &Inputs,
    cycle_hz: f64,
    batch: usize,
    score_hz: f64,
    seconds: f64,
    trace: bool,
) -> Result<Phase, Error> {
    let t0 = Instant::now();
    let mut tracer = Tracer::new(trace, t0, 0);
    let mut ph = Phase::default();
    let mut rtt_ms = Vec::new();
    let mut events_client = Client::connect(&server.addr)?;
    let mut score_client = Client::connect(&server.addr)?;
    let events = &inputs.events;
    let scored = std::thread::scope(|scope| -> Result<_, Error> {
        let scorer = scope.spawn(|| -> Result<_, Error> {
            let mut tracer = Tracer::new(trace, t0, 1);
            let mut rtts = Vec::new();
            // Half a period after each event batch: between batches.
            let log = served::score_loop(
                &inputs.sessions,
                score_hz,
                0.5,
                t0,
                seconds,
                sleep_until,
                |s| {
                    let body = score_json(s);
                    let reply = tracer.time("http.post_score", || {
                        score_client.call("POST", "/v1/score", &body)
                    })?;
                    rtts.push(reply.rtt_ms);
                    match reply.status {
                        200 => Ok(Some(parse_verdict(&reply.body)?)),
                        _ => Ok(None),
                    }
                },
            )?;
            Ok((log, tracer, rtts))
        });

        let mut cursor = 0u64;
        let mut i = 0;
        let period = 1.0 / cycle_hz;
        let mut refused = false;
        for k in 0.. {
            let due = k as f64 * period;
            let sending = due < seconds && i < events.len() && !refused;
            if !sending && ph.producer_s == 0.0 {
                ph.producer_s = due;
            }
            if !sending && due >= ph.producer_s + GRACE_S {
                break;
            }
            sleep_until(t0, due);
            ph.lateness_ms
                .push((t0.elapsed().as_secs_f64() - due) * 1e3);
            // Page the alarms first, until a short page says the log is
            // caught up; then offer this cycle's batch.
            loop {
                let path = format!("/v1/alarms?cursor={cursor}&max=1000");
                let reply =
                    tracer.time("http.get_alarms", || events_client.call("GET", &path, b""))?;
                rtt_ms.push(reply.rtt_ms);
                ph.ops.alarm_pages += 1;
                if reply.status != 200 {
                    ph.ops.failed += 1;
                    ph.ops.http_5xx += u64::from(reply.status >= 500);
                    break;
                }
                let at = t0.elapsed().as_secs_f64();
                let (page, dropped) = parse_alarms(&reply.body)?;
                if dropped > 0 {
                    return Err(format!("the server dropped {dropped} unpaged alarms").into());
                }
                let full = page.len() == 1000;
                if let Some(last) = page.last() {
                    cursor = last.seq;
                }
                ph.alarms.extend(page.into_iter().map(|a| (a, at)));
                if !full {
                    break;
                }
            }
            if !sending {
                continue;
            }
            let end = (i + batch).min(events.len());
            // A 429 names how many events went in; resend the rest.
            while i < end && !refused {
                let body = events_ndjson(&events[i..end]);
                let reply = tracer.time("http.post_events", || {
                    events_client.call("POST", "/v1/events", &body)
                })?;
                rtt_ms.push(reply.rtt_ms);
                let accepted = match reply.status {
                    200 => end - i,
                    429 => {
                        ph.ops.http_429 += 1;
                        let v = json::parse(&reply.body).map_err(|e| e.message)?;
                        num::<usize>(v.get("accepted"))?
                    }
                    status => {
                        eprintln!("[perfbench] POST /v1/events answered {status}");
                        ph.ops.http_5xx += u64::from(status >= 500);
                        ph.ops.failed += 1;
                        refused = true;
                        0
                    }
                };
                ph.due_s.extend(std::iter::repeat_n(due, accepted));
                i += accepted;
            }
        }
        ph.admitted = i;
        ph.ops.events = i as u64;
        let scored = scorer.join().map_err(|_| "scoring client panicked")??;
        Ok(scored)
    })?;
    let (log, score_tracer, score_rtts) = scored;
    ph.ops.scores = log.latency_ms.len() as u64;
    ph.ops.failed += log.failed;
    ph.verdicts = log.verdicts;
    ph.score_latency_ms = log.latency_ms;
    ph.lateness_ms.extend(log.lateness_ms);
    tracer.absorb(score_tracer);
    rtt_ms.extend(score_rtts);
    let (handler_ms, transport_ms) = handler_and_transport(&mut events_client, &rtt_ms)?;
    drop(events_client);
    drop(score_client);
    let drained = tracer.time("http.drain", || server.stop())?;
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph.counters = drained.counters();
    ph.ops.restarts = drained.get("restarts") as u64;
    ph.ops.failed_shards = drained.get("failed_shards") as u64;
    ph.unpaged = drained.get("unpaged") as u64;
    ph.peak_rss_mb = drained.get("peak_rss_mb");
    if trace {
        ph.layer("http.handler_ms", handler_ms, "ms");
        ph.layer("http.transport_wait_ms", transport_ms, "ms");
    }
    ph.tracer = tracer;
    Ok(ph)
}

/// A short HTTP probe for the in-process workloads' traced runs: `n`
/// event batches and `n` score requests over one keep-alive connection
/// to a fresh server child, giving the wire layer's handler time and
/// transport wait on that workload's own payloads.
pub fn probe(inputs: &Inputs, n: usize, batch: usize) -> Result<(f64, f64), Error> {
    let server = Server::start("ckpt-probe")?;
    let mut client = Client::connect(&server.addr)?;
    let mut rtt_ms = Vec::new();
    for k in 0..n {
        let from = (k * batch).min(inputs.events.len());
        let to = (from + batch).min(inputs.events.len());
        for (path, body) in [
            ("/v1/events", events_ndjson(&inputs.events[from..to])),
            (
                "/v1/score",
                score_json(&inputs.sessions[k % inputs.sessions.len()]),
            ),
        ] {
            let reply = client.call("POST", path, &body)?;
            if reply.status != 200 {
                return Err(format!("probe {path} answered {}", reply.status).into());
            }
            rtt_ms.push(reply.rtt_ms);
        }
    }
    let result = handler_and_transport(&mut client, &rtt_ms)?;
    drop(client);
    server.stop()?;
    Ok(result)
}
