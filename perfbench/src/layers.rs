//! Per-layer costs, each timed in isolation on the workload's own events
//! and sessions through the layer's public functions.

use std::collections::HashMap;
use std::hint::black_box;

use ibcm_core::{MisuseDetector, SessionEvent, StreamConfig};
use ibcm_http::service::parse_events;
use ibcm_http::wire::{read_request, Limits};
use ibcm_logsim::{ActionId, UserId};

use crate::check::recompute_verdict;
use crate::http::events_ndjson;
use crate::trace::Tracer;

/// Sessions sampled for the router and scorer timings.
const SAMPLE_SESSIONS: usize = 200;
/// Events per recorded `POST /v1/events` request.
const REQUEST_EVENTS: usize = 100;

pub struct LayerCosts {
    pub ocsvm_scores_us: f64,
    pub lm_try_feed_us: f64,
    pub lm_try_advance_us: f64,
    pub score_session_us: f64,
    pub read_request_us: f64,
    pub parse_events_us_per_event: f64,
}

fn per_call_us(tracer: &Tracer, name: &str, calls: usize) -> f64 {
    tracer.total_s(name) * 1e6 / calls.max(1) as f64
}

pub fn measure(
    detector: &MisuseDetector,
    sessions: &[Vec<ActionId>],
    events: &[SessionEvent],
    tracer: &mut Tracer,
) -> LayerCosts {
    let sample = &sessions[..sessions.len().min(SAMPLE_SESSIONS)];
    let router = detector.router();
    let lock_in = detector.lock_in();

    // OC-SVM scores on every pre-lock-in prefix.
    let mut prefixes = 0;
    tracer.enter("ocsvm.scores");
    for s in sample {
        for end in 1..=s.len().min(lock_in) {
            black_box(router.scores(black_box(&s[..end])));
            prefixes += 1;
        }
    }
    tracer.exit();

    // LmScorer steps in each session's routed cluster: with the softmax
    // read-out (`try_feed`) and without it (`try_advance`).
    let routed: Vec<_> = sample
        .iter()
        .map(|s| recompute_verdict(detector, s).cluster)
        .collect();
    let mut steps = 0;
    tracer.enter("lm.try_feed");
    for (s, &c) in sample.iter().zip(&routed) {
        let mut scorer = detector.model(c).scorer();
        for a in s {
            let _ = black_box(scorer.try_feed(a.index()));
            steps += 1;
        }
    }
    tracer.exit();
    tracer.enter("lm.try_advance");
    for (s, &c) in sample.iter().zip(&routed) {
        let mut scorer = detector.model(c).scorer();
        for a in s {
            let _ = black_box(scorer.try_advance(a.index()));
        }
    }
    tracer.exit();

    tracer.enter("core.score_session");
    for s in sample {
        black_box(detector.score_session(black_box(s)));
    }
    tracer.exit();

    // The wire and JSON layers on recorded request bytes.
    let limits = Limits {
        max_head_bytes: 8 * 1024,
        max_body_bytes: 1024 * 1024,
    };
    let requests: Vec<Vec<u8>> = events
        .chunks(REQUEST_EVENTS)
        .take(SAMPLE_SESSIONS)
        .map(|chunk| {
            let body = events_ndjson(chunk);
            let mut req = format!(
                "POST /v1/events HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            req.extend_from_slice(&body);
            req
        })
        .collect();
    let mut bodies = Vec::new();
    tracer.enter("http.read_request");
    for req in &requests {
        if let Ok(parsed) = read_request(&mut req.as_slice(), &limits) {
            bodies.push(parsed.body);
        }
    }
    tracer.exit();
    let mut parsed_events = 0;
    tracer.enter("http.parse_events");
    for body in &bodies {
        parsed_events += parse_events(body, 4096).map_or(0, |e| e.len());
    }
    tracer.exit();

    LayerCosts {
        ocsvm_scores_us: per_call_us(tracer, "ocsvm.scores", prefixes),
        lm_try_feed_us: per_call_us(tracer, "lm.try_feed", steps),
        lm_try_advance_us: per_call_us(tracer, "lm.try_advance", steps),
        score_session_us: per_call_us(tracer, "core.score_session", sample.len()),
        read_request_us: per_call_us(tracer, "http.read_request", requests.len()),
        parse_events_us_per_event: per_call_us(tracer, "http.parse_events", parsed_events),
    }
}

/// Share of events at a session position up to the lock-in horizon (the
/// events the OC-SVM router scores), by the monitor's sessionization rule
/// (a gap over the timeout starts a new session).
pub fn pre_lock_in_share(events: &[SessionEvent], config: &StreamConfig, lock_in: usize) -> f64 {
    let mut sessions: HashMap<UserId, (u64, usize)> = HashMap::new();
    let mut pre = 0usize;
    for e in events {
        let entry = sessions.entry(e.user).or_insert((e.minute, 0));
        if e.minute.saturating_sub(entry.0) > config.session_timeout_minutes {
            *entry = (e.minute, 0);
        }
        entry.0 = e.minute;
        entry.1 += 1;
        if entry.1 <= lock_in {
            pre += 1;
        }
    }
    pre as f64 / events.len().max(1) as f64
}
