//! Workload inputs, made from the workload seed alone: logsim corpora
//! flattened into one time-ordered event stream, plus the corpus sessions
//! the scoring clients send.

use ibcm_core::chaos::event_stream;
use ibcm_core::SessionEvent;
use ibcm_logsim::{ActionId, Generator, GeneratorConfig, LengthModel};

/// A workload's traffic: the event stream and the sessions to score.
pub struct Inputs {
    pub events: Vec<SessionEvent>,
    /// The verdict requests, in sending order: a length-stratified sample
    /// of the corpus sessions (see [`stratified`]).
    pub sessions: Vec<Vec<ActionId>>,
}

/// `m` sessions whose lengths sit at evenly spaced quantiles of the
/// corpus's session lengths, sent in a fixed interleaved order. A run
/// scores only a few hundred sessions; sampling by length quantile keeps
/// the mix of short and long verdicts the same from seed to seed, so the
/// latency percentiles describe the corpus rather than which sessions
/// happened to come first.
fn stratified(mut sessions: Vec<Vec<ActionId>>, m: usize) -> Vec<Vec<ActionId>> {
    sessions.sort_by_key(Vec::len); // stable: ties keep corpus order
    let n = sessions.len();
    let m = m.clamp(1, n);
    let picked: Vec<usize> = (0..m).map(|j| (2 * j + 1) * n / (2 * m)).collect();
    // Visit the strata with a stride coprime to m, so consecutive requests
    // are spread over the length range.
    let stride = (1..=m)
        .rev()
        .find(|s| gcd(*s, m) == 1 && *s <= m / 2 + 1)
        .unwrap_or(1);
    (0..m)
        .map(|k| sessions[picked[(k * stride) % m]].clone())
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// SplitMix64 finalizer: derives independent corpus seeds from the
/// workload seed (so no workload replays the training corpus).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d4_9bb4_1331_11eb);
    z ^ (z >> 31)
}

/// Long sessions: log-normal around 150 actions (mean ~160, almost all
/// between 70 and 330), with no short-session body and no batch tail.
pub fn long_length_model() -> LengthModel {
    LengthModel {
        mu: 150f64.ln(),
        sigma: 0.35,
        batch_prob: 0.0,
        batch_range: (300, 900),
        max_len: 900,
    }
}

/// Appends corpora ("epochs") until the stream holds at least
/// `min_events` events, and samples `scored` sessions to score. Each
/// epoch starts an hour after the previous one ends, so every session of
/// the earlier epoch has timed out.
fn build(
    min_events: usize,
    scored: usize,
    mut config_for: impl FnMut(u64) -> GeneratorConfig,
) -> Inputs {
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut sessions: Vec<Vec<ActionId>> = Vec::new();
    let mut epoch = 0u64;
    while events.len() < min_events {
        let offset = events.last().map_or(0, |e| e.minute + 60);
        let dataset = Generator::new(config_for(epoch)).generate();
        events.extend(event_stream(&dataset).into_iter().map(|e| SessionEvent {
            minute: e.minute + offset,
            ..e
        }));
        sessions.extend(dataset.sessions().iter().map(|s| s.actions().to_vec()));
        epoch += 1;
    }
    Inputs {
        events,
        sessions: stratified(sessions, scored),
    }
}

/// The default-scale corpus (4 000 sessions, paper-like lengths, mean
/// ~15 actions), repeated with fresh seeds until `min_events` is reached.
pub fn default_scale(seed: u64, min_events: usize, scored: usize) -> Inputs {
    build(min_events, scored, |epoch| {
        GeneratorConfig::default_scale(mix(seed, 1 + epoch))
    })
}

/// Long sessions at the default-scale user population: each epoch is one
/// simulated day of 150 sessions (about 17 live at any minute).
pub fn long_sessions(seed: u64, min_events: usize, scored: usize) -> Inputs {
    build(min_events, scored, |epoch| GeneratorConfig {
        n_sessions: 150,
        n_days: 1,
        length_model: long_length_model(),
        ..GeneratorConfig::default_scale(mix(seed, 1001 + epoch))
    })
}
