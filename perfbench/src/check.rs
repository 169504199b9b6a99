//! Correctness checks, computed apart from the serving layers: a
//! single-threaded `StreamMonitor` replay of the same events is the alarm
//! oracle, and verdicts are recomputed from `LmScorer` step likelihoods in
//! the cluster the OC-SVM prefix vote picks.

use std::time::Instant;

use ibcm_core::{
    FaultCounters, MisuseDetector, SessionEvent, SessionVerdict, StreamAlarm, StreamAlarmKind,
    StreamConfig,
};
use ibcm_lm::SessionScore;
use ibcm_logsim::{ActionId, ClusterId};

/// An alarm with the global sequence number the daemon's merge orders by.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqAlarm {
    pub seq: u64,
    pub alarm: StreamAlarm,
}

/// What the single-threaded replay produced.
pub struct Reference {
    /// Every alarm, in stream order, with the index of its event.
    pub alarms: Vec<(usize, SeqAlarm)>,
    /// Fault counters after each requested prefix length.
    pub counters_at: Vec<FaultCounters>,
    /// Wall time of the replay, per event.
    pub per_event_us: f64,
    pub checkpoint_bytes: usize,
    pub checkpoint_encode_ms: f64,
}

impl Reference {
    /// The alarms the first `events` events raise.
    pub fn prefix(&self, events: usize) -> Vec<SeqAlarm> {
        self.alarms
            .iter()
            .take_while(|(e, _)| *e < events)
            .map(|(_, a)| a.clone())
            .collect()
    }

    /// The event index behind each sequence number the replay assigned.
    pub fn event_of_seq(&self, seq: u64) -> Option<usize> {
        self.alarms
            .binary_search_by_key(&seq, |(_, a)| a.seq)
            .ok()
            .map(|i| self.alarms[i].0)
    }
}

/// Replays `events` through one `StreamMonitor`, numbering outputs the way
/// the daemon does: each shed victim, then the event itself, takes the
/// next sequence number. `marks` are prefix lengths (ascending) at which
/// the fault counters are recorded.
pub fn replay(
    detector: &MisuseDetector,
    config: &StreamConfig,
    events: &[SessionEvent],
    marks: &[usize],
) -> Reference {
    let mut monitor = detector.stream_monitor(config.clone());
    let mut alarms = Vec::new();
    let mut counters_at = Vec::new();
    let mut seq = 0u64;
    let start = Instant::now();
    for (i, event) in events.iter().enumerate() {
        while counters_at.len() < marks.len() && marks[counters_at.len()] == i {
            counters_at.push(monitor.fault_counters());
        }
        let outcome = monitor.ingest(*event);
        for shed in outcome.shed {
            seq += 1;
            alarms.push((i, SeqAlarm { seq, alarm: shed }));
        }
        seq += 1;
        if let Some(alarm) = outcome.alarm {
            alarms.push((i, SeqAlarm { seq, alarm }));
        }
    }
    let per_event_us = start.elapsed().as_secs_f64() * 1e6 / events.len().max(1) as f64;
    while counters_at.len() < marks.len() {
        counters_at.push(monitor.fault_counters());
    }
    let encode = Instant::now();
    let checkpoint_bytes = monitor.checkpoint().len();
    let checkpoint_encode_ms = encode.elapsed().as_secs_f64() * 1e3;
    Reference {
        alarms,
        counters_at,
        per_event_us,
        checkpoint_bytes,
        checkpoint_encode_ms,
    }
}

fn same_alarm(a: &SeqAlarm, b: &SeqAlarm) -> bool {
    a.seq == b.seq
        && a.alarm.user == b.alarm.user
        && a.alarm.position == b.alarm.position
        && a.alarm.minute == b.alarm.minute
        && a.alarm.windowed_likelihood.map(f32::to_bits)
            == b.alarm.windowed_likelihood.map(f32::to_bits)
        && a.alarm.trend == b.alarm.trend
        && a.alarm.kind == b.alarm.kind
}

/// The served alarm stream must equal the reference in order and in
/// `f32` bits.
pub fn alarms_match(got: &[SeqAlarm], want: &[SeqAlarm]) -> Result<(), String> {
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| !same_alarm(&got[i], &want[i])) {
        return Err(format!(
            "alarm {i} differs: served {:?}, reference {:?}",
            got[i], want[i]
        ));
    }
    if got.len() != want.len() {
        return Err(format!(
            "served {} alarms, reference {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Every threshold alarm (a scoring alarm the trend rule did not raise)
/// has a windowed likelihood below the policy threshold, and every
/// scoring alarm lies past warm-up.
pub fn alarms_obey_policy(alarms: &[SeqAlarm], config: &StreamConfig) -> Result<(), String> {
    let policy = config.policy;
    for a in alarms
        .iter()
        .filter(|a| a.alarm.kind == StreamAlarmKind::Score)
    {
        let scored = a.alarm.position.saturating_sub(1);
        if scored < policy.warmup {
            return Err(format!("alarm inside warm-up: {a:?}"));
        }
        if a.alarm.trend {
            continue;
        }
        match a.alarm.windowed_likelihood {
            Some(w) if w < policy.likelihood_threshold => {}
            _ => return Err(format!("threshold alarm not below the threshold: {a:?}")),
        }
    }
    Ok(())
}

/// Index of the largest element; ties go to the later index, as in the
/// router's own vote.
fn argmax<T: PartialOrd + Copy>(xs: &[T]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate() {
        if *x >= xs[best] {
            best = i;
        }
    }
    best
}

/// The verdict for `actions`, rebuilt from its parts: the OC-SVM majority
/// vote over the first `lock_in` prefixes picks the cluster, and that
/// cluster's `LmScorer` step likelihoods give the averages.
pub fn recompute_verdict(detector: &MisuseDetector, actions: &[ActionId]) -> SessionVerdict {
    let router = detector.router();
    let mut votes = vec![0usize; router.n_clusters()];
    for end in 1..=actions.len().min(detector.lock_in().max(1)) {
        votes[argmax(&router.scores(&actions[..end]))] += 1;
    }
    let cluster = ClusterId(argmax(&votes));
    let model = detector.model(cluster);
    let mut scorer = model.scorer();
    let (mut lik, mut loss, mut n) = (0.0f64, 0.0f64, 0usize);
    for a in actions
        .iter()
        .map(|a| a.index())
        .filter(|&a| a < model.vocab_size())
    {
        if let Ok(Some(step)) = scorer.try_feed(a) {
            lik += f64::from(step.likelihood);
            loss += f64::from(step.loss);
            n += 1;
        }
    }
    let avg = |sum: f64| if n > 0 { (sum / n as f64) as f32 } else { 0.0 };
    SessionVerdict {
        cluster,
        score: SessionScore {
            avg_likelihood: avg(lik),
            avg_loss: avg(loss),
            n_predictions: n,
        },
    }
}

pub fn verdict_matches(got: &SessionVerdict, want: &SessionVerdict) -> Result<(), String> {
    let same = got.cluster == want.cluster
        && got.score.avg_likelihood.to_bits() == want.score.avg_likelihood.to_bits()
        && got.score.avg_loss.to_bits() == want.score.avg_loss.to_bits()
        && got.score.n_predictions == want.score.n_predictions;
    if same {
        Ok(())
    } else {
        Err(format!(
            "verdict {got:?} differs from the recomputation {want:?}"
        ))
    }
}

/// Checks every verdict against a recomputation, memoized per session.
pub fn verdicts_match(
    detector: &MisuseDetector,
    sessions: &[Vec<ActionId>],
    verdicts: &[(usize, SessionVerdict)],
) -> Result<(), String> {
    let mut memo: std::collections::BTreeMap<usize, SessionVerdict> = Default::default();
    for (session, got) in verdicts {
        let want = memo
            .entry(*session)
            .or_insert_with(|| recompute_verdict(detector, &sessions[*session]));
        verdict_matches(got, want).map_err(|e| format!("session {session}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each checker must reject a perturbed copy of a correct output.
    use super::*;
    use ibcm_core::{AlarmPolicy, Pipeline, PipelineConfig};
    use ibcm_logsim::{Generator, GeneratorConfig};

    fn fixture() -> (MisuseDetector, StreamConfig, Vec<SessionEvent>) {
        let dataset = Generator::new(GeneratorConfig::tiny(5)).generate();
        let trained = Pipeline::new(PipelineConfig::test_profile(5))
            .train(&dataset)
            .expect("tiny training succeeds");
        let config = StreamConfig {
            policy: AlarmPolicy {
                likelihood_threshold: 0.1,
                trend_window: 5,
                ..AlarmPolicy::default()
            },
            ..StreamConfig::default()
        };
        let events = ibcm_core::chaos::event_stream(&dataset);
        (trained.into_detector(), config, events)
    }

    #[test]
    fn checkers_reject_perturbed_outputs() {
        let (detector, config, events) = fixture();
        let reference = replay(&detector, &config, &events, &[]);
        let good = reference.prefix(events.len());
        assert!(good.len() >= 3, "the fixture must raise alarms");
        alarms_match(&good, &good).expect("identical streams match");
        alarms_obey_policy(&good, &config).expect("reference obeys its policy");

        let mut dropped = good.clone();
        dropped.remove(good.len() / 2);
        assert!(alarms_match(&dropped, &good).is_err(), "dropped alarm");

        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(alarms_match(&swapped, &good).is_err(), "swapped alarms");

        let mut flipped = good.clone();
        let i = flipped
            .iter()
            .position(|a| a.alarm.windowed_likelihood.is_some())
            .expect("a scoring alarm");
        let w = flipped[i].alarm.windowed_likelihood.expect("scored");
        flipped[i].alarm.windowed_likelihood = Some(f32::from_bits(w.to_bits() ^ 1));
        assert!(
            alarms_match(&flipped, &good).is_err(),
            "flipped likelihood bit"
        );

        let mut above = good.clone();
        let j = above
            .iter()
            .position(|a| a.alarm.kind == StreamAlarmKind::Score && !a.alarm.trend)
            .expect("a threshold alarm");
        above[j].alarm.windowed_likelihood = Some(config.policy.likelihood_threshold);
        assert!(
            alarms_obey_policy(&above, &config).is_err(),
            "alarm at threshold"
        );

        let session: Vec<ActionId> = (0..20).map(|i| events[i].action).collect();
        let verdict = detector.score_session(&session);
        let want = recompute_verdict(&detector, &session);
        verdict_matches(&verdict, &want).expect("score_session matches the recomputation");
        for bit in [0, 9, 31] {
            let mut bad = verdict.clone();
            bad.score.avg_likelihood =
                f32::from_bits(bad.score.avg_likelihood.to_bits() ^ (1 << bit));
            assert!(
                verdict_matches(&bad, &want).is_err(),
                "flipped verdict bit {bit}"
            );
        }
        let mut bad = verdict.clone();
        bad.score.avg_loss = f32::from_bits(bad.score.avg_loss.to_bits() ^ 1);
        assert!(verdict_matches(&bad, &want).is_err(), "flipped loss bit");
    }
}
