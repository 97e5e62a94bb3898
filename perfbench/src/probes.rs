//! Metrics derived from the recorded probe stream.
//!
//! Recovery latency is measured per (receiver, group): from the source's
//! `Sender` probe for the group's last data packet to the receiver's
//! first `GroupClose { complete: true }`.  A group that never completes
//! yields no sample; it counts against the delivery ratio instead.
//!
//! The replay check feeds the recorded stream through a fresh
//! [`Auditor`] and compares its verdict with the inline auditor's, so a
//! probe stream that lost or reordered records cannot pass unnoticed.

use sharqfec_netsim::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Recovery samples in simulated milliseconds, one per completed
/// (receiver, group), in (node, group) order.
///
/// `group_size` is the stream's `k`; `packets` its length, so the last
/// group may be short.  Closes of groups whose last data packet the
/// source never sent fresh are ignored.
pub fn recovery_ms(
    records: &[ProbeRecord],
    source: NodeId,
    group_size: u32,
    packets: u32,
) -> Vec<f64> {
    let mut sent: HashMap<u32, SimTime> = HashMap::new();
    for r in records {
        if let (true, ProbeEvent::Sender { seq }) = (r.node == source, r.event) {
            sent.entry(seq).or_insert(r.time);
        }
    }
    let mut closed: HashMap<(NodeId, u32), SimTime> = HashMap::new();
    for r in records {
        if let ProbeEvent::GroupClose {
            group,
            complete: true,
            ..
        } = r.event
        {
            if r.node != source {
                closed.entry((r.node, group)).or_insert(r.time);
            }
        }
    }
    let mut keys: Vec<_> = closed.keys().copied().collect();
    keys.sort_unstable_by_key(|&(n, g)| (n.0, g));
    keys.into_iter()
        .filter_map(|(node, group)| {
            let last = ((group + 1) * group_size).min(packets).checked_sub(1)?;
            let from = *sent.get(&last)?;
            let to = closed[&(node, group)];
            Some(to.saturating_since(from).as_secs_f64() * 1e3)
        })
        .collect()
}

/// The verdict of a replayed audit and what the replay cost.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Probe events the replay auditor ingested.
    pub events: u64,
    /// Its one-line verdict.
    pub summary: String,
    /// Host seconds spent ingesting.
    pub ingest_s: f64,
}

/// Replays `records` through a fresh auditor configured as the inline
/// one was, and reports its verdict as of `now`.
pub fn replay(records: &[ProbeRecord], cfg: AuditConfig, now: SimTime) -> Replay {
    let mut auditor = Auditor::new(cfg);
    let t = Instant::now();
    for r in records {
        auditor.ingest(r);
    }
    let ingest_s = t.elapsed().as_secs_f64();
    let report = auditor.report(now);
    Replay {
        events: report.events,
        summary: report.summary(),
        ingest_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, node: u32, event: ProbeEvent) -> ProbeRecord {
        ProbeRecord {
            time: SimTime::from_millis(ms),
            node: NodeId(node),
            event,
        }
    }

    fn close(ms: u64, node: u32, group: u32, complete: bool) -> ProbeRecord {
        rec(
            ms,
            node,
            ProbeEvent::GroupClose {
                group,
                complete,
                held: if complete { 4 } else { 2 },
                k: 4,
            },
        )
    }

    /// Source n0 sends a 6-packet stream in groups of 4 (the tail group
    /// has 2 packets); n1 completes both groups, n2 closes group 0
    /// incomplete at the stream-end audit and completes it later, and
    /// never completes group 1.
    fn stream() -> Vec<ProbeRecord> {
        let mut v: Vec<ProbeRecord> = (0..6)
            .map(|seq| rec(100 + 10 * u64::from(seq), 0, ProbeEvent::Sender { seq }))
            .collect();
        v.push(close(160, 1, 0, true));
        v.push(close(170, 2, 0, false));
        v.push(close(185, 1, 1, true));
        v.push(close(400, 2, 0, true));
        v.push(close(900, 2, 0, true));
        v.push(close(950, 2, 1, false));
        v
    }

    #[test]
    fn recovery_runs_from_the_groups_last_send_to_first_complete_close() {
        // Group 0's last packet (seq 3) left at 130 ms, group 1's (seq 5,
        // the short tail) at 150 ms.  n2's later duplicate close and its
        // incomplete closes are not samples.
        let samples = recovery_ms(&stream(), NodeId(0), 4, 6);
        assert_eq!(samples, vec![30.0, 35.0, 270.0]);
    }

    #[test]
    fn unsent_groups_yield_no_sample() {
        let mut records = stream();
        records.retain(|r| !matches!(r.event, ProbeEvent::Sender { seq } if seq == 5));
        assert_eq!(recovery_ms(&records, NodeId(0), 4, 6), vec![30.0, 270.0]);
    }

    #[test]
    fn replay_verdict_matches_inline_auditor() {
        let records = stream();
        let cfg = AuditConfig::default();
        let mut sink = ProbeSink::recording();
        sink.set_auditor(Auditor::new(cfg.clone()));
        for r in &records {
            sink.emit(r.time, r.node, r.event);
        }
        let now = SimTime::from_secs(1);
        let inline = sink.audit_report(now).expect("auditor attached");
        let replayed = replay(sink.records(), cfg, now);
        assert_eq!(replayed.events, inline.events);
        assert_eq!(replayed.summary, inline.summary());
        // n2 never completed group 1: both verdicts flag it.
        assert!(!inline.ok());
    }
}
