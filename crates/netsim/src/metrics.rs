//! Measurement: every transmission, delivery, and drop, timestamped.
//!
//! The paper's Figures 14–21 plot "the sum of data and repair traffic
//! visible at each session member over 0.1 second intervals" and the
//! corresponding NACK counts.  The [`Recorder`] captures the raw events
//! those plots are binned from; the `sharqfec-analysis` crate does the
//! binning.
//!
//! Three storage modes ([`RecorderMode`]) trade fidelity for footprint:
//!
//! * **Raw** (the default) keeps every event in the public vectors, so
//!   post-hoc tooling (timelines, custom filters) can see everything.
//! * **Streaming** aggregates at record time into per-(node, class)
//!   totals and fixed 0.1 s time bins (the paper's granularity), keeping
//!   memory `O(nodes × bins)` regardless of traffic volume — the mode the
//!   parallel sweep runner uses, where dozens of engines are alive at
//!   once.
//! * **Aggregate** keeps only session-global per-class totals and bins,
//!   `O(bins)` regardless of node count — the mode the 10⁵–10⁶-receiver
//!   scaling sweeps use.
//!
//! In the raw and streaming modes the per-(node, class) totals are
//! maintained as the events arrive, so [`Recorder::delivered_count`] and
//! [`Recorder::sent_count`] are O(1) lookups, never scans; the global
//! totals are O(1) in every mode.

use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::queue::EventKey;
use crate::time::{SimDuration, SimTime};

/// Width of every time bin the recorder keeps: the paper's measurement
/// granularity (§6.2), 0.1 s.
const BIN_WIDTH: SimDuration = SimDuration::from_millis(100);

/// Coarse protocol-independent classification of a packet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrafficClass {
    /// Original data packets (lossy).
    Data,
    /// FEC/retransmission repair packets (lossy).
    Repair,
    /// Negative acknowledgements / repair requests (lossless per §6.2).
    Nack,
    /// Session-management messages (lossless per §6.2).
    Session,
    /// Other control traffic, e.g. ZCR challenges (lossless).
    Control,
}

/// Number of traffic classes (the aggregate tables are dense over these).
pub const CLASS_COUNT: usize = 5;

impl TrafficClass {
    /// All classes, in [`TrafficClass::index`] order.
    pub const ALL: [TrafficClass; CLASS_COUNT] = [
        TrafficClass::Data,
        TrafficClass::Repair,
        TrafficClass::Nack,
        TrafficClass::Session,
        TrafficClass::Control,
    ];

    /// Dense index for aggregate tables.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Repair => 1,
            TrafficClass::Nack => 2,
            TrafficClass::Session => 3,
            TrafficClass::Control => 4,
        }
    }

    /// Whether link loss applies to this class (paper §6.2: data and
    /// repairs are lossy; session traffic and NACKs are not).
    pub fn lossy(self) -> bool {
        matches!(self, TrafficClass::Data | TrafficClass::Repair)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Data => "data",
            TrafficClass::Repair => "repair",
            TrafficClass::Nack => "nack",
            TrafficClass::Session => "session",
            TrafficClass::Control => "control",
        }
    }
}

/// One delivery (or transmission) observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// When the packet was delivered/transmitted.
    pub time: SimTime,
    /// The node observing the packet (receiver for deliveries, sender for
    /// transmissions).
    pub node: NodeId,
    /// The packet's original source.
    pub src: NodeId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Wire size in bytes.
    pub bytes: u32,
    /// Channel the packet travelled on.
    pub channel: ChannelId,
}

/// One packet dropped by link loss.
#[derive(Clone, Debug, PartialEq)]
pub struct DropRecord {
    /// When the drop happened (at the head of the link).
    pub time: SimTime,
    /// Node that was transmitting onto the lossy link.
    pub from: NodeId,
    /// Node that would have received.
    pub to: NodeId,
    /// Traffic class of the lost packet.
    pub class: TrafficClass,
}

/// How the recorder stores what it observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecorderMode {
    /// Keep every event in the raw vectors (plus the O(1) totals).
    #[default]
    Raw,
    /// Aggregate into per-(node, class) totals and time bins at record
    /// time; the raw vectors stay empty.  Memory is `O(nodes × bins)`.
    Streaming,
    /// Keep only session-global per-class totals and time bins — no
    /// per-node state, no raw vectors.  Memory is `O(bins)` regardless of
    /// node count or traffic volume, the mode large-scale sweeps use
    /// (10⁶ receivers would make even per-node totals several hundred
    /// megabytes).  Per-node queries ([`Recorder::delivered_count`],
    /// [`Recorder::sent_count`], the per-node bin accessors) read as zero
    /// or empty in this mode.
    Aggregate,
}

/// A packet count plus the bytes those packets carried.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Tally {
    /// Packets observed.
    pub packets: u64,
    /// Total wire bytes across those packets.
    pub bytes: u64,
}

impl Tally {
    fn add(&mut self, bytes: u32) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    fn absorb(&mut self, other: Tally) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

/// Per-record [`EventKey`] tags, kept only by per-shard recorders in
/// [`RecorderMode::Raw`] (see [`Recorder::for_shard`]).  Each raw vector
/// gets a parallel tag vector stamping which engine event produced the
/// record, so shard outputs can be k-way merged back into the exact
/// serial timeline regardless of shard completion order (see
/// `shard.rs`).
#[derive(Debug, Default)]
struct RecorderTags {
    current: EventKey,
    deliveries: Vec<EventKey>,
    transmissions: Vec<EventKey>,
    drops: Vec<EventKey>,
}

/// Per-node aggregate state: totals per class, and (streaming mode only)
/// per-bin tallies per class.
#[derive(Clone, Debug, Default)]
struct NodeStats {
    delivered: [Tally; CLASS_COUNT],
    sent: [Tally; CLASS_COUNT],
    delivered_bins: [Vec<Tally>; CLASS_COUNT],
    sent_bins: [Vec<Tally>; CLASS_COUNT],
}

/// Accumulates simulation observations.
#[derive(Debug)]
pub struct Recorder {
    /// Every delivery to an agent (raw mode only).
    pub deliveries: Vec<Record>,
    /// Every send by an agent (one record per transmission, not per
    /// receiver; raw mode only).
    pub transmissions: Vec<Record>,
    /// Every loss event (raw mode only).
    pub drops: Vec<DropRecord>,
    mode: RecorderMode,
    nodes: Vec<NodeStats>,
    delivered_total: [Tally; CLASS_COUNT],
    sent_total: [Tally; CLASS_COUNT],
    drop_total: [u64; CLASS_COUNT],
    /// Session-global time bins, maintained in [`RecorderMode::Aggregate`].
    delivered_bins_total: [Vec<Tally>; CLASS_COUNT],
    sent_bins_total: [Vec<Tally>; CLASS_COUNT],
    /// Event-key tags parallel to the raw vectors; `Some` only on
    /// raw-mode per-shard recorders (see [`Recorder::for_shard`]).
    tags: Option<Box<RecorderTags>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            deliveries: Vec::new(),
            transmissions: Vec::new(),
            drops: Vec::new(),
            mode: RecorderMode::default(),
            nodes: Vec::new(),
            delivered_total: [Tally::default(); CLASS_COUNT],
            sent_total: [Tally::default(); CLASS_COUNT],
            drop_total: [0; CLASS_COUNT],
            delivered_bins_total: Default::default(),
            sent_bins_total: Default::default(),
            tags: None,
        }
    }
}

impl Recorder {
    /// A recorder in the given mode.
    pub fn new(mode: RecorderMode) -> Recorder {
        Recorder {
            mode,
            ..Recorder::default()
        }
    }

    /// The active storage mode.
    pub fn mode(&self) -> RecorderMode {
        self.mode
    }

    /// Width of the streaming- and aggregate-mode time bins: the paper's
    /// fixed 0.1 s.
    pub fn bin_width(&self) -> SimDuration {
        BIN_WIDTH
    }

    /// A per-shard recorder in `mode`.  In [`RecorderMode::Raw`] it
    /// stamps every record with the [`EventKey`] set by
    /// [`Recorder::set_tag`], so [`Recorder::merge_raw_parts`] can
    /// reconstruct the serial timeline from the shards' parts.
    pub(crate) fn for_shard(mode: RecorderMode) -> Recorder {
        Recorder {
            tags: (mode == RecorderMode::Raw).then(Box::default),
            ..Recorder::new(mode)
        }
    }

    /// Sets the event key stamped onto subsequently recorded raw events.
    /// No-op when tagging is disabled.
    #[inline]
    pub(crate) fn set_tag(&mut self, key: EventKey) {
        if let Some(tags) = &mut self.tags {
            tags.current = key;
        }
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeStats {
        if self.nodes.len() <= node.idx() {
            self.nodes.resize_with(node.idx() + 1, NodeStats::default);
        }
        &mut self.nodes[node.idx()]
    }

    fn bin_index(&self, t: SimTime) -> usize {
        (t.as_nanos() / BIN_WIDTH.as_nanos()) as usize
    }

    /// Records one delivery observation.
    pub fn record_delivery(&mut self, r: Record) {
        self.delivered_total[r.class.index()].add(r.bytes);
        let bin = self.bin_index(r.time);
        match self.mode {
            RecorderMode::Aggregate => {
                let bins = &mut self.delivered_bins_total[r.class.index()];
                if bins.len() <= bin {
                    bins.resize(bin + 1, Tally::default());
                }
                bins[bin].add(r.bytes);
            }
            RecorderMode::Streaming => {
                let stats = self.node_mut(r.node);
                stats.delivered[r.class.index()].add(r.bytes);
                let bins = &mut stats.delivered_bins[r.class.index()];
                if bins.len() <= bin {
                    bins.resize(bin + 1, Tally::default());
                }
                bins[bin].add(r.bytes);
            }
            RecorderMode::Raw => {
                self.node_mut(r.node).delivered[r.class.index()].add(r.bytes);
                if let Some(tags) = &mut self.tags {
                    tags.deliveries.push(tags.current);
                }
                self.deliveries.push(r);
            }
        }
    }

    /// Records one transmission observation.
    pub fn record_transmission(&mut self, r: Record) {
        self.sent_total[r.class.index()].add(r.bytes);
        let bin = self.bin_index(r.time);
        match self.mode {
            RecorderMode::Aggregate => {
                let bins = &mut self.sent_bins_total[r.class.index()];
                if bins.len() <= bin {
                    bins.resize(bin + 1, Tally::default());
                }
                bins[bin].add(r.bytes);
            }
            RecorderMode::Streaming => {
                let stats = self.node_mut(r.node);
                stats.sent[r.class.index()].add(r.bytes);
                let bins = &mut stats.sent_bins[r.class.index()];
                if bins.len() <= bin {
                    bins.resize(bin + 1, Tally::default());
                }
                bins[bin].add(r.bytes);
            }
            RecorderMode::Raw => {
                self.node_mut(r.node).sent[r.class.index()].add(r.bytes);
                if let Some(tags) = &mut self.tags {
                    tags.transmissions.push(tags.current);
                }
                self.transmissions.push(r);
            }
        }
    }

    /// Records one loss event.
    pub fn record_drop(&mut self, d: DropRecord) {
        self.drop_total[d.class.index()] += 1;
        if self.mode == RecorderMode::Raw {
            if let Some(tags) = &mut self.tags {
                tags.drops.push(tags.current);
            }
            self.drops.push(d);
        }
    }

    /// Counts deliveries at `node` with the given class.  O(1).
    pub fn delivered_count(&self, node: NodeId, class: TrafficClass) -> usize {
        self.nodes
            .get(node.idx())
            .map_or(0, |s| s.delivered[class.index()].packets as usize)
    }

    /// Counts transmissions by `node` with the given class.  O(1).
    pub fn sent_count(&self, node: NodeId, class: TrafficClass) -> usize {
        self.nodes
            .get(node.idx())
            .map_or(0, |s| s.sent[class.index()].packets as usize)
    }

    /// Total deliveries across all nodes for a class.  O(1).
    pub fn total_delivered(&self, class: TrafficClass) -> usize {
        self.delivered_total[class.index()].packets as usize
    }

    /// Total transmissions across all nodes for a class.  O(1).
    pub fn total_sent(&self, class: TrafficClass) -> usize {
        self.sent_total[class.index()].packets as usize
    }

    /// Total loss events for a class.  O(1).
    pub fn total_dropped(&self, class: TrafficClass) -> usize {
        self.drop_total[class.index()] as usize
    }

    /// Total bytes delivered across all nodes for a class.  O(1).
    pub fn delivered_bytes(&self, class: TrafficClass) -> u64 {
        self.delivered_total[class.index()].bytes
    }

    /// Number of nodes with at least one recorded observation (dense
    /// upper bound for iterating aggregate tables).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Streaming-mode delivery bins for `(node, class)`: entry `i` covers
    /// `[i × bin_width, (i + 1) × bin_width)`.  Empty when nothing was
    /// recorded there (and always in raw mode, which keeps raw events
    /// instead).
    pub fn delivered_bins(&self, node: NodeId, class: TrafficClass) -> &[Tally] {
        self.nodes
            .get(node.idx())
            .map_or(&[][..], |s| &s.delivered_bins[class.index()])
    }

    /// Streaming-mode transmission bins for `(node, class)`; see
    /// [`Recorder::delivered_bins`].
    pub fn sent_bins(&self, node: NodeId, class: TrafficClass) -> &[Tally] {
        self.nodes
            .get(node.idx())
            .map_or(&[][..], |s| &s.sent_bins[class.index()])
    }

    /// Aggregate-mode session-global delivery bins for a class; entry `i`
    /// covers `[i × bin_width, (i + 1) × bin_width)`.  Empty in the other
    /// modes (which keep raw events or per-node bins instead).
    pub fn total_delivered_bins(&self, class: TrafficClass) -> &[Tally] {
        &self.delivered_bins_total[class.index()]
    }

    /// Aggregate-mode session-global transmission bins for a class; see
    /// [`Recorder::total_delivered_bins`].
    pub fn total_sent_bins(&self, class: TrafficClass) -> &[Tally] {
        &self.sent_bins_total[class.index()]
    }

    /// Approximate heap bytes this recorder currently holds.  The
    /// scaling harness asserts this stays `O(bins)` in
    /// [`RecorderMode::Aggregate`] — independent of node count and
    /// traffic volume.
    pub fn resident_bytes(&self) -> usize {
        let record = std::mem::size_of::<Record>();
        let tally = std::mem::size_of::<Tally>();
        let mut total = self.deliveries.capacity() * record
            + self.transmissions.capacity() * record
            + self.drops.capacity() * std::mem::size_of::<DropRecord>()
            + self.nodes.capacity() * std::mem::size_of::<NodeStats>();
        for s in &self.nodes {
            for c in 0..CLASS_COUNT {
                total += (s.delivered_bins[c].capacity() + s.sent_bins[c].capacity()) * tally;
            }
        }
        for c in 0..CLASS_COUNT {
            total += (self.delivered_bins_total[c].capacity() + self.sent_bins_total[c].capacity())
                * tally;
        }
        total
    }

    /// Sums another recorder's aggregate tables into this one: global
    /// per-class totals, drop counts, global bins, and (when present)
    /// per-node stats and bins.  Used to reassemble
    /// [`RecorderMode::Streaming`] / [`RecorderMode::Aggregate`] shard
    /// recorders, whose tables are commutative sums — per-node rows are
    /// node-disjoint across shards, so ordering cannot matter.
    pub(crate) fn absorb_totals(&mut self, other: &Recorder) {
        debug_assert_eq!(self.mode, other.mode, "shard recorders share one mode");
        for c in 0..CLASS_COUNT {
            self.delivered_total[c].absorb(other.delivered_total[c]);
            self.sent_total[c].absorb(other.sent_total[c]);
            self.drop_total[c] += other.drop_total[c];
            absorb_bins(
                &mut self.delivered_bins_total[c],
                &other.delivered_bins_total[c],
            );
            absorb_bins(&mut self.sent_bins_total[c], &other.sent_bins_total[c]);
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize_with(other.nodes.len(), NodeStats::default);
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            for c in 0..CLASS_COUNT {
                mine.delivered[c].absorb(theirs.delivered[c]);
                mine.sent[c].absorb(theirs.sent[c]);
                absorb_bins(&mut mine.delivered_bins[c], &theirs.delivered_bins[c]);
                absorb_bins(&mut mine.sent_bins[c], &theirs.sent_bins[c]);
            }
        }
    }

    /// Reassembles tagged [`RecorderMode::Raw`] shard recorders into this
    /// recorder, replaying every record in global [`EventKey`] order so the
    /// result is bit-identical to the serial run's recorder: raw vectors in
    /// serial order, totals and per-node tables rebuilt by the same
    /// `record_*` paths.  Records the target already holds (from earlier
    /// `advance` calls or external sends) stay in place; the merged batch
    /// appends after them, matching the serial timeline because a sharded
    /// window's events all postdate anything recorded before it.
    ///
    /// Each engine event is processed by exactly one shard, so no key
    /// appears in two parts; a stable sort keeps same-key records (several
    /// records from one event) in their original within-shard order.
    ///
    /// # Panics
    ///
    /// Panics if a part is untagged.
    pub(crate) fn merge_raw_parts(&mut self, parts: Vec<Recorder>) {
        assert_eq!(self.mode, RecorderMode::Raw);
        let mut deliveries: Vec<(EventKey, Record)> = Vec::new();
        let mut transmissions: Vec<(EventKey, Record)> = Vec::new();
        let mut drops: Vec<(EventKey, DropRecord)> = Vec::new();
        for mut part in parts {
            let tags = *part.tags.take().expect("shard recorder parts are tagged");
            assert_eq!(tags.deliveries.len(), part.deliveries.len());
            assert_eq!(tags.transmissions.len(), part.transmissions.len());
            assert_eq!(tags.drops.len(), part.drops.len());
            deliveries.extend(tags.deliveries.into_iter().zip(part.deliveries.drain(..)));
            transmissions.extend(
                tags.transmissions
                    .into_iter()
                    .zip(part.transmissions.drain(..)),
            );
            drops.extend(tags.drops.into_iter().zip(part.drops.drain(..)));
        }
        // Stable: same-key runs (all from one shard) keep their order.
        deliveries.sort_by_key(|(k, _)| *k);
        transmissions.sort_by_key(|(k, _)| *k);
        drops.sort_by_key(|(k, _)| *k);
        for (_, r) in deliveries {
            self.record_delivery(r);
        }
        for (_, r) in transmissions {
            self.record_transmission(r);
        }
        for (_, d) in drops {
            self.record_drop(d);
        }
    }
}

/// Elementwise `Tally` sum, growing `dst` to cover `src`.
fn absorb_bins(dst: &mut Vec<Tally>, src: &[Tally]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), Tally::default());
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, class: TrafficClass) -> Record {
        rec_at(0, node, class)
    }

    fn rec_at(t_ms: u64, node: u32, class: TrafficClass) -> Record {
        Record {
            time: SimTime::from_millis(t_ms),
            node: NodeId(node),
            src: NodeId(0),
            class,
            bytes: 10,
            channel: ChannelId(0),
        }
    }

    #[test]
    fn loss_applies_to_data_and_repairs_only() {
        assert!(TrafficClass::Data.lossy());
        assert!(TrafficClass::Repair.lossy());
        assert!(!TrafficClass::Nack.lossy());
        assert!(!TrafficClass::Session.lossy());
        assert!(!TrafficClass::Control.lossy());
    }

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn recorder_counts_filter_correctly() {
        let mut r = Recorder::default();
        r.record_delivery(rec(1, TrafficClass::Data));
        r.record_delivery(rec(1, TrafficClass::Data));
        r.record_delivery(rec(1, TrafficClass::Nack));
        r.record_delivery(rec(2, TrafficClass::Data));
        r.record_transmission(rec(0, TrafficClass::Data));

        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 2);
        assert_eq!(r.delivered_count(NodeId(2), TrafficClass::Data), 1);
        assert_eq!(r.delivered_count(NodeId(2), TrafficClass::Nack), 0);
        assert_eq!(r.delivered_count(NodeId(99), TrafficClass::Data), 0);
        assert_eq!(r.sent_count(NodeId(0), TrafficClass::Data), 1);
        assert_eq!(r.delivered_bytes(TrafficClass::Data), 30);
        assert_eq!(r.total_delivered(TrafficClass::Data), 3);
        assert_eq!(r.total_sent(TrafficClass::Data), 1);

        // Raw mode keeps the events themselves.
        assert_eq!(r.deliveries.len(), 4);
        assert_eq!(r.transmissions.len(), 1);
    }

    #[test]
    fn streaming_mode_bins_and_keeps_no_raw_events() {
        let mut r = Recorder::new(RecorderMode::Streaming);
        // Two deliveries in bin 0, one in bin 3 (0.1 s bins).
        r.record_delivery(rec_at(10, 1, TrafficClass::Data));
        r.record_delivery(rec_at(99, 1, TrafficClass::Data));
        r.record_delivery(rec_at(350, 1, TrafficClass::Data));
        r.record_transmission(rec_at(120, 0, TrafficClass::Nack));

        assert!(r.deliveries.is_empty(), "streaming keeps no raw events");
        assert!(r.transmissions.is_empty());
        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 3);
        assert_eq!(r.total_sent(TrafficClass::Nack), 1);

        let bins = r.delivered_bins(NodeId(1), TrafficClass::Data);
        assert_eq!(bins.len(), 4);
        assert_eq!(
            bins[0],
            Tally {
                packets: 2,
                bytes: 20
            }
        );
        assert_eq!(bins[1], Tally::default());
        assert_eq!(
            bins[3],
            Tally {
                packets: 1,
                bytes: 10
            }
        );
        let sent = r.sent_bins(NodeId(0), TrafficClass::Nack);
        assert_eq!(sent[1].packets, 1);
        // Unseen (node, class) pairs read as empty.
        assert!(r.delivered_bins(NodeId(9), TrafficClass::Data).is_empty());
    }

    #[test]
    fn drops_are_counted_in_both_modes() {
        let drop = DropRecord {
            time: SimTime::from_millis(5),
            from: NodeId(0),
            to: NodeId(1),
            class: TrafficClass::Data,
        };
        let mut raw = Recorder::default();
        raw.record_drop(drop.clone());
        assert_eq!(raw.total_dropped(TrafficClass::Data), 1);
        assert_eq!(raw.drops.len(), 1);

        let mut streaming = Recorder::new(RecorderMode::Streaming);
        streaming.record_drop(drop);
        assert_eq!(streaming.total_dropped(TrafficClass::Data), 1);
        assert!(streaming.drops.is_empty());
    }

    #[test]
    fn aggregate_mode_keeps_global_bins_and_no_per_node_state() {
        let mut r = Recorder::new(RecorderMode::Aggregate);
        r.record_delivery(rec_at(10, 1, TrafficClass::Data));
        r.record_delivery(rec_at(99, 2, TrafficClass::Data));
        r.record_delivery(rec_at(350, 3, TrafficClass::Session));
        r.record_transmission(rec_at(120, 0, TrafficClass::Nack));

        assert!(r.deliveries.is_empty() && r.transmissions.is_empty());
        assert_eq!(r.node_count(), 0, "no per-node tables at all");
        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 0);
        assert!(r.delivered_bins(NodeId(1), TrafficClass::Data).is_empty());

        // Global totals and bins still answer.
        assert_eq!(r.total_delivered(TrafficClass::Data), 2);
        assert_eq!(r.total_delivered(TrafficClass::Session), 1);
        assert_eq!(r.total_sent(TrafficClass::Nack), 1);
        let bins = r.total_delivered_bins(TrafficClass::Data);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].packets, 2);
        let sess = r.total_delivered_bins(TrafficClass::Session);
        assert_eq!(sess.len(), 4);
        assert_eq!(sess[3].packets, 1);
        assert_eq!(r.total_sent_bins(TrafficClass::Nack)[1].packets, 1);
    }

    #[test]
    fn aggregate_mode_memory_is_o_bins_not_o_packets() {
        // Record 10× the traffic into the same time window from many
        // different nodes: resident bytes must not move at all.
        let record = |events: u32| -> usize {
            let mut r = Recorder::new(RecorderMode::Aggregate);
            for i in 0..events {
                r.record_delivery(rec_at((i % 1000) as u64, i % 5000, TrafficClass::Data));
            }
            r.resident_bytes()
        };
        let small = record(2_000);
        let large = record(20_000);
        assert_eq!(
            small, large,
            "aggregate-mode footprint must depend only on the bin span"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TrafficClass::Repair.label(), "repair");
        assert_eq!(TrafficClass::Session.label(), "session");
    }

    fn key(time_ms: u64, origin: u32, oseq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_millis(time_ms),
            push_time: SimTime::ZERO,
            origin,
            oseq,
        }
    }

    #[test]
    fn merge_raw_parts_rebuilds_serial_order_regardless_of_part_order() {
        // Serial reference: events at keys k1 < k2 < k3, each producing
        // one record.
        let mut serial = Recorder::default();
        serial.record_delivery(rec_at(10, 1, TrafficClass::Data));
        serial.record_transmission(rec_at(15, 2, TrafficClass::Repair));
        serial.record_delivery(rec_at(20, 3, TrafficClass::Data));

        let build_parts = || {
            let mut a = Recorder::for_shard(RecorderMode::Raw);
            a.set_tag(key(10, 1, 0));
            a.record_delivery(rec_at(10, 1, TrafficClass::Data));
            let mut b = Recorder::for_shard(RecorderMode::Raw);
            b.set_tag(key(15, 2, 0));
            b.record_transmission(rec_at(15, 2, TrafficClass::Repair));
            b.set_tag(key(20, 2, 1));
            b.record_delivery(rec_at(20, 3, TrafficClass::Data));
            (a, b)
        };

        for swap in [false, true] {
            let (a, b) = build_parts();
            let parts = if swap { vec![b, a] } else { vec![a, b] };
            let mut merged = Recorder::default();
            merged.merge_raw_parts(parts);
            assert_eq!(merged.deliveries, serial.deliveries);
            assert_eq!(merged.transmissions, serial.transmissions);
            assert_eq!(
                merged.delivered_count(NodeId(1), TrafficClass::Data),
                serial.delivered_count(NodeId(1), TrafficClass::Data)
            );
            assert_eq!(
                merged.total_sent(TrafficClass::Repair),
                serial.total_sent(TrafficClass::Repair)
            );
        }
    }

    #[test]
    fn merge_raw_parts_keeps_same_event_records_in_shard_order() {
        // One event emits two transmissions; they share a tag and must
        // stay in emission order after the stable merge.
        let mut part = Recorder::for_shard(RecorderMode::Raw);
        part.set_tag(key(5, 3, 7));
        part.record_transmission(rec_at(5, 3, TrafficClass::Data));
        part.record_transmission(rec_at(5, 3, TrafficClass::Repair));
        let mut merged = Recorder::default();
        merged.merge_raw_parts(vec![part]);
        assert_eq!(merged.transmissions[0].class, TrafficClass::Data);
        assert_eq!(merged.transmissions[1].class, TrafficClass::Repair);
    }

    #[test]
    fn absorb_totals_sums_streaming_tables() {
        let mut a = Recorder::new(RecorderMode::Streaming);
        a.record_delivery(rec_at(10, 1, TrafficClass::Data));
        a.record_drop(DropRecord {
            time: SimTime::from_millis(5),
            from: NodeId(0),
            to: NodeId(1),
            class: TrafficClass::Data,
        });
        let mut b = Recorder::new(RecorderMode::Streaming);
        b.record_delivery(rec_at(350, 2, TrafficClass::Data));
        b.record_transmission(rec_at(120, 2, TrafficClass::Nack));

        let mut merged = Recorder::new(RecorderMode::Streaming);
        merged.absorb_totals(&a);
        merged.absorb_totals(&b);
        assert_eq!(merged.total_delivered(TrafficClass::Data), 2);
        assert_eq!(merged.total_dropped(TrafficClass::Data), 1);
        assert_eq!(merged.total_sent(TrafficClass::Nack), 1);
        assert_eq!(merged.delivered_count(NodeId(1), TrafficClass::Data), 1);
        assert_eq!(merged.delivered_count(NodeId(2), TrafficClass::Data), 1);
        let bins = merged.delivered_bins(NodeId(2), TrafficClass::Data);
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[3].packets, 1);
    }

    #[test]
    fn absorb_totals_sums_aggregate_bins() {
        let mut a = Recorder::new(RecorderMode::Aggregate);
        a.record_delivery(rec_at(10, 1, TrafficClass::Data));
        let mut b = Recorder::new(RecorderMode::Aggregate);
        b.record_delivery(rec_at(50, 2, TrafficClass::Data));
        b.record_delivery(rec_at(350, 3, TrafficClass::Data));
        let mut merged = Recorder::new(RecorderMode::Aggregate);
        merged.absorb_totals(&a);
        merged.absorb_totals(&b);
        let bins = merged.total_delivered_bins(TrafficClass::Data);
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].packets, 2);
        assert_eq!(bins[3].packets, 1);
        assert_eq!(merged.node_count(), 0);
    }
}
