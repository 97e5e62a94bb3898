//! The traced run's timing wrapper around [`SfAgent`].
//!
//! [`Timed`] forwards every callback unchanged and times it, attributing
//! the call to one protocol plane: packets by their [`TrafficClass`],
//! timers by whether the token belongs to the session layer
//! ([`is_session_token`]).  It draws no RNG, schedules nothing and emits
//! no probes of its own, so a wrapped run is event-for-event identical to
//! an unwrapped one (pinned by this package's tests).

use sharqfec::{SfAgent, SfMsg};
use sharqfec_netsim::prelude::*;
use sharqfec_session::core::is_session_token;
use std::time::Instant;

/// The planes callbacks are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// Original data packets (`core`).
    Data,
    /// FEC repair packets (`core`).
    Repair,
    /// NACKs (`core`).
    Nack,
    /// Protocol timers: send, loss detection, request, reply, measure (`core`).
    CoreTimer,
    /// Session announcements (`session`).
    Announce,
    /// ZCR challenge/response/takeover traffic (`session`).
    Control,
    /// Session timers (`session`).
    SessionTimer,
    /// Agent start (both layers).
    Start,
}

impl Plane {
    /// Every plane, in [`Plane::index`] order.
    pub const ALL: [Plane; 8] = [
        Plane::Data,
        Plane::Repair,
        Plane::Nack,
        Plane::CoreTimer,
        Plane::Announce,
        Plane::Control,
        Plane::SessionTimer,
        Plane::Start,
    ];

    /// Dense index into [`PlaneStats`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The per-layer metric counting this plane's callbacks.
    pub fn calls_metric(self) -> &'static str {
        match self {
            Plane::Data => "core.data.calls",
            Plane::Repair => "core.repair.calls",
            Plane::Nack => "core.nack.calls",
            Plane::CoreTimer => "core.timer.calls",
            Plane::Announce => "session.announce.calls",
            Plane::Control => "session.control.calls",
            Plane::SessionTimer => "session.timer.calls",
            Plane::Start => "start.calls",
        }
    }

    /// The per-layer metric for this plane's mean callback cost.
    pub fn ns_metric(self) -> &'static str {
        match self {
            Plane::Data => "core.data.ns_per_call",
            Plane::Repair => "core.repair.ns_per_call",
            Plane::Nack => "core.nack.ns_per_call",
            Plane::CoreTimer => "core.timer.ns_per_call",
            Plane::Announce => "session.announce.ns_per_call",
            Plane::Control => "session.control.ns_per_call",
            Plane::SessionTimer => "session.timer.ns_per_call",
            Plane::Start => "start.ns_per_call",
        }
    }

    fn of_class(class: TrafficClass) -> Plane {
        match class {
            TrafficClass::Data => Plane::Data,
            TrafficClass::Repair => Plane::Repair,
            TrafficClass::Nack => Plane::Nack,
            TrafficClass::Session => Plane::Announce,
            TrafficClass::Control => Plane::Control,
        }
    }
}

/// Calls and host nanoseconds per plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Callbacks per plane.
    pub calls: [u64; Plane::ALL.len()],
    /// Host nanoseconds spent inside those callbacks.
    pub nanos: [u64; Plane::ALL.len()],
}

impl PlaneStats {
    /// Adds another agent's counters into these.
    pub fn merge(&mut self, other: &PlaneStats) {
        for i in 0..Plane::ALL.len() {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Callbacks over every plane.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Host seconds over every plane.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// An [`SfAgent`] whose callbacks are timed per plane.
pub struct Timed {
    /// The wrapped protocol agent.
    pub inner: SfAgent,
    /// What its callbacks cost so far.
    pub stats: PlaneStats,
}

impl Timed {
    /// Wraps an agent with zeroed counters.
    pub fn new(inner: SfAgent) -> Timed {
        Timed {
            inner,
            stats: PlaneStats::default(),
        }
    }

    fn charge(&mut self, plane: Plane, started: Instant) {
        let i = plane.index();
        self.stats.calls[i] += 1;
        self.stats.nanos[i] += started.elapsed().as_nanos() as u64;
    }
}

impl Agent<SfMsg> for Timed {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.charge(Plane::Start, t);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SfMsg>, pkt: &Packet<SfMsg>) {
        let t = Instant::now();
        self.inner.on_packet(ctx, pkt);
        self.charge(Plane::of_class(pkt.payload.class()), t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SfMsg>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        let plane = if is_session_token(token) {
            Plane::SessionTimer
        } else {
            Plane::CoreTimer
        };
        self.charge(plane, t);
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
}
