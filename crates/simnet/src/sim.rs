//! The discrete-event engine: actors, the event queue, and virtual time.
//!
//! Determinism: events are ordered by `(delivery time, enqueue sequence)`,
//! so two runs of the same protocol produce byte-identical schedules. An
//! actor has an *occupancy horizon* (`ready_at`): a handler invoked at
//! delivery time `t` actually executes at `max(t, ready_at)` and can
//! extend the horizon with [`Ctx::busy`] — this is how a single server
//! thread serializing many simultaneous requests (the effect behind the
//! paper's super-linear baseline `AllFence` times) is modeled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::net::NetModel;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// Dense actor index within a [`Sim`].
pub type ActorId = usize;

/// Behaviour of one simulated entity (a user process or a server thread).
pub trait Actor<M> {
    /// Invoked once at time 0 before any message delivery.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Invoked for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M);
}

struct Event<M> {
    time: Time,
    seq: u64,
    dst: ActorId,
    from: ActorId,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Handler-side interface: the current virtual time, message sending, and
/// occupancy accounting.
pub struct Ctx<'a, M> {
    /// Virtual time at which this handler runs.
    pub now: Time,
    /// The actor being invoked.
    pub me: ActorId,
    model: &'a NetModel,
    node_of: &'a [usize],
    pending: Vec<(Time, ActorId, ActorId, M)>,
    busy: Time,
}

impl<'a, M> Ctx<'a, M> {
    /// Send `msg` (`size` payload bytes) to `dst`; it departs after any
    /// [`Ctx::busy`] time already charged in this handler (process, then
    /// reply) and is delivered one network one-way time later.
    /// Non-blocking, so messages sent in one handler overlap in flight.
    pub fn send(&mut self, dst: ActorId, msg: M, size: usize) {
        self.send_after(0, dst, msg, size);
    }

    /// Send with an additional artificial delay before the network time
    /// (e.g. thinking/hold time before the action).
    pub fn send_after(&mut self, delay: Time, dst: ActorId, msg: M, size: usize) {
        let lat = self.model.one_way(self.node_of[self.me], self.node_of[dst], size);
        self.pending.push((self.now + self.busy + delay + lat, self.me, dst, msg));
    }

    /// Schedule a message to self at `self.now + busy + delay` (a timer).
    pub fn wake_after(&mut self, delay: Time, msg: M) {
        self.pending.push((self.now + self.busy + delay, self.me, self.me, msg));
    }

    /// Consume `d` of this actor's time: later deliveries to this actor
    /// wait until the handler's start time plus all `busy` charged.
    pub fn busy(&mut self, d: Time) {
        self.busy += d;
    }

    /// The node hosting actor `a`.
    pub fn node_of(&self, a: ActorId) -> usize {
        self.node_of[a]
    }

    /// True if `a` shares a node with the current actor.
    pub fn is_local(&self, a: ActorId) -> bool {
        self.node_of[a] == self.node_of[self.me]
    }
}

/// A deterministic discrete-event simulation over actors of type `A`
/// exchanging messages of type `M`.
pub struct Sim<M, A> {
    actors: Vec<A>,
    node_of: Vec<usize>,
    model: NetModel,
    queue: BinaryHeap<Reverse<Event<M>>>,
    ready_at: Vec<Time>,
    now: Time,
    seq: u64,
    delivered: u64,
    delivered_inter_node: u64,
}

impl<M, A: Actor<M>> Sim<M, A> {
    /// Build a simulation: `actors[i]` lives on node `node_of[i]`.
    pub fn new(actors: Vec<A>, node_of: Vec<usize>, model: NetModel) -> Self {
        assert_eq!(actors.len(), node_of.len());
        let n = actors.len();
        Sim {
            actors,
            node_of,
            model,
            queue: BinaryHeap::new(),
            ready_at: vec![0; n],
            now: 0,
            seq: 0,
            delivered: 0,
            delivered_inter_node: 0,
        }
    }

    fn flush(&mut self, pending: Vec<(Time, ActorId, ActorId, M)>) {
        for (time, from, dst, msg) in pending {
            assert!(dst < self.actors.len(), "send to unknown actor {dst}");
            self.queue.push(Reverse(Event { time, seq: self.seq, dst, from, msg }));
            self.seq += 1;
        }
    }

    /// Run `on_start` on every actor, then deliver events in time order
    /// until the queue is empty or `max_events` deliveries have occurred.
    /// Returns the final virtual time.
    pub fn run(&mut self, max_events: u64) -> Time {
        for i in 0..self.actors.len() {
            let mut ctx =
                Ctx { now: 0, me: i, model: &self.model, node_of: &self.node_of, pending: Vec::new(), busy: 0 };
            self.actors[i].on_start(&mut ctx);
            let busy = ctx.busy;
            let pending = std::mem::take(&mut ctx.pending);
            drop(ctx);
            self.ready_at[i] = self.ready_at[i].max(busy);
            self.flush(pending);
        }
        while let Some(Reverse(ev)) = self.queue.pop() {
            if self.delivered >= max_events {
                panic!("simulation exceeded {max_events} events — livelocked protocol?");
            }
            self.delivered += 1;
            self.delivered_inter_node += u64::from(self.node_of[ev.from] != self.node_of[ev.dst]);
            let start = ev.time.max(self.ready_at[ev.dst]);
            self.now = self.now.max(start);
            let mut ctx = Ctx {
                now: start,
                me: ev.dst,
                model: &self.model,
                node_of: &self.node_of,
                pending: Vec::new(),
                busy: 0,
            };
            self.actors[ev.dst].on_message(&mut ctx, ev.from, ev.msg);
            let busy = ctx.busy;
            let pending = std::mem::take(&mut ctx.pending);
            drop(ctx);
            self.ready_at[ev.dst] = start + busy;
            self.now = self.now.max(self.ready_at[ev.dst]);
            self.flush(pending);
        }
        self.now
    }

    /// Final virtual time reached so far.
    pub fn time(&self) -> Time {
        self.now
    }

    /// Number of messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Of [`Sim::delivered`], the messages whose sender and receiver
    /// live on different nodes (the ones that pay the wire).
    pub fn delivered_inter_node(&self) -> u64 {
        self.delivered_inter_node
    }

    /// Inspect an actor after (or between) runs.
    pub fn actor(&self, i: ActorId) -> &A {
        &self.actors[i]
    }

    /// Iterate over all actors.
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        self.actors.iter()
    }

    /// The actors, in id order, once the run is over.
    pub fn into_actors(self) -> Vec<A> {
        self.actors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong actor: echoes `k-1` for every `k > 0` received.
    struct Pong {
        received: Vec<u64>,
        peer: ActorId,
        serve: bool,
    }

    impl Actor<u64> for Pong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if !self.serve {
                ctx.send(self.peer, 3, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: ActorId, msg: u64) {
            self.received.push(msg);
            if msg > 0 {
                ctx.send(from, msg - 1, 0);
            }
        }
    }

    fn pingpong(model: NetModel, nodes: Vec<usize>) -> (Time, Vec<u64>, Vec<u64>) {
        let a = Pong { received: vec![], peer: 1, serve: false };
        let b = Pong { received: vec![], peer: 0, serve: true };
        let mut sim = Sim::new(vec![a, b], nodes, model);
        let t = sim.run(100);
        (t, sim.actor(0).received.clone(), sim.actor(1).received.clone())
    }

    #[test]
    fn pingpong_timing_is_exact() {
        // 4 messages of latency 1000 each: ends at t = 4000.
        let (t, a, b) = pingpong(NetModel::latency_only(1000), vec![0, 1]);
        assert_eq!(t, 4000);
        assert_eq!(b, vec![3, 1]);
        assert_eq!(a, vec![2, 0]);
    }

    #[test]
    fn intra_node_uses_intra_latency() {
        let mut m = NetModel::latency_only(1000);
        m.intra_node = 10;
        let (t, _, _) = pingpong(m, vec![0, 0]);
        assert_eq!(t, 40);
    }

    #[test]
    fn occupancy_serializes_a_server() {
        /// Two clients fire one request each at t=0; the server is busy
        /// 500 per request; replies carry the handling completion.
        struct Client {
            server: ActorId,
            reply_at: Time,
        }
        struct Server;
        enum Msg {
            Req,
            Reply,
        }
        enum Node {
            C(Client),
            S(Server),
        }
        impl Actor<Msg> for Node {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if let Node::C(c) = self {
                    ctx.send(c.server, Msg::Req, 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
                match (self, msg) {
                    (Node::S(_), Msg::Req) => {
                        ctx.busy(500);
                        ctx.send(from, Msg::Reply, 0);
                    }
                    (Node::C(c), Msg::Reply) => c.reply_at = ctx.now,
                    _ => unreachable!(),
                }
            }
        }
        let actors = vec![
            Node::C(Client { server: 2, reply_at: 0 }),
            Node::C(Client { server: 2, reply_at: 0 }),
            Node::S(Server),
        ];
        let mut sim = Sim::new(actors, vec![0, 1, 2], NetModel::latency_only(1000));
        sim.run(100);
        let (r0, r1) = match (sim.actor(0), sim.actor(1)) {
            (Node::C(a), Node::C(b)) => (a.reply_at, b.reply_at),
            _ => unreachable!(),
        };
        // First request: handled at 1000, processed for 500, reply departs
        // 1500 and lands 2500. Second request arrived at 1000 but waits
        // out the occupancy: handled 1500, reply departs 2000, lands 3000.
        let mut replies = [r0, r1];
        replies.sort_unstable();
        assert_eq!(replies, [2500, 3000]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (t, a, b) = pingpong(NetModel::myrinet_2000(), vec![0, 1]);
            (t, a, b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn event_budget_catches_livelock() {
        /// Two actors bouncing a counter that never decreases.
        struct Loopy;
        impl Actor<()> for Loopy {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(1 - ctx.me, (), 0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: ActorId, _: ()) {
                ctx.send(from, (), 0);
            }
        }
        let mut sim = Sim::new(vec![Loopy, Loopy], vec![0, 1], NetModel::latency_only(1));
        sim.run(50);
    }

    #[test]
    fn wake_after_timer() {
        struct T {
            fired: Time,
        }
        impl Actor<u8> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.wake_after(777, 1);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _: ActorId, _: u8) {
                self.fired = ctx.now;
            }
        }
        let mut sim = Sim::new(vec![T { fired: 0 }], vec![0], NetModel::latency_only(5));
        sim.run(10);
        assert_eq!(sim.actor(0).fired, 777);
    }
}
