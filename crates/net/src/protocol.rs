//! The protocol automaton abstraction.
//!
//! Every protocol in the architecture — from reliable broadcast up to
//! the replicated services — is written as a time-free, event-driven
//! automaton: it reacts to local inputs and incoming messages by
//! emitting sends and outputs, and *never* consults a clock. This is
//! exactly the asynchronous model of §2.2: correctness must hold under
//! every message schedule, so the same automaton code runs unchanged
//! under the deterministic simulator (with any adversarial scheduler)
//! and over real sockets on the TCP runtime.
//!
//! The single concession to non-asynchronous designs is
//! [`Protocol::on_tick`], a no-op by default, which lets the
//! failure-detector *baseline* protocol (the comparison system of the
//! Figure 1 experiment) implement its timeouts; the SINTRA protocols
//! never override it.

use sintra_adversary::party::PartyId;
use sintra_obs::Obs;

/// Per-delivery instrumentation context handed to the `*_ctx` automaton
/// hooks: who we are, how many parties the run has, where simulated (or
/// wall-clock) time stands, and the node's observability handle.
///
/// The context is how `Effects::broadcast` knows the group size without
/// every protocol threading its own `n`, and how instrumented automata
/// reach their per-node metrics registry. A context built with
/// [`Context::disabled`] records nothing and costs a branch per call.
#[derive(Clone, Debug)]
pub struct Context {
    /// The local party id.
    pub me: PartyId,
    /// Number of parties in the group.
    pub n: usize,
    /// Current simulator step (or, on the TCP runtime, nanoseconds of
    /// wall clock since the node started); 0 when the runtime has no
    /// notion of time yet.
    pub at: u64,
    /// This node's observability handle (disabled ⇒ all recording is a
    /// no-op).
    pub obs: Obs,
}

impl Context {
    /// A context with instrumentation off — what the legacy
    /// (non-`_ctx`) automaton hooks observe.
    pub fn disabled(me: PartyId, n: usize) -> Context {
        Context {
            me,
            n,
            at: 0,
            obs: Obs::disabled(),
        }
    }
}

/// Effects accumulated while handling one event.
#[derive(Debug)]
pub struct Effects<M, O> {
    sends: Vec<(PartyId, M)>,
    outputs: Vec<O>,
    /// Group size, when the constructing runtime knows it; enables
    /// [`broadcast`](Self::broadcast).
    n: Option<usize>,
}

impl<M, O> Effects<M, O> {
    /// Creates an empty effect buffer with no known group size
    /// ([`broadcast`](Self::broadcast) will panic; prefer
    /// [`for_parties`](Self::for_parties)).
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            outputs: Vec::new(),
            n: None,
        }
    }

    /// Creates an empty effect buffer for a group of `n` parties.
    pub fn for_parties(n: usize) -> Self {
        Effects {
            sends: Vec::new(),
            outputs: Vec::new(),
            n: Some(n),
        }
    }

    /// The group size this buffer was built for, if known.
    pub fn parties(&self) -> Option<usize> {
        self.n
    }

    /// Queues a message to one party (including self).
    pub fn send(&mut self, to: PartyId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues the same message to every party (including the sender
    /// itself, which is how the broadcast protocols count their own
    /// votes).
    ///
    /// # Panics
    /// If the buffer was built with [`Effects::new`], which has no
    /// group size. All runtimes in this workspace construct buffers
    /// with [`Effects::for_parties`].
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let n = self
            .n
            .expect("Effects::broadcast needs a group size: build with Effects::for_parties(n)");
        for to in 0..n {
            self.sends.push((to, msg.clone()));
        }
    }

    /// Emits a protocol output to the local application.
    pub fn output(&mut self, out: O) {
        self.outputs.push(out);
    }

    /// Drains the queued sends.
    pub fn take_sends(&mut self) -> Vec<(PartyId, M)> {
        core::mem::take(&mut self.sends)
    }

    /// Drains the queued outputs.
    pub fn take_outputs(&mut self) -> Vec<O> {
        core::mem::take(&mut self.outputs)
    }

    /// Peeks at queued sends.
    pub fn sends(&self) -> &[(PartyId, M)] {
        &self.sends
    }

    /// Peeks at queued outputs.
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }
}

impl<M, O> Default for Effects<M, O> {
    fn default() -> Self {
        Self::new()
    }
}

/// A time-free protocol automaton replicated at every party.
pub trait Protocol {
    /// Wire message type exchanged between replicas of this automaton.
    type Message: Clone + core::fmt::Debug + Send;
    /// Local input type (client request, propose value, ...).
    type Input;
    /// Output type delivered to the local application.
    type Output: core::fmt::Debug;

    /// Handles a local input.
    fn on_input(&mut self, input: Self::Input, effects: &mut Effects<Self::Message, Self::Output>);

    /// Handles a message from `from` (sender authenticity is the
    /// transport's responsibility; the simulator enforces it, and the
    /// protocols additionally verify signatures where the design
    /// requires them).
    fn on_message(
        &mut self,
        from: PartyId,
        msg: Self::Message,
        effects: &mut Effects<Self::Message, Self::Output>,
    );

    /// Local clock tick. **Asynchronous protocols must not override
    /// this**; it exists solely so the failure-detector baseline can be
    /// expressed for comparison experiments.
    fn on_tick(&mut self, effects: &mut Effects<Self::Message, Self::Output>) {
        let _ = effects;
    }

    /// Context-aware variant of [`on_input`](Self::on_input). Runtimes
    /// call *this* hook; the default delegates to the legacy method, so
    /// existing automata compile and behave unchanged. Instrumented
    /// automata override it (and only it) to reach `ctx.obs`.
    fn on_input_ctx(
        &mut self,
        ctx: &Context,
        input: Self::Input,
        effects: &mut Effects<Self::Message, Self::Output>,
    ) {
        let _ = ctx;
        self.on_input(input, effects);
    }

    /// Context-aware variant of [`on_message`](Self::on_message); see
    /// [`on_input_ctx`](Self::on_input_ctx) for the delegation contract.
    fn on_message_ctx(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: Self::Message,
        effects: &mut Effects<Self::Message, Self::Output>,
    ) {
        let _ = ctx;
        self.on_message(from, msg, effects);
    }

    /// Context-aware variant of [`on_tick`](Self::on_tick); see
    /// [`on_input_ctx`](Self::on_input_ctx) for the delegation contract.
    fn on_tick_ctx(&mut self, ctx: &Context, effects: &mut Effects<Self::Message, Self::Output>) {
        let _ = ctx;
        self.on_tick(effects);
    }

    /// The transport (re-)established an outbound link to `peer` —
    /// fired by runtimes with real connections (the TCP runtime) after
    /// every successful dial-plus-handshake, including the first.
    ///
    /// A no-op by default, and *must stay* advisory: link state is a
    /// timing signal, so nothing safety-critical may depend on it (the
    /// asynchronous model of §2.2 admits no failure detectors). It
    /// exists for recovery acceleration — e.g. the replicated state
    /// machine probes a reconnected peer with its stable checkpoint
    /// claim so a restarted replica starts state transfer without
    /// waiting for the next checkpoint boundary.
    fn on_link_up_ctx(
        &mut self,
        ctx: &Context,
        peer: PartyId,
        effects: &mut Effects<Self::Message, Self::Output>,
    ) {
        let _ = (ctx, peer, effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial echo automaton used to exercise the trait plumbing.
    struct Echo {
        me: PartyId,
        n: usize,
    }

    impl Protocol for Echo {
        type Message = String;
        type Input = String;
        type Output = (PartyId, String);

        fn on_input(&mut self, input: String, fx: &mut Effects<String, (PartyId, String)>) {
            let _ = self.n;
            fx.broadcast(input);
        }

        fn on_message(
            &mut self,
            from: PartyId,
            msg: String,
            fx: &mut Effects<String, (PartyId, String)>,
        ) {
            let _ = self.me;
            fx.output((from, msg));
        }
    }

    #[test]
    fn effects_accumulate_and_drain() {
        let mut fx: Effects<String, (PartyId, String)> = Effects::for_parties(3);
        let mut node = Echo { me: 0, n: 3 };
        node.on_input("hi".into(), &mut fx);
        assert_eq!(fx.sends().len(), 3);
        assert_eq!(fx.sends()[2].0, 2);
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 3);
        assert!(fx.sends().is_empty());
        node.on_message(1, "yo".into(), &mut fx);
        assert_eq!(fx.take_outputs(), vec![(1, "yo".to_string())]);
    }

    #[test]
    fn default_tick_is_noop() {
        let mut fx: Effects<String, (PartyId, String)> = Effects::new();
        let mut node = Echo { me: 0, n: 3 };
        node.on_tick(&mut fx);
        assert!(fx.sends().is_empty());
        assert!(fx.outputs().is_empty());
    }

    #[test]
    fn ctx_hooks_default_to_legacy_hooks() {
        let mut fx: Effects<String, (PartyId, String)> = Effects::for_parties(3);
        let mut node = Echo { me: 0, n: 3 };
        let ctx = Context::disabled(0, 3);
        node.on_input_ctx(&ctx, "hi".into(), &mut fx);
        assert_eq!(fx.sends().len(), 3, "delegated to on_input");
        node.on_message_ctx(&ctx, 2, "yo".into(), &mut fx);
        assert_eq!(fx.outputs().len(), 1, "delegated to on_message");
        node.on_tick_ctx(&ctx, &mut fx);
        assert!(!ctx.obs.is_enabled());
        assert_eq!(ctx.n, 3);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn broadcast_without_group_size_panics() {
        let mut fx: Effects<String, (PartyId, String)> = Effects::new();
        fx.broadcast("boom".into());
    }
}
