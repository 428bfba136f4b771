//! Publish/subscribe channels.
//!
//! Clients "can directly subscribe to websocket-based query result change
//! streams" (§3.2); this fan-out bus serves them: publishing clones the
//! message to every live subscriber. (The paper's Redis queues between
//! Quaestor and InvaliDB (§4.1) have no counterpart here: the server
//! calls InvaliDB inline with the event each write returns.) Each
//! [`Subscription`] carries an alive flag cleared on drop; dead
//! subscribers and emptied channel entries are pruned both on publish
//! and on subscribe, so a bus with churning subscribers never leaks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use quaestor_common::{lock_rank, FxHashMap};

/// A notify callback shared between a [`Subscription`] and its
/// publisher-side [`Subscriber`] entry.
type NotifyHook = Arc<OnceLock<Box<dyn Fn() + Send + Sync>>>;

/// A subscription handle: a receiver of messages published to one channel.
pub struct Subscription {
    rx: Receiver<Bytes>,
    channel: String,
    alive: Arc<AtomicBool>,
    notify: NotifyHook,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("channel", &self.channel)
            .field("alive", &self.alive.load(Ordering::Acquire))
            .field("notify", &self.notify.get().is_some())
            .finish()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
    }
}

impl Subscription {
    /// Channel name this subscription listens on.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// Non-blocking poll for the next message.
    pub fn try_recv(&self) -> Option<Bytes> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive (used by worker threads in the real-time pipeline).
    pub fn recv(&self) -> Option<Bytes> {
        self.rx.recv().ok()
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Bytes> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drain all currently pending messages.
    pub fn drain(&self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(m) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Install a readiness callback, invoked by [`PubSub::publish`] after
    /// each message is enqueued for this subscription. This is how
    /// event-loop consumers (the net server's shards) get poked without a
    /// polling thread: the hook sends a wake, the loop drains via
    /// [`try_recv`](Self::try_recv).
    ///
    /// Contract for hooks:
    /// * **Install before the first drain.** A message published between
    ///   subscribe and `set_notify` produces no callback; draining after
    ///   installation closes that window.
    /// * **Expect spurious and coalesced calls.** Consumers must drain
    ///   until empty on every notification.
    /// * **Never call back into this bus' subscribe/publish paths** — the
    ///   hook runs while the channel map is read-locked
    ///   (`kv.pubsub.channels`, rank 60); hooks may only take
    ///   higher-ranked leaf locks (the net shard inbox is rank 68).
    ///
    /// One hook per subscription; later installs are ignored.
    pub fn set_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.notify.set(Box::new(hook));
    }
}

struct Subscriber {
    tx: Sender<Bytes>,
    alive: Arc<AtomicBool>,
    notify: NotifyHook,
}

/// A multi-channel fan-out message bus.
pub struct PubSub {
    channels: RwLock<FxHashMap<String, Vec<Subscriber>>>,
    /// Full-bus sweeps run only when the channel count reaches this
    /// watermark (then it doubles), so per-subscribe cleanup cost is
    /// amortized O(1) instead of O(channels).
    sweep_at: std::sync::atomic::AtomicUsize,
}

impl Default for PubSub {
    fn default() -> PubSub {
        PubSub {
            channels: RwLock::with_rank(
                FxHashMap::default(),
                lock_rank::KV_PUBSUB_CHANNELS.0,
                lock_rank::KV_PUBSUB_CHANNELS.1,
            ),
            sweep_at: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl std::fmt::Debug for PubSub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PubSub")
            .field("channels", &self.channels.read().len())
            .finish()
    }
}

impl PubSub {
    /// An empty bus.
    pub fn new() -> Arc<PubSub> {
        Arc::new(PubSub::default())
    }

    /// Subscribe to `channel`.
    pub fn subscribe(&self, channel: &str) -> Subscription {
        const MIN_SWEEP: usize = 8;
        let (tx, rx) = unbounded();
        let alive = Arc::new(AtomicBool::new(true));
        let mut chans = self.channels.write();
        // Prune on subscribe as well as on publish, in two tiers: the
        // target channel's dead subscribers go now (O(one vec)), and a
        // full sweep dropping emptied channel entries runs only when the
        // map has grown past a doubling watermark — channels that only
        // ever see subscriptions must not leak forever, but a bus with
        // 10k live query streams must not rescan all of them on every
        // subscribe either.
        if chans.len() >= self.sweep_at.load(Ordering::Relaxed) {
            chans.retain(|_, subs| {
                subs.retain(|s| s.alive.load(Ordering::Acquire));
                !subs.is_empty()
            });
            self.sweep_at
                .store((chans.len() * 2).max(MIN_SWEEP), Ordering::Relaxed);
        }
        let subs = chans.entry(channel.to_owned()).or_default();
        subs.retain(|s| s.alive.load(Ordering::Acquire));
        let notify: NotifyHook = Arc::new(OnceLock::new());
        subs.push(Subscriber {
            tx,
            alive: alive.clone(),
            notify: notify.clone(),
        });
        Subscription {
            rx,
            channel: channel.to_owned(),
            alive,
            notify,
        }
    }

    /// Publish to every live subscriber; returns the number reached.
    /// Dropped subscribers are pruned on the way.
    pub fn publish(&self, channel: &str, message: impl Into<Bytes>) -> usize {
        let message = message.into();
        let mut any_dead = false;
        let mut delivered = 0;
        {
            let chans = self.channels.read();
            if let Some(subs) = chans.get(channel) {
                for sub in subs {
                    if sub.alive.load(Ordering::Acquire) && sub.tx.send(message.clone()).is_ok() {
                        delivered += 1;
                        // Poke push-style consumers (see `set_notify`); runs
                        // under the channel read lock, so hooks are bound to
                        // higher-ranked leaf locks only.
                        if let Some(hook) = sub.notify.get() {
                            hook();
                        }
                    } else {
                        any_dead = true;
                    }
                }
            }
        }
        if any_dead {
            let mut chans = self.channels.write();
            if let Some(subs) = chans.get_mut(channel) {
                subs.retain(|s| s.alive.load(Ordering::Acquire));
                if subs.is_empty() {
                    chans.remove(channel);
                }
            }
        }
        delivered
    }

    /// Number of live subscribers currently registered on `channel`.
    pub fn subscriber_count(&self, channel: &str) -> usize {
        self.channels
            .read()
            .get(channel)
            .map(|v| v.iter().filter(|s| s.alive.load(Ordering::Acquire)).count())
            .unwrap_or(0)
    }

    /// Number of channel entries currently held in the map (dead channels
    /// are pruned on subscribe and on publish-to-that-channel).
    pub fn channel_count(&self) -> usize {
        self.channels.read().len()
    }

    /// Drop all subscribers of a channel.
    pub fn unsubscribe_all(&self, channel: &str) {
        self.channels.write().remove(channel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_all_subscribers() {
        let bus = PubSub::new();
        let s1 = bus.subscribe("inval");
        let s2 = bus.subscribe("inval");
        assert_eq!(bus.publish("inval", &b"q1"[..]), 2);
        assert_eq!(s1.try_recv().unwrap(), Bytes::from_static(b"q1"));
        assert_eq!(s2.try_recv().unwrap(), Bytes::from_static(b"q1"));
        assert!(s1.try_recv().is_none());
    }

    #[test]
    fn channels_are_isolated() {
        let bus = PubSub::new();
        let a = bus.subscribe("a");
        let b = bus.subscribe("b");
        bus.publish("a", &b"m"[..]);
        assert!(a.try_recv().is_some());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn publish_to_empty_channel_is_zero() {
        let bus = PubSub::new();
        assert_eq!(bus.publish("nobody", &b"m"[..]), 0);
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let bus = PubSub::new();
        let s1 = bus.subscribe("c");
        let s2 = bus.subscribe("c");
        drop(s2);
        assert_eq!(bus.publish("c", &b"m"[..]), 1);
        assert!(s1.try_recv().is_some());
        assert_eq!(bus.subscriber_count("c"), 1, "dead subscriber pruned");
    }

    #[test]
    fn channel_entry_removed_when_all_dead() {
        let bus = PubSub::new();
        let s = bus.subscribe("c");
        drop(s);
        bus.publish("c", &b"m"[..]);
        assert_eq!(bus.subscriber_count("c"), 0);
    }

    #[test]
    fn subscribe_prunes_dead_subscribers_and_empty_channels() {
        let bus = PubSub::new();
        // A burst of short-lived subscriptions across many channels: with
        // publish-only pruning these entries would leak until someone
        // published to each channel again.
        for i in 0..16 {
            let s = bus.subscribe(&format!("ephemeral-{i}"));
            drop(s);
        }
        let _live = bus.subscribe("live");
        assert_eq!(bus.channel_count(), 1, "subscribe must sweep dead channels");
        // Dead subscriber inside a channel someone re-subscribes to.
        let s1 = bus.subscribe("c");
        drop(bus.subscribe("c"));
        let s2 = bus.subscribe("c");
        assert_eq!(bus.subscriber_count("c"), 2, "dead sibling pruned");
        assert_eq!(bus.publish("c", &b"m"[..]), 2);
        assert!(s1.try_recv().is_some() && s2.try_recv().is_some());
    }

    #[test]
    fn drain_collects_backlog() {
        let bus = PubSub::new();
        let s = bus.subscribe("c");
        bus.publish("c", &b"1"[..]);
        bus.publish("c", &b"2"[..]);
        bus.publish("c", &b"3"[..]);
        assert_eq!(s.drain().len(), 3);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = PubSub::new();
        let s = bus.subscribe("c");
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            bus2.publish("c", &b"hello"[..]);
        });
        t.join().unwrap();
        assert_eq!(
            s.recv_timeout(std::time::Duration::from_secs(1)).unwrap(),
            Bytes::from_static(b"hello")
        );
    }

    #[test]
    fn notify_hook_fires_per_delivered_message() {
        use std::sync::atomic::AtomicUsize;
        let bus = PubSub::new();
        let s = bus.subscribe("c");
        let pokes = Arc::new(AtomicUsize::new(0));
        let counter = pokes.clone();
        s.set_notify(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        bus.publish("c", &b"1"[..]);
        bus.publish("c", &b"2"[..]);
        assert_eq!(pokes.load(Ordering::SeqCst), 2);
        assert_eq!(s.drain().len(), 2);
        // Other subscriptions on the channel are not affected by the hook.
        let plain = bus.subscribe("c");
        bus.publish("c", &b"3"[..]);
        assert_eq!(pokes.load(Ordering::SeqCst), 3);
        assert!(plain.try_recv().is_some());
        // A second install is ignored, not a panic.
        s.set_notify(|| {});
        bus.publish("c", &b"4"[..]);
        assert_eq!(pokes.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn notify_hook_not_called_after_subscription_drop() {
        use std::sync::atomic::AtomicUsize;
        let bus = PubSub::new();
        let s = bus.subscribe("c");
        let pokes = Arc::new(AtomicUsize::new(0));
        let counter = pokes.clone();
        s.set_notify(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        drop(s);
        bus.publish("c", &b"m"[..]);
        assert_eq!(pokes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn unsubscribe_all_clears() {
        let bus = PubSub::new();
        let _s = bus.subscribe("c");
        assert_eq!(bus.subscriber_count("c"), 1);
        bus.unsubscribe_all("c");
        assert_eq!(bus.subscriber_count("c"), 0);
    }
}
