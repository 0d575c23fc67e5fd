//! BAD-style data pub/sub — the "Big Active Data" extension (paper §IV-A:
//! "a new NSF research project on 'Big Active Data' (BAD) that led to an
//! extension of AsterixDB with features that might be roughly characterized
//! as 'data pub/sub'", ref \[17\]).
//!
//! A *channel* is a named, parameter-free repetitive query; subscribers
//! receive each evaluation's results. The broker evaluates channels either
//! on demand ([`Broker::tick`]) or on a timer thread ([`Broker::start`]).

use crate::error::{CoreError, Result};
use crate::instance::{Instance, Language};
use asterix_adm::Value;
use asterix_storage::lock_order::{Level, RwLock};
use std::collections::HashMap;
use asterix_obs::{Flag, IdGen};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One delivery to a subscriber: the channel's results at one evaluation.
#[derive(Debug, Clone)]
pub struct ChannelUpdate {
    pub channel: String,
    pub epoch: u64,
    pub rows: Vec<Value>,
}

struct Channel {
    name: String,
    query: String,
    language: Language,
    epoch: IdGen,
    subscribers: RwLock<Vec<Sender<ChannelUpdate>>>,
    /// Deliver only when results changed since the previous evaluation.
    only_on_change: bool,
    last: RwLock<Option<Vec<Value>>>,
}

/// The channel broker over one instance.
pub struct Broker {
    instance: Instance,
    channels: RwLock<HashMap<String, Arc<Channel>>>,
    stopped: Flag,
}

impl Broker {
    /// Creates a broker over `instance`.
    pub fn new(instance: Instance) -> Arc<Broker> {
        Arc::new(Broker {
            instance,
            channels: RwLock::ranked(Level::PubsubChannels, HashMap::new()),
            stopped: Flag::new(false),
        })
    }

    /// Creates a repetitive channel. `only_on_change` suppresses deliveries
    /// when consecutive evaluations return identical results.
    pub fn create_channel(
        &self,
        name: impl Into<String>,
        query: impl Into<String>,
        language: Language,
        only_on_change: bool,
    ) -> Result<()> {
        let name = name.into();
        let mut channels = self.channels.write();
        if channels.contains_key(&name) {
            return Err(CoreError::Catalog(format!("channel {name:?} already exists")));
        }
        channels.insert(
            name.clone(),
            Arc::new(Channel {
                name,
                query: query.into(),
                language,
                epoch: IdGen::new(0),
                subscribers: RwLock::ranked(Level::PubsubSubscribers, Vec::new()),
                only_on_change,
                last: RwLock::new(None),
            }),
        );
        Ok(())
    }

    /// Drops a channel (subscribers' receivers disconnect).
    pub fn drop_channel(&self, name: &str) -> Result<()> {
        self.channels
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| CoreError::Catalog(format!("unknown channel {name:?}")))
    }

    /// Subscribes to a channel.
    pub fn subscribe(&self, name: &str) -> Result<Receiver<ChannelUpdate>> {
        let channels = self.channels.read();
        let ch = channels
            .get(name)
            .ok_or_else(|| CoreError::Catalog(format!("unknown channel {name:?}")))?;
        let (tx, rx) = channel();
        ch.subscribers.write().push(tx);
        Ok(rx)
    }

    /// Evaluates one channel now, delivering to its subscribers. Returns the
    /// number of deliveries made.
    pub fn tick(&self, name: &str) -> Result<usize> {
        let ch = self
            .channels
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::Catalog(format!("unknown channel {name:?}")))?;
        self.evaluate(&ch)
    }

    /// Evaluates every channel once.
    pub fn tick_all(&self) -> Result<usize> {
        let channels: Vec<Arc<Channel>> = self.channels.read().values().cloned().collect();
        let mut n = 0;
        for ch in channels {
            n += self.evaluate(&ch)?;
        }
        Ok(n)
    }

    fn evaluate(&self, ch: &Channel) -> Result<usize> {
        let rows = match ch.language {
            Language::Sqlpp => self.instance.query(&ch.query)?,
            Language::Aql => self.instance.query_aql(&ch.query)?,
        };
        if ch.only_on_change {
            let mut last = ch.last.write();
            if last.as_ref() == Some(&rows) {
                return Ok(0);
            }
            *last = Some(rows.clone());
        }
        let epoch = ch.epoch.next();
        let update = ChannelUpdate { channel: ch.name.clone(), epoch, rows };
        let mut subs = ch.subscribers.write();
        subs.retain(|s| s.send(update.clone()).is_ok());
        Ok(subs.len())
    }

    /// Spawns a timer thread ticking all channels at `interval`.
    pub fn start(self: &Arc<Self>, interval: std::time::Duration) -> std::thread::JoinHandle<()> {
        let me = Arc::clone(self);
        std::thread::spawn(move || {
            while !me.stopped.get() {
                let _ = me.tick_all();
                asterix_storage::lock_order::sleep(interval);
            }
        })
    }

    /// Stops the timer thread.
    pub fn stop(&self) {
        self.stopped.set(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Instance, Arc<Broker>) {
        let instance = Instance::temp().unwrap();
        instance
            .execute_sqlpp(
                "CREATE TYPE AlertT AS { id: int, level: int };
                 CREATE DATASET Alerts(AlertT) PRIMARY KEY id;",
            )
            .unwrap();
        let broker = Broker::new(instance.clone());
        (instance, broker)
    }

    #[test]
    fn subscribers_receive_results() {
        let (instance, broker) = setup();
        broker
            .create_channel(
                "high",
                "SELECT VALUE a.id FROM Alerts a WHERE a.level > 5",
                Language::Sqlpp,
                false,
            )
            .unwrap();
        let rx = broker.subscribe("high").unwrap();
        instance
            .execute_sqlpp(
                r#"UPSERT INTO Alerts ([{"id": 1, "level": 9}, {"id": 2, "level": 2}])"#,
            )
            .unwrap();
        broker.tick("high").unwrap();
        let update = rx.try_recv().unwrap();
        assert_eq!(update.rows, vec![Value::Int(1)]);
        assert_eq!(update.epoch, 0);
    }

    #[test]
    fn only_on_change_suppresses_duplicates() {
        let (instance, broker) = setup();
        broker
            .create_channel(
                "all",
                "SELECT VALUE a.id FROM Alerts a ORDER BY a.id",
                Language::Sqlpp,
                true,
            )
            .unwrap();
        let rx = broker.subscribe("all").unwrap();
        instance
            .execute_sqlpp(r#"UPSERT INTO Alerts ({"id": 1, "level": 1})"#)
            .unwrap();
        broker.tick("all").unwrap();
        broker.tick("all").unwrap(); // no change
        assert_eq!(rx.try_iter().count(), 1, "second identical tick suppressed");
        instance
            .execute_sqlpp(r#"UPSERT INTO Alerts ({"id": 2, "level": 1})"#)
            .unwrap();
        broker.tick("all").unwrap();
        assert_eq!(rx.try_iter().count(), 1, "change delivered");
    }

    #[test]
    fn aql_channels_work_too() {
        let (instance, broker) = setup();
        broker
            .create_channel(
                "aql",
                "for $a in dataset Alerts where $a.level >= 5 return $a.id",
                Language::Aql,
                false,
            )
            .unwrap();
        let rx = broker.subscribe("aql").unwrap();
        instance
            .execute_sqlpp(r#"UPSERT INTO Alerts ({"id": 7, "level": 5})"#)
            .unwrap();
        broker.tick_all().unwrap();
        assert_eq!(rx.try_recv().unwrap().rows, vec![Value::Int(7)]);
    }

    #[test]
    fn channel_lifecycle_errors() {
        let (_instance, broker) = setup();
        broker
            .create_channel("c", "SELECT VALUE 1", Language::Sqlpp, false)
            .unwrap();
        assert!(broker
            .create_channel("c", "SELECT VALUE 2", Language::Sqlpp, false)
            .is_err());
        assert!(broker.subscribe("nope").is_err());
        broker.drop_channel("c").unwrap();
        assert!(broker.tick("c").is_err());
    }
}
