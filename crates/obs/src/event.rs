//! The unified event type.
//!
//! One enum covers every layer's happenings — medium (transmit / render /
//! drop / corruption), MAC and traffic (enqueue, lead election, batch
//! selection, ACK, retry), liveness (AP down/up), and control plane (sync
//! misses, CSI staleness, re-measurement, degradation). Each recorded
//! [`Event`] carries a global timestamp and a per-trace sequence number so
//! simultaneous events keep a total order.
//!
//! A kind is declared once, as a variant of [`EventKind`] inside
//! `event_kinds!`: its name, its place in [`EventKind::NAMES`] and its JSON
//! fields — written and read in declaration order, each under its own name
//! and by its type's `Field` impl — all come from that declaration.

use crate::json::{json_str, lookup, Field, Fields};

/// An enum of unit variants whose JSON form is the variant's own name: the
/// declaration is the one name table (`ALL`, `name`, `from_name`).
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident { $($(#[$vmeta:meta])* $variant:ident),* $(,)? }
    ) => {
        $(#[$meta])*
        pub enum $name { $($(#[$vmeta])* $variant),* }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$(stringify!($variant)),*].len()] = [$($name::$variant),*];

            /// Stable name used in JSON output.
            pub fn name(self) -> &'static str {
                match self { $($name::$variant => stringify!($variant)),* }
            }

            /// Inverse of `name`.
            fn from_name(s: &str) -> Option<$name> {
                Self::ALL.into_iter().find(|v| v.name() == s)
            }
        }

        impl Field for $name {
            fn write(&self, out: &mut String) {
                json_str(out, self.name());
            }
            fn read(fields: &Fields<'_>, key: &str) -> Option<Self> {
                Self::from_name(lookup(&fields.strs, key)?)
            }
        }
    };
}

named_enum! {
    /// Why a transmission or packet was abandoned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DropCause {
        /// Fault injection removed the waveform from the air (deep fade or an
        /// un-modelled collision).
        Fault,
        /// The link layer exhausted the packet's retry budget (§9: packets stay
        /// queued until ACKed — but not forever).
        RetryLimit,
    }
}

named_enum! {
    /// Why a bounded run stopped (carried by [`EventKind::ScenarioStopped`]
    /// and returned by bounded event loops).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum StopCause {
        /// The run drained its event queue and finished naturally.
        Completed,
        /// The processed-event budget (`max_events`) was exhausted first.
        MaxEvents,
        /// The simulated-time budget (`max_sim_time`) was exhausted first.
        MaxSimTime,
        /// An external stop predicate fired (in practice: the scenario
        /// runner's wall-clock deadline). This is the one cause that is not
        /// deterministic across machines, which is why wall-clock budgets are
        /// safety nets, never part of a scenario's pass criteria.
        Wallclock,
    }
}

named_enum! {
    /// Which pluggable synchronization backend a network is running — carried
    /// by [`EventKind::SyncStrategySwitched`] and shared by every layer that
    /// names a strategy (the `[sync]` manifest section, the `JMB_SYNC` env,
    /// bench CLI flags).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum SyncStrategyId {
        /// The paper's lead/slave resync: slaves re-measure the lead's channel
        /// from the in-band sync header of every joint transmission (§5.2).
        #[default]
        JmbLeadSlave,
        /// Continuous out-of-band pilot tracking: the lead broadcasts periodic
        /// pilots on a side channel and slaves run a Kalman-style phase
        /// predictor, so data frames need no in-band sync header.
        AirSyncPilot,
        /// Calibrated implicit CSI from uplink reciprocity: slaves refresh
        /// their lead-relative phase from regular uplink traffic, with zero
        /// dedicated per-client measurement frames.
        ReciprocityImplicit,
    }
}

impl SyncStrategyId {
    /// [`SyncStrategyId::token`] of each strategy, in declaration order.
    const TOKENS: [&'static str; 3] = ["jmb-lead-slave", "airsync-pilot", "reciprocity-implicit"];

    /// Stable kebab-case token used by manifests, CLI flags and the
    /// `JMB_SYNC` env.
    pub fn token(self) -> &'static str {
        Self::TOKENS[self as usize]
    }

    /// Inverse of [`SyncStrategyId::token`].
    pub fn from_token(s: &str) -> Option<SyncStrategyId> {
        Self::ALL.into_iter().find(|id| id.token() == s)
    }
}

/// Declares [`EventKind`] and, from the same text, everything that is one
/// entry per kind: `NAMES`, `name`, and the JSON field writer and reader.
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $({ $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })?),*
        }

        impl $name {
            /// Every kind's [`EventKind::name`], in declaration order: what a
            /// manifest assertion may name and what [`Event::from_json`]
            /// accepts.
            pub const NAMES: [&'static str; [$(stringify!($variant)),*].len()] =
                [$(stringify!($variant)),*];

            /// Stable kind name (used by [`crate::TraceQuery::kind`] and JSON
            /// output).
            pub fn name(&self) -> &'static str {
                match self { $($name::$variant { .. } => stringify!($variant)),* }
            }

            /// Appends `,"field":value` for each field, in declaration order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $($name::$variant { $($($field),*)? } => {
                        $($(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write(out);
                        )*)?
                    })*
                }
            }

            /// The index stored in the field named `key`, if this kind has one.
            fn index(&self, key: &str) -> Option<usize> {
                match self {
                    $($name::$variant { $($($field),*)? } => {
                        $($(if stringify!($field) == key {
                            return ($field as &dyn std::any::Any).downcast_ref().copied();
                        })*)?
                        None
                    })*
                }
            }

            /// The kind named `kind` with its fields read out of `fields`.
            fn read(kind: &str, fields: &Fields<'_>) -> Option<$name> {
                $(if kind == stringify!($variant) {
                    return Some($name::$variant {
                        $($($field: Field::read(fields, stringify!($field))?),*)?
                    });
                })*
                None
            }
        }
    };
}

event_kinds! {
    /// What happened (the payload of an [`Event`]; the *when* lives on the
    /// event itself).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum EventKind {
        /// Medium: a waveform was scheduled.
        Transmit {
            /// Node index.
            node: usize,
            /// Length in samples.
            len: usize,
            /// Mean sample power.
            power: f64,
        },
        /// Medium: a receive window was rendered.
        Render {
            /// Node index.
            node: usize,
            /// Length in samples.
            len: usize,
        },
        /// A transmission or packet was dropped.
        Dropped {
            /// Node index (transmitter for [`DropCause::Fault`], destination
            /// client for [`DropCause::RetryLimit`]).
            node: usize,
            /// Why it was dropped.
            cause: DropCause,
        },
        /// Medium: a scheduled waveform had its payload samples corrupted in
        /// flight by fault injection (pre-CRC, so receivers see a CRC
        /// rejection).
        Corrupted {
            /// Transmitting node index.
            node: usize,
        },
        /// MAC: a downlink packet entered the shared queue.
        Enqueued {
            /// Destination client.
            client: usize,
            /// Queue-assigned packet id.
            id: u64,
        },
        /// MAC: the designated AP of the head-of-queue packet was elected lead
        /// for a joint transmission (§9).
        LeadElected {
            /// Lead AP index.
            ap: usize,
        },
        /// MAC: a joint batch was selected from the shared queue.
        BatchSelected {
            /// Number of packets (= concurrent streams) in the batch.
            n_packets: usize,
        },
        /// MAC: a packet was acknowledged (asynchronously, §9).
        Acked {
            /// Destination client.
            client: usize,
            /// Queue-assigned packet id.
            id: u64,
        },
        /// MAC: a packet was not acknowledged and returned to the queue for a
        /// future joint transmission.
        Retry {
            /// Destination client.
            client: usize,
            /// Queue-assigned packet id.
            id: u64,
            /// Attempts made so far.
            attempt: u32,
        },
        /// An AP went down (fault schedule).
        ApDown {
            /// AP index.
            ap: usize,
        },
        /// An AP recovered.
        ApUp {
            /// AP index.
            ap: usize,
        },
        /// Control plane: a slave AP missed the lead's sync header for a joint
        /// transmission (fault injection or a physically failed measurement).
        SyncMissed {
            /// Slave AP index.
            slave: usize,
        },
        /// Control plane: CSI age exceeded the staleness threshold and a
        /// re-measurement became due.
        CsiStale {
            /// Age of the oldest CSI entry, seconds.
            age_s: f64,
        },
        /// Control plane: a re-measurement was scheduled (initial attempt or a
        /// backoff retry after a lost measurement frame).
        RemeasureScheduled {
            /// Earliest time the attempt may run, seconds.
            at: f64,
            /// Attempt number (1 = first retry after a failure).
            attempt: u32,
        },
        /// Control plane: a measurement frame was lost and the re-measurement
        /// attempt failed.
        RemeasureFailed {
            /// Attempt number that failed.
            attempt: u32,
        },
        /// Control plane: a re-measurement succeeded and refreshed the CSI.
        RemeasureOk {
            /// Attempt number that succeeded (1 = first try).
            attempt: u32,
        },
        /// PHY control plane: a measurement frame was lost in flight (the
        /// attempt-numbered [`EventKind::RemeasureFailed`] view of the same
        /// loss is emitted by the layer that owns the backoff tracker).
        MeasurementLost,
        /// Control plane: a slave AP accumulated enough consecutive sync-header
        /// misses to be marked degraded (excluded from joint batches until it
        /// re-syncs).
        ApDegraded {
            /// Slave AP index.
            ap: usize,
        },
        /// Control plane: a degraded slave AP heard a sync header again and was
        /// restored to service.
        ApRestored {
            /// Slave AP index.
            ap: usize,
        },
        /// Control plane: the network switched its synchronization backend (or
        /// a run started on a non-default one).
        SyncStrategySwitched {
            /// The strategy now in effect.
            strategy: SyncStrategyId,
        },
        /// City: a cell's event loop started an epoch of its shard.
        CellStarted {
            /// Cell index (row-major in the grid).
            cell: usize,
            /// Frequency-reuse color assigned to the cell.
            color: usize,
        },
        /// City: the aggregate out-of-cell interference applied to a cell for
        /// the current epoch.
        CellInterference {
            /// Cell index (row-major in the grid).
            cell: usize,
            /// Interference-to-noise ratio folded into the cell's floor, dB.
            inr_db: f64,
        },
        /// City: a cell's event loop finished its shard for an epoch.
        CellFinished {
            /// Cell index (row-major in the grid).
            cell: usize,
            /// Packets the cell delivered this epoch.
            delivered: u64,
        },
        /// Scenario: a declarative manifest run began.
        ScenarioStarted {
            /// Number of assertions the manifest declares.
            assertions: usize,
        },
        /// Scenario: one assertion of the manifest was evaluated.
        ScenarioAssertion {
            /// Assertion index in manifest order.
            index: usize,
            /// Whether the assertion held.
            passed: bool,
        },
        /// Scenario: the run ended (naturally or at a resource limit).
        ScenarioStopped {
            /// Why the run stopped.
            cause: StopCause,
            /// Simulation events processed before stopping.
            events: u64,
        },
    }
}

impl EventKind {
    /// The AP index this event concerns, if any (slaves count as APs).
    pub(crate) fn ap(&self) -> Option<usize> {
        self.index("ap").or_else(|| self.index("slave"))
    }
}

/// One recorded event: *when* (timestamp + per-trace sequence number) and
/// *what* ([`EventKind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Per-trace sequence number (0-based, assigned at emission; the
    /// determinism tie-break for simultaneous events).
    pub seq: u64,
    /// Global time, seconds.
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One-line JSON rendering: `{"seq":N,"t":T,"kind":"Name",...fields}`.
    ///
    /// Numbers use Rust's shortest round-trip formatting, so equal values
    /// serialize to equal bytes and [`Event::from_json`] recovers them
    /// exactly.
    pub fn to_json(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Appends the [`Event::to_json`] line to a buffer the caller reuses.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        self.seq.write(out);
        out.push_str(",\"t\":");
        self.t.write(out);
        out.push_str(",\"kind\":");
        json_str(out, self.kind.name());
        self.kind.write_fields(out);
        out.push('}');
    }

    /// Parses one line produced by [`Event::to_json`]. Returns `None` on
    /// anything malformed (foreign JSON is out of scope — this is a replay
    /// format, not a general parser). Integer fields are parsed as
    /// integers of their own width: a negative, fractional or out-of-range
    /// value is malformed, not rounded into some other valid event.
    pub fn from_json(line: &str) -> Option<Event> {
        let fields = Fields::parse(line)?;
        Some(Event {
            seq: Field::read(&fields, "seq")?,
            t: Field::read(&fields, "t")?,
            kind: EventKind::read(lookup(&fields.strs, "kind")?, &fields)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips one event through JSON and returns its kind name.
    fn roundtrip_event(e: Event) -> &'static str {
        let json = e.to_json();
        let back = Event::from_json(&json).unwrap_or_else(|| panic!("parse failed: {json}"));
        assert_eq!(back, e, "json was {json}");
        e.kind.name()
    }

    #[test]
    fn json_roundtrip_every_kind() {
        // `NAMES` is the list manifests are checked against: every kind
        // that round-trips must be on it, and nothing else.
        let mut seen = std::collections::BTreeSet::new();
        let mut roundtrip = |kind: EventKind| {
            let (seq, t) = (42, 0.001625);
            seen.insert(roundtrip_event(Event { seq, t, kind }));
        };
        roundtrip(EventKind::Transmit {
            node: 3,
            len: 320,
            power: 0.012345,
        });
        roundtrip(EventKind::Render { node: 1, len: 80 });
        for cause in DropCause::ALL {
            roundtrip(EventKind::Dropped { node: 2, cause });
        }
        roundtrip(EventKind::Corrupted { node: 0 });
        roundtrip(EventKind::Enqueued { client: 5, id: 77 });
        roundtrip(EventKind::LeadElected { ap: 2 });
        roundtrip(EventKind::BatchSelected { n_packets: 4 });
        roundtrip(EventKind::Acked { client: 1, id: 9 });
        roundtrip(EventKind::Retry {
            client: 0,
            id: 3,
            attempt: 2,
        });
        roundtrip(EventKind::ApDown { ap: 1 });
        roundtrip(EventKind::ApUp { ap: 1 });
        roundtrip(EventKind::SyncMissed { slave: 3 });
        roundtrip(EventKind::CsiStale { age_s: 0.0525 });
        roundtrip(EventKind::RemeasureScheduled {
            at: 0.125,
            attempt: 3,
        });
        roundtrip(EventKind::RemeasureFailed { attempt: 1 });
        roundtrip(EventKind::RemeasureOk { attempt: 2 });
        roundtrip(EventKind::MeasurementLost);
        roundtrip(EventKind::ApDegraded { ap: 2 });
        roundtrip(EventKind::ApRestored { ap: 2 });
        for strategy in SyncStrategyId::ALL {
            roundtrip(EventKind::SyncStrategySwitched { strategy });
        }
        roundtrip(EventKind::CellStarted { cell: 37, color: 2 });
        roundtrip(EventKind::CellInterference {
            cell: 37,
            inr_db: 11.75,
        });
        roundtrip(EventKind::CellFinished {
            cell: 37,
            delivered: 12345,
        });
        roundtrip(EventKind::ScenarioStarted { assertions: 6 });
        roundtrip(EventKind::ScenarioAssertion {
            index: 2,
            passed: true,
        });
        roundtrip(EventKind::ScenarioAssertion {
            index: 3,
            passed: false,
        });
        for cause in StopCause::ALL {
            roundtrip(EventKind::ScenarioStopped { cause, events: 99 });
        }
        let listed: std::collections::BTreeSet<_> = EventKind::NAMES.into_iter().collect();
        assert_eq!(listed.len(), EventKind::NAMES.len(), "duplicate name");
        assert_eq!(seen, listed);
    }

    #[test]
    fn sync_strategy_names_and_tokens_roundtrip() {
        for id in SyncStrategyId::ALL {
            assert_eq!(SyncStrategyId::from_name(id.name()), Some(id));
            assert_eq!(SyncStrategyId::from_token(id.token()), Some(id));
        }
        assert_eq!(SyncStrategyId::from_name("Nope"), None);
        assert_eq!(SyncStrategyId::from_token("nope"), None);
        assert_eq!(SyncStrategyId::default(), SyncStrategyId::JmbLeadSlave);
    }

    #[test]
    fn stop_cause_names_roundtrip() {
        for cause in StopCause::ALL {
            assert_eq!(StopCause::from_name(cause.name()), Some(cause));
        }
        assert_eq!(StopCause::from_name("Nope"), None);
    }

    #[test]
    fn accessors_pick_the_right_index() {
        assert_eq!(EventKind::SyncMissed { slave: 3 }.ap(), Some(3));
        assert_eq!(EventKind::LeadElected { ap: 1 }.ap(), Some(1));
        assert_eq!(
            EventKind::Acked { client: 2, id: 0 }.index("client"),
            Some(2)
        );
        assert_eq!(EventKind::Corrupted { node: 4 }.index("node"), Some(4));
        assert_eq!(EventKind::MeasurementLost.ap(), None);
        assert_eq!(EventKind::CsiStale { age_s: 0.1 }.index("client"), None);
        assert_eq!(
            EventKind::CellStarted { cell: 9, color: 1 }.index("cell"),
            Some(9)
        );
        assert_eq!(
            EventKind::CellFinished {
                cell: 4,
                delivered: 0
            }
            .index("cell"),
            Some(4)
        );
        assert_eq!(EventKind::ApDown { ap: 0 }.index("cell"), None);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Event::from_json("").is_none());
        assert!(Event::from_json("{}").is_none());
        assert!(Event::from_json("{\"seq\":1,\"t\":0.0,\"kind\":\"Nope\"}").is_none());
        assert!(Event::from_json("{\"seq\":1,\"t\":0.0,\"kind\":\"Acked\"}").is_none());
        assert!(Event::from_json("not json at all").is_none());
        // Integer fields that are not integers of the stored width.
        assert!(Event::from_json("{\"seq\":1,\"t\":0.0,\"kind\":\"ApDown\",\"ap\":-1}").is_none());
        assert!(Event::from_json(
            "{\"seq\":1,\"t\":0.0,\"kind\":\"Acked\",\"client\":0,\"id\":1.7}"
        )
        .is_none());
        assert!(Event::from_json(
            "{\"seq\":1,\"t\":0.0,\"kind\":\"RemeasureOk\",\"attempt\":4294967296}"
        )
        .is_none());
        // …and the full width survives: nothing passes through an `f64`.
        for kind in [
            EventKind::Acked {
                client: 0,
                id: u64::MAX,
            },
            EventKind::CellFinished {
                cell: 0,
                delivered: u64::MAX - 1,
            },
            EventKind::ScenarioStopped {
                cause: StopCause::Completed,
                events: (1 << 53) + 1,
            },
        ] {
            let (seq, t) = (u64::MAX, 0.5);
            roundtrip_event(Event { seq, t, kind });
        }
    }
}
