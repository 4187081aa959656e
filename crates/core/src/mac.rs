//! JMB's link layer (§9).
//!
//! "In JMB, all downlink packets are sent on the Ethernet to all JMB APs.
//! Thus, all APs in the network have the same downlink queue. Each packet in
//! the queue has a designated AP… JMB always uses the packet at the head of
//! the queue for transmission, and nominates the designated AP of this
//! packet as the lead AP for this transmission. The lead AP then chooses
//! additional packets for joint transmission…"
//!
//! This module implements that shared queue, the designated-AP/lead
//! election, joint-batch selection, the weighted contention window with
//! binary-exponential backoff, and the asynchronous-acknowledgment
//! retransmission policy ("APs in JMB keep packets in the queue until they
//! are ACKed. If a packet is not ACKed, they can be combined with other
//! packets in the queue for future concurrent transmissions").

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::collections::VecDeque;

/// One downlink packet in the shared queue.
#[derive(Debug, Clone, PartialEq)]
pub struct MacPacket {
    /// Queue-assigned id, unique per [`JmbMac`] instance.
    pub id: u64,
    /// Destination client.
    pub dest: usize,
    /// Payload length, bytes. The queue carries no payload bytes: a
    /// backend is told the length to send and renders what it needs.
    pub payload_len: usize,
    /// When the packet was enqueued, seconds of the caller's clock: what
    /// its delivery latency is measured from.
    pub enqueued_at_s: f64,
    /// Transmission attempts so far.
    pub attempts: u32,
}

/// Link-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Maximum transmission attempts before a packet is dropped.
    pub retry_limit: u32,
    /// Maximum concurrent streams per joint transmission (total AP
    /// antennas).
    pub max_streams: usize,
    /// Base 802.11 contention window (slots).
    pub cw_min: u32,
    /// Contention-window ceiling for binary-exponential backoff (slots).
    pub cw_max: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            retry_limit: 7,
            max_streams: 8,
            cw_min: 16,
            cw_max: 1024,
        }
    }
}

/// What happened to one packet when its batch completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketFate {
    /// The client acknowledged; the packet leaves the queue for good.
    Acked {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
        /// The packet's own length, bytes: what the ACK delivers, whatever
        /// its batch was padded to.
        payload_len: usize,
        /// When the packet was enqueued ([`MacPacket::enqueued_at_s`]).
        enqueued_at_s: f64,
    },
    /// No ACK; the packet returned to the queue for a future joint
    /// transmission.
    Requeued {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
        /// Attempts made so far.
        attempts: u32,
    },
    /// No ACK and the retry budget is spent; the packet is gone.
    Dropped {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
    },
}

/// The shared downlink queue and scheduler.
///
/// The shared queue is kept as one FIFO per client. Every packet carries its
/// place in the shared order — a counter that goes up on every enqueue and
/// every requeue — and the shared queue is the merge of the clients' FIFOs
/// by place. A client's FIFO is in place order, so its head is its oldest
/// packet, and a batch is picked from the heads alone.
#[derive(Debug)]
pub struct JmbMac {
    cfg: MacConfig,
    /// `queues[client]`: `(place, packet)`, oldest first.
    queues: Vec<VecDeque<(u64, MacPacket)>>,
    /// The place the next packet into the shared queue takes.
    next_place: u64,
    next_id: u64,
    /// Designated AP per client ("the AP with the strongest SNR to the
    /// client to which that packet is destined").
    designated_ap: Vec<usize>,
    /// Binary-exponential backoff stage: doubles the base window per
    /// consecutive failed joint transmission, resets on a fully-ACKed one.
    backoff_stage: u32,
    /// Consecutive-loss counter per client, for hidden-terminal handling
    /// (§9: "situations causing persistent packet loss due to repeated
    /// collisions can be detected … and the lead AP can ensure that JMB
    /// access points that trigger hidden terminal packet loss above a
    /// threshold are not part of the joint transmission").
    consecutive_losses: Vec<u32>,
    /// Clients currently excluded from joint transmissions.
    blacklisted: Vec<bool>,
    /// Consecutive losses before a client's packets are excluded.
    pub blacklist_threshold: u32,
    /// `(place, client)` of the schedulable heads, reused by
    /// [`JmbMac::select_batch`].
    heads: Vec<(u64, usize)>,
}

impl JmbMac {
    /// Creates a MAC with the designated-AP map (index = client).
    pub fn new(cfg: MacConfig, designated_ap: Vec<usize>) -> Self {
        let n = designated_ap.len();
        JmbMac {
            cfg,
            queues: vec![VecDeque::new(); n],
            next_place: 0,
            next_id: 0,
            designated_ap,
            backoff_stage: 0,
            consecutive_losses: vec![0; n],
            blacklisted: vec![false; n],
            blacklist_threshold: 6,
            heads: Vec::with_capacity(n),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// The designated AP for a client.
    pub fn designated_ap(&self, client: usize) -> usize {
        self.designated_ap[client]
    }

    /// Re-maps a client's designated AP (e.g. after its AP failed).
    pub fn set_designated_ap(&mut self, client: usize, ap: usize) {
        self.designated_ap[client] = ap;
    }

    /// Caps the number of concurrent streams (e.g. to the count of live
    /// APs, so ZF stays well-posed during an outage).
    pub fn set_max_streams(&mut self, n: usize) {
        self.cfg.max_streams = n.max(1);
    }

    /// Clears a client's hidden-terminal blacklist entry. Nothing calls it
    /// when the client's channels are re-measured: the one re-admission is
    /// [`JmbMac::clear_all_blacklists`], which the traffic layer calls when
    /// every queued destination is blacklisted.
    fn clear_blacklist(&mut self, client: usize) {
        if let Some(b) = self.blacklisted.get_mut(client) {
            *b = false;
        }
        if let Some(c) = self.consecutive_losses.get_mut(client) {
            *c = 0;
        }
    }

    /// Clears every client's blacklist entry.
    pub fn clear_all_blacklists(&mut self) {
        for c in 0..self.blacklisted.len() {
            self.clear_blacklist(c);
        }
    }

    /// Puts `packet` at the back of the shared queue.
    fn push_back(&mut self, packet: MacPacket) {
        let place = self.next_place;
        self.next_place += 1;
        self.queues[packet.dest].push_back((place, packet));
    }

    /// Enqueues a downlink packet (distributed to all APs over the wired
    /// backend) at `at_s` on the caller's clock and returns its
    /// queue-assigned id.
    pub fn enqueue(&mut self, dest: usize, payload_len: usize, at_s: f64) -> u64 {
        #[expect(
            clippy::disallowed_macros,
            reason = "an unknown client index is a harness programming error — clients are fixed at MAC construction"
        )]
        {
            assert!(dest < self.designated_ap.len(), "unknown client {dest}");
        }
        let id = self.next_id;
        self.next_id += 1;
        self.push_back(MacPacket {
            id,
            dest,
            payload_len,
            enqueued_at_s: at_s,
            attempts: 0,
        });
        id
    }

    /// Packets waiting.
    pub fn queue_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// The lead AP for the next transmission: the designated AP of the
    /// head-of-queue packet, blacklisted or not.
    pub fn next_lead(&self) -> Option<usize> {
        let oldest = self
            .queues
            .iter()
            .filter_map(VecDeque::front)
            .min_by_key(|(place, _)| *place);
        oldest.map(|(_, p)| self.designated_ap[p.dest])
    }

    /// Selects the next joint batch: the head of the queue plus the next
    /// packets for *distinct* clients, up to `max_streams`, removed from the
    /// queue. Returns them with the length the batch goes out at: every
    /// stream must span the same number of OFDM symbols, so shorter payloads
    /// are padded to the longest — on the air and for this batch only: a
    /// packet keeps its own length, which is what a retransmission is sized
    /// by and what an ACK delivers.
    ///
    /// A scan of the shared queue from its head meets each client's oldest
    /// packet first, and meets those in place order; so the batch is the
    /// heads of the clients not blacklisted, in place order, cut at
    /// `max_streams`.
    pub fn select_batch(&mut self) -> (Vec<MacPacket>, usize) {
        self.heads.clear();
        for (c, q) in self.queues.iter().enumerate() {
            if let Some(&(place, _)) = q.front() {
                if !self.blacklisted[c] {
                    self.heads.push((place, c));
                }
            }
        }
        self.heads.sort_unstable();
        self.heads.truncate(self.cfg.max_streams);
        let batch: Vec<MacPacket> = self
            .heads
            .iter()
            .filter_map(|&(_, c)| self.queues[c].pop_front().map(|(_, p)| p))
            .collect();
        let padded_len = batch.iter().map(|p| p.payload_len).max().unwrap_or(0);
        (batch, padded_len)
    }

    /// The contention window the lead uses: the base window grown by
    /// binary-exponential backoff (doubling per consecutive failed joint
    /// transmission, capped at `cw_max`), then "weighted by the number of
    /// packets in the joint transmission" \[29\] — a joint transmission of
    /// `n` packets contends as aggressively as `n` independent stations.
    pub fn contention_window(&self, batch_size: usize) -> u32 {
        let grown = self
            .cfg
            .cw_min
            .saturating_mul(1u32 << self.backoff_stage.min(16))
            .min(self.cfg.cw_max)
            .max(1);
        (grown / batch_size.max(1) as u32).max(1)
    }

    /// Completes a batch: `acked[i]` says whether client `batch[i].dest`
    /// acknowledged (asynchronously, §9). Failed packets return to the
    /// queue unless their retry budget is spent. Returns the fate of each
    /// packet, in batch order: the MAC keeps no tally of its own, the
    /// caller's ledger is these fates.
    pub fn complete_batch(&mut self, batch: Vec<MacPacket>, acked: &[bool]) -> Vec<PacketFate> {
        #[expect(
            clippy::disallowed_macros,
            reason = "caller contract — the batch and its ack vector are built together by the traffic backend"
        )]
        {
            assert_eq!(batch.len(), acked.len(), "one ack per batch packet");
        }
        if batch.is_empty() {
            return Vec::new();
        }
        if acked.iter().all(|&ok| ok) {
            self.backoff_stage = 0;
        } else {
            self.backoff_stage = (self.backoff_stage + 1).min(16);
        }
        let mut fates = Vec::with_capacity(batch.len());
        for (mut p, &ok) in batch.into_iter().zip(acked) {
            if ok {
                self.consecutive_losses[p.dest] = 0;
                fates.push(PacketFate::Acked {
                    dest: p.dest,
                    id: p.id,
                    payload_len: p.payload_len,
                    enqueued_at_s: p.enqueued_at_s,
                });
            } else {
                self.consecutive_losses[p.dest] += 1;
                if self.consecutive_losses[p.dest] >= self.blacklist_threshold {
                    self.blacklisted[p.dest] = true;
                }
                p.attempts += 1;
                if p.attempts >= self.cfg.retry_limit {
                    fates.push(PacketFate::Dropped {
                        dest: p.dest,
                        id: p.id,
                    });
                } else {
                    fates.push(PacketFate::Requeued {
                        dest: p.dest,
                        id: p.id,
                        attempts: p.attempts,
                    });
                    // Re-queue for a future joint transmission.
                    self.push_back(p);
                }
            }
        }
        fates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn mac(n_clients: usize) -> JmbMac {
        JmbMac::new(MacConfig::default(), (0..n_clients).collect())
    }

    /// The ledger a caller keeps from the fates `complete_batch` returns:
    /// bits delivered and packets dropped per client, and the airtime of
    /// the transmissions that carried something.
    struct Tally {
        delivered_bits: Vec<f64>,
        dropped: Vec<u64>,
        transmissions: u64,
        airtime_s: f64,
    }

    impl Tally {
        fn new(n_clients: usize) -> Self {
            Tally {
                delivered_bits: vec![0.0; n_clients],
                dropped: vec![0; n_clients],
                transmissions: 0,
                airtime_s: 0.0,
            }
        }

        /// Completes `batch` on `m` and books what became of each packet.
        fn complete(
            &mut self,
            m: &mut JmbMac,
            batch: Vec<MacPacket>,
            acked: &[bool],
            airtime_s: f64,
        ) -> Vec<PacketFate> {
            let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
            let fates = m.complete_batch(batch, acked);
            if !fates.is_empty() {
                self.transmissions += 1;
                self.airtime_s += airtime_s;
            }
            for (fate, id) in fates.iter().zip(ids) {
                match *fate {
                    PacketFate::Acked {
                        dest,
                        id: acked,
                        payload_len,
                        ..
                    } => {
                        assert_eq!(acked, id, "fates come in batch order");
                        self.delivered_bits[dest] += 8.0 * payload_len as f64;
                    }
                    PacketFate::Dropped { dest, .. } => self.dropped[dest] += 1,
                    PacketFate::Requeued { .. } => {}
                }
            }
            fates
        }

        /// Per-client throughput over the booked airtime, bits/second.
        fn throughput(&self) -> Vec<f64> {
            self.delivered_bits
                .iter()
                .map(|&b| b / self.airtime_s)
                .collect()
        }
    }

    #[test]
    fn batch_takes_distinct_destinations() {
        let mut m = mac(3);
        m.enqueue(0, 100, 0.0);
        m.enqueue(0, 100, 0.0);
        m.enqueue(1, 100, 0.0);
        m.enqueue(2, 100, 0.0);
        let (batch, _) = m.select_batch();
        let dests: Vec<usize> = batch.iter().map(|p| p.dest).collect();
        assert_eq!(dests, vec![0, 1, 2]);
        // The second packet to client 0 stays queued.
        assert_eq!(m.queue_len(), 1);
    }

    /// The shared queue as one `VecDeque`, scanned from the head for each
    /// batch and each pick removed where it stands: the MAC as it was, and
    /// the reference its per-client queues are held to. The blacklists and
    /// the stream cap are read from the MAC under test; their bookkeeping
    /// did not change.
    #[derive(Default)]
    struct SharedQueueScan(VecDeque<MacPacket>);

    impl SharedQueueScan {
        fn select_batch(
            &mut self,
            blacklisted: &[bool],
            max_streams: usize,
        ) -> (Vec<MacPacket>, usize) {
            let mut picked: Vec<usize> = Vec::new();
            for (at, p) in self.0.iter().enumerate() {
                if picked.len() == max_streams {
                    break;
                }
                let dest_taken = picked.iter().any(|&b| self.0[b].dest == p.dest);
                if !dest_taken && !blacklisted[p.dest] {
                    picked.push(at);
                }
            }
            let mut batch: Vec<MacPacket> = picked
                .iter()
                .rev()
                .filter_map(|&at| self.0.remove(at))
                .collect();
            batch.reverse();
            let padded_len = batch.iter().map(|p| p.payload_len).max().unwrap_or(0);
            (batch, padded_len)
        }

        /// A failed packet with retries left goes to the back, in batch
        /// order.
        fn complete_batch(&mut self, batch: Vec<MacPacket>, acked: &[bool], retry_limit: u32) {
            for (mut p, &ok) in batch.into_iter().zip(acked) {
                if !ok {
                    p.attempts += 1;
                    if p.attempts < retry_limit {
                        self.0.push_back(p);
                    }
                }
            }
        }
    }

    /// The MAC's shared queue: its per-client queues merged by place.
    fn shared_order(m: &JmbMac) -> Vec<MacPacket> {
        let mut queued: Vec<&(u64, MacPacket)> = m.queues.iter().flatten().collect();
        queued.sort_by_key(|(place, _)| *place);
        queued.into_iter().map(|(_, p)| p.clone()).collect()
    }

    mod per_client_queues {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The same batches, padded lengths, leads, queue lengths and
            /// shared order as the scan, step after step: arrivals, batches
            /// completed under random ACK patterns (so a failed packet goes
            /// to the back, or is dropped, or blacklists its client),
            /// blacklists set and cleared, and the stream cap moved.
            #[test]
            fn matches_the_shared_queue_scan(
                n_clients in 1usize..7,
                retry_limit in 1u32..5,
                steps in proptest::collection::vec((0u8..6, 0usize..8, 1usize..40, any::<u8>()), 0..160),
            ) {
                let cfg = MacConfig { retry_limit, max_streams: 3, ..Default::default() };
                let designated: Vec<usize> = (0..n_clients).map(|c| (5 * c + 1) % 4).collect();
                let mut m = JmbMac::new(cfg, designated.clone());
                m.blacklist_threshold = 2;
                let mut scan = SharedQueueScan::default();
                for (i, (op, a, len, acks)) in steps.into_iter().enumerate() {
                    match op {
                        0..=2 => {
                            let (dest, at_s) = (a % n_clients, i as f64 * 1e-3);
                            let id = m.enqueue(dest, len, at_s);
                            scan.0.push_back(MacPacket { id, dest, payload_len: len, enqueued_at_s: at_s, attempts: 0 });
                        }
                        3 => {
                            let (batch, padded_len) = m.select_batch();
                            let want = scan.select_batch(&m.blacklisted, m.config().max_streams);
                            prop_assert_eq!(&batch, &want.0);
                            prop_assert_eq!(padded_len, want.1);
                            let acked: Vec<bool> = (0..batch.len()).map(|k| acks >> k & 1 == 1).collect();
                            scan.complete_batch(batch.clone(), &acked, retry_limit);
                            m.complete_batch(batch, &acked);
                        }
                        4 if len % 2 == 0 => m.clear_blacklist(a % n_clients),
                        4 => m.blacklisted[a % n_clients] = true,
                        _ => m.set_max_streams(a),
                    }
                    prop_assert_eq!(m.next_lead(), scan.0.front().map(|p| designated[p.dest]));
                    prop_assert_eq!(m.queue_len(), scan.0.len());
                    prop_assert_eq!(shared_order(&m), Vec::from(scan.0.clone()));
                }
            }
        }
    }

    #[test]
    fn batch_pads_to_common_length() {
        let mut m = mac(2);
        m.enqueue(0, 50, 0.0);
        m.enqueue(1, 200, 0.0);
        let (batch, padded_len) = m.select_batch();
        assert_eq!(padded_len, 200);
        assert_eq!(batch[0].payload_len, 50, "the padding is the batch's");
        assert_eq!(batch[1].payload_len, 200);
    }

    #[test]
    fn a_requeued_packet_keeps_its_own_length() {
        // The 50 B packet fails beside a 200 B one. Its retransmission is
        // sized by its own length, not by the batch it failed in, and its
        // ACK delivers 400 bits.
        let (mut m, mut tally) = (mac(2), Tally::new(2));
        m.enqueue(0, 50, 0.0);
        m.enqueue(1, 200, 0.0);
        let (batch, padded_len) = m.select_batch();
        assert_eq!(padded_len, 200);
        tally.complete(&mut m, batch, &[false, true], 1e-3);
        assert_eq!(tally.delivered_bits, [0.0, 1600.0]);
        let (batch, padded_len) = m.select_batch();
        assert_eq!((batch.len(), padded_len), (1, 50));
        tally.complete(&mut m, batch, &[true], 1e-3);
        assert_eq!(tally.delivered_bits, [400.0, 1600.0]);
    }

    #[test]
    fn delivered_never_exceeds_offered_on_a_bimodal_lossy_load() {
        // Short and long packets to four clients, 30 % of transmissions
        // lost: whatever the batches pad to, a client is never credited
        // with more than was queued for it.
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: 100,
                ..Default::default()
            },
            (0..4).collect(),
        );
        m.blacklist_threshold = u32::MAX;
        let mut tally = Tally::new(4);
        let mut rng = jmb_dsp::rng::rng_from_seed(6);
        let mut offered_bits = [0.0; 4];
        for i in 0..400 {
            let len = if rng.gen::<f64>() < 0.5 { 60 } else { 1500 };
            m.enqueue(i % 4, len, 0.0);
            offered_bits[i % 4] += 8.0 * len as f64;
        }
        let mut padded = 0;
        while m.queue_len() > 0 {
            let (batch, padded_len) = m.select_batch();
            padded += batch.iter().filter(|p| p.payload_len < padded_len).count();
            let acked: Vec<bool> = batch.iter().map(|_| rng.gen::<f64>() >= 0.3).collect();
            tally.complete(&mut m, batch, &acked, 1e-3);
        }
        assert!(padded > 100, "the load must mix lengths in its batches");
        // Everything was delivered in the end, and not a bit more.
        assert_eq!(tally.delivered_bits, offered_bits);
    }

    #[test]
    fn batch_respects_stream_cap() {
        let mut m = JmbMac::new(
            MacConfig {
                max_streams: 2,
                ..Default::default()
            },
            (0..5).collect(),
        );
        for c in 0..5 {
            m.enqueue(c, 10, 0.0);
        }
        assert_eq!(m.select_batch().0.len(), 2);
        assert_eq!(m.queue_len(), 3);
    }

    #[test]
    fn lead_is_designated_ap_of_head() {
        let mut m = JmbMac::new(MacConfig::default(), vec![3, 1, 4]);
        assert_eq!(m.next_lead(), None);
        m.enqueue(2, 10, 0.0);
        m.enqueue(0, 10, 0.0);
        assert_eq!(m.next_lead(), Some(4));
    }

    #[test]
    fn designated_ap_can_be_remapped() {
        let mut m = JmbMac::new(MacConfig::default(), vec![0, 1]);
        m.enqueue(0, 10, 0.0);
        assert_eq!(m.next_lead(), Some(0));
        m.set_designated_ap(0, 1);
        assert_eq!(m.designated_ap(0), 1);
        assert_eq!(m.next_lead(), Some(1));
    }

    #[test]
    fn max_streams_can_shrink_mid_run() {
        let mut m = mac(4);
        for c in 0..4 {
            m.enqueue(c, 10, 0.0);
        }
        m.set_max_streams(2);
        assert_eq!(m.select_batch().0.len(), 2);
        // Never below one stream.
        m.set_max_streams(0);
        assert_eq!(m.config().max_streams, 1);
    }

    #[test]
    fn failed_packets_are_requeued_then_dropped() {
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: 2,
                ..Default::default()
            },
            vec![0, 1],
        );
        let mut tally = Tally::new(2);
        let id = m.enqueue(0, 10, 0.0);
        // First attempt fails → requeued.
        let (b, _) = m.select_batch();
        let fates = tally.complete(&mut m, b, &[false], 1e-3);
        assert_eq!(
            fates,
            vec![PacketFate::Requeued {
                dest: 0,
                id,
                attempts: 1
            }]
        );
        assert_eq!(m.queue_len(), 1);
        assert_eq!(tally.dropped[0], 0);
        // Second attempt fails → dropped (retry_limit 2).
        let (b, _) = m.select_batch();
        let fates = tally.complete(&mut m, b, &[false], 1e-3);
        assert_eq!(fates, vec![PacketFate::Dropped { dest: 0, id }]);
        assert_eq!(m.queue_len(), 0);
        assert_eq!(tally.dropped[0], 1);
    }

    #[test]
    fn retry_limit_exhaustion_counts_every_attempt() {
        // Satellite: a packet is attempted exactly `retry_limit` times, each
        // failure after the first reported as a Requeued fate, the last as
        // Dropped.
        let limit = 5;
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: limit,
                ..Default::default()
            },
            vec![0],
        );
        m.blacklist_threshold = u32::MAX; // keep it schedulable
        let mut tally = Tally::new(1);
        let id = m.enqueue(0, 10, 0.0);
        let mut attempts = 0;
        loop {
            let (b, _) = m.select_batch();
            assert_eq!(b.len(), 1, "packet must stay schedulable");
            attempts += 1;
            let fates = tally.complete(&mut m, b, &[false], 1e-3);
            match fates[0] {
                PacketFate::Requeued { id: fid, .. } => assert_eq!(fid, id),
                PacketFate::Dropped { id: fid, .. } => {
                    assert_eq!(fid, id);
                    break;
                }
                PacketFate::Acked { .. } => panic!("never acked"),
            }
        }
        assert_eq!(attempts, limit);
        assert_eq!(tally.dropped[0], 1);
        assert_eq!(m.queue_len(), 0);
    }

    #[test]
    fn single_destination_queue_batches_one_at_a_time() {
        // Satellite: when every queued packet shares one destination, joint
        // batches degenerate to singletons — the rest stay queued in order.
        let mut m = mac(3);
        let ids: Vec<u64> = (0..4).map(|_| m.enqueue(1, 10, 0.0)).collect();
        let (b, _) = m.select_batch();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].id, ids[0]);
        assert_eq!(m.queue_len(), 3);
        m.complete_batch(b, &[true]);
        // FIFO order is preserved for the remainder.
        let (b, _) = m.select_batch();
        assert_eq!(b[0].id, ids[1]);
    }

    #[test]
    fn losses_are_decoupled_between_clients() {
        // §9: "if APs have stale channel information to a client, only the
        // packet to that client is affected".
        let (mut m, mut tally) = (mac(2), Tally::new(2));
        m.enqueue(0, 100, 0.0);
        m.enqueue(1, 100, 0.0);
        let (b, _) = m.select_batch();
        tally.complete(&mut m, b, &[true, false], 2e-3);
        assert!(tally.delivered_bits[0] > 0.0);
        assert_eq!(tally.delivered_bits[1], 0.0);
        assert_eq!(m.queue_len(), 1); // client 1's packet awaits retry
    }

    #[test]
    fn stats_throughput() {
        let (mut m, mut tally) = (mac(2), Tally::new(2));
        m.enqueue(0, 1250, 0.0); // 10 000 bits
        m.enqueue(1, 1250, 0.0);
        let (b, _) = m.select_batch();
        tally.complete(&mut m, b, &[true, true], 1e-3);
        let t = tally.throughput();
        assert!((t[0] - 1e7).abs() < 1.0);
        assert!((t[1] - 1e7).abs() < 1.0);
        assert_eq!(tally.transmissions, 1);
    }

    #[test]
    fn contention_window_weighted_by_batch() {
        let m = mac(4);
        assert_eq!(m.contention_window(1), 16);
        assert_eq!(m.contention_window(4), 4);
        assert_eq!(m.contention_window(100), 1);
    }

    #[test]
    fn contention_window_grows_and_resets() {
        // Satellite: binary-exponential backoff — the window doubles per
        // failed joint transmission up to cw_max and snaps back to cw_min
        // after a fully-ACKed one.
        let mut m = JmbMac::new(
            MacConfig {
                cw_min: 16,
                cw_max: 64,
                retry_limit: 100,
                ..Default::default()
            },
            vec![0],
        );
        m.blacklist_threshold = u32::MAX;
        assert_eq!(m.contention_window(1), 16);
        m.enqueue(0, 10, 0.0);
        for want in [32, 64, 64] {
            let (b, _) = m.select_batch();
            m.complete_batch(b, &[false]);
            assert_eq!(m.contention_window(1), want);
        }
        assert_eq!(m.backoff_stage, 3);
        let (b, _) = m.select_batch();
        m.complete_batch(b, &[true]);
        assert_eq!(m.backoff_stage, 0);
        assert_eq!(m.contention_window(1), 16);
    }

    #[test]
    fn empty_queue_behaviour() {
        // Satellite: an empty queue yields no lead, an empty batch, and a
        // no-op completion that records no transmission.
        let (mut m, mut tally) = (mac(2), Tally::new(2));
        assert_eq!(m.next_lead(), None);
        let (b, _) = m.select_batch();
        assert!(b.is_empty());
        let fates = tally.complete(&mut m, b, &[], 1e-3);
        assert!(fates.is_empty());
        assert_eq!(tally.transmissions, 0);
        assert_eq!(tally.airtime_s, 0.0);
        assert_eq!(m.backoff_stage, 0);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn enqueue_validates_destination() {
        mac(2).enqueue(5, 0, 0.0);
    }

    #[test]
    fn persistent_losses_blacklist_a_client() {
        // §9's hidden-terminal handling: a client with persistent losses is
        // excluded from joint batches; clearing (e.g. after re-measurement)
        // readmits it.
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: 100,
                ..Default::default()
            },
            vec![0, 1],
        );
        m.blacklist_threshold = 3;
        for _ in 0..3 {
            m.enqueue(0, 10, 0.0);
            m.enqueue(1, 10, 0.0);
            let (b, _) = m.select_batch();
            // Client 0 persistently fails; client 1 is fine.
            let acked: Vec<bool> = b.iter().map(|p| p.dest != 0).collect();
            m.complete_batch(b, &acked);
        }
        assert_eq!(m.blacklisted, [true, false]);
        // Client 0's packets stay queued but are not batched.
        let (b, _) = m.select_batch();
        assert!(b.iter().all(|p| p.dest != 0), "blacklisted client batched");
        assert!(m.queue_len() > 0, "its packets remain queued");
        let acks = vec![true; b.len()];
        m.complete_batch(b, &acks);
        // After re-admission it is scheduled again.
        m.clear_blacklist(0);
        let (b, _) = m.select_batch();
        assert!(b.iter().any(|p| p.dest == 0));
        let acks = vec![true; b.len()];
        m.complete_batch(b, &acks);
    }
}
