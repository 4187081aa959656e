//! The control plane both fidelities share.
//!
//! JMB's data plane rides on two control exchanges: the lead's sync header
//! every slave must hear before a joint transmission (§5.2) and the
//! channel-measurement frame (§5.1). Both can be lost. [`ControlPlane`] is
//! the single owner of that policy for [`crate::fastnet::FastNet`] and
//! [`crate::net::JmbNetwork`] alike: it holds the [`FaultSchedule`], the
//! salted fault RNG, the per-slave [`SyncHealth`] and the phase-error
//! budget, and it is the only code that draws control faults, records
//! misses, decides *fallback or exclude*, and emits
//! `SyncMissed`/`ApDegraded`/`ApRestored`/`MeasurementLost`.
//!
//! A slave that misses a header — drawn from the schedule, or because its
//! receiver could not make the header out — may transmit on a correction
//! extrapolated from its last heard header while it is healthy and the
//! predicted error is inside the budget; otherwise it sits the batch out.
//! Three consecutive misses degrade it until it hears a header again.
//!
//! The networks supply the two things the policy is about: their
//! [`SyncStrategy`] (what a heard header turns into, and what the slave's
//! sync state extrapolates to after a miss) and their [`LeadObserver`]
//! (what hearing a header means at that fidelity — a noisy per-subcarrier
//! estimate, or a rendered waveform through the real estimator).

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

use crate::csi::SyncHealth;
use crate::phasesync::PhaseCorrection;
use crate::sync::{LeadObserver, SyncStrategy};
use jmb_dsp::rng::JmbRng;
use jmb_obs::{EventKind, Trace};
use jmb_sim::FaultSchedule;
use rand::Rng;

/// What one batch's sync-header exchange left behind. Stays readable (via
/// `last_sync()` on either network) after a batch that failed with
/// [`crate::JmbError::SyncHeaderMissed`]: the misses and degradations
/// happened even though nothing was transmitted.
#[derive(Debug, Clone, Default)]
pub struct BatchSync {
    /// The correction each AP applies and when it was measured, indexed by
    /// AP: this batch's header for a slave that heard it, the last heard
    /// header for a fallback — within-packet CFO tracking extrapolates from
    /// there. `None` for the lead, for APs outside the batch and for
    /// excluded slaves.
    pub corrections: Vec<Option<(PhaseCorrection, f64)>>,
    /// Slaves that sit this batch out and radiate nothing.
    pub excluded: Vec<usize>,
    /// Slaves that missed the header.
    pub missed: Vec<usize>,
    /// Slaves among `missed` that transmit on an extrapolated correction.
    pub fallback: Vec<usize>,
    /// Slaves this batch's miss degraded (K consecutive misses).
    pub newly_degraded: Vec<usize>,
    /// Degraded slaves that heard this header and are back in service.
    pub newly_restored: Vec<usize>,
}

impl BatchSync {
    /// What AP `ap` multiplies onto the band at time `t`, as the `(θ₀, θ)`
    /// of the phasors `e^{j(θ₀ + θ·k)}`: its correction carried forward from
    /// its anchor ([`PhaseCorrection::ramp_at`]), unity — `(0, 0)` — for an
    /// AP that has none (the lead transmits the reference), `None` for a
    /// slave that sits the batch out and radiates nothing.
    pub(crate) fn ramp_at(
        &self,
        ap: usize,
        t: f64,
        spacing: f64,
        carrier: f64,
    ) -> Option<(f64, f64)> {
        match &self.corrections[ap] {
            Some((pc, anchor)) => Some(pc.ramp_at(t - anchor, spacing, carrier)),
            None if self.excluded.contains(&ap) => None,
            None => Some((0.0, 0.0)),
        }
    }
}

/// Fault draws, sync health and the fallback policy for one network.
pub struct ControlPlane {
    /// The fault plan (clean by default), set by the owning network.
    pub(crate) faults: FaultSchedule,
    /// Salted off the master seed and separate from the network's main
    /// stream, so enabling faults never perturbs channel or noise draws;
    /// zero-probability configs make no draw, so a clean schedule is
    /// byte-identical to no schedule.
    rng: JmbRng,
    /// Index `s - 1` for slave AP `s`.
    health: Vec<SyncHealth>,
    /// Largest predicted phase error (radians) a fallback may carry, set
    /// by the owning network.
    pub(crate) budget_rad: f64,
    last: BatchSync,
}

impl ControlPlane {
    pub(crate) fn new(seed: u64, n_aps: usize) -> Self {
        ControlPlane {
            faults: FaultSchedule::none(),
            rng: jmb_dsp::rng::derive_rng(seed, 0xFA17),
            health: vec![SyncHealth::default(); n_aps.saturating_sub(1)],
            budget_rad: crate::sync::SYNC_ERROR_BUDGET_RAD,
            last: BatchSync::default(),
        }
    }

    pub(crate) fn sync_health(&self) -> &[SyncHealth] {
        &self.health
    }

    pub(crate) fn last_sync(&self) -> &BatchSync {
        &self.last
    }

    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// Whether the measurement exchange at `t` is lost. The caller still
    /// charges its airtime and keeps its stale CSI.
    pub(crate) fn measurement_lost(&mut self, trace: &mut Trace, t: f64) -> bool {
        let p = self.faults.config_at(t).control.meas_loss_chance;
        let lost = self.draw(p);
        if lost {
            trace.emit(t, EventKind::MeasurementLost);
        }
        lost
    }

    /// Runs the sync-header exchange of one batch for `slaves` (AP indices
    /// ≥ 1, in the caller's order) at header-measurement time `t_meas`, and
    /// leaves the result in [`ControlPlane::last_sync`]. `lead_up = false`
    /// means no header is on the air: every slave misses, without a draw.
    /// A strategy that does not listen for the in-band header makes no
    /// fault draw and keeps no health: losing a frame header cannot
    /// desynchronize it.
    pub(crate) fn sync_batch(
        &mut self,
        strategy: &mut dyn SyncStrategy,
        obs: &mut dyn LeadObserver,
        t_meas: f64,
        slaves: impl IntoIterator<Item = usize>,
        lead_up: bool,
    ) {
        let inband = strategy.uses_inband_header();
        // The last batch's buffers, cleared and resized in place: a frame's
        // exchange allocates nothing once they have grown.
        let mut b = std::mem::take(&mut self.last);
        b.corrections.clear();
        b.corrections.resize(self.health.len() + 1, None);
        for list in [
            &mut b.excluded,
            &mut b.missed,
            &mut b.fallback,
            &mut b.newly_degraded,
            &mut b.newly_restored,
        ] {
            list.clear();
        }
        for s in slaves {
            let p = self.faults.config_at(t_meas).control.sync_loss_for(s);
            let lost = !lead_up || (inband && self.draw(p));
            let heard = if lost {
                None
            } else {
                strategy.on_header(obs, s, t_meas).ok()
            };
            let applied = match heard {
                Some(c) => {
                    if inband && self.health[s - 1].record_sync() {
                        obs.trace().emit(t_meas, EventKind::ApRestored { ap: s });
                        b.newly_restored.push(s);
                    }
                    Some(c)
                }
                None => {
                    obs.trace().emit(t_meas, EventKind::SyncMissed { slave: s });
                    b.missed.push(s);
                    if self.health[s - 1].record_miss() {
                        obs.trace().emit(t_meas, EventKind::ApDegraded { ap: s });
                        b.newly_degraded.push(s);
                    }
                    let within_budget = strategy.phase_error_rad(s, t_meas) <= self.budget_rad;
                    let fallback = if !self.health[s - 1].is_degraded() && within_budget {
                        strategy.extrapolated(s)
                    } else {
                        None
                    };
                    if fallback.is_some() {
                        b.fallback.push(s);
                    }
                    fallback
                }
            };
            if applied.is_none() {
                b.excluded.push(s);
            }
            b.corrections[s] = applied;
        }
        self.last = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JmbError;
    use crate::fastnet::{FastConfig, FastNet};
    use crate::sync::SyncStrategyId;
    use jmb_phy::chanest::ChannelEstimate;
    use jmb_sim::FaultConfig;

    /// Nobody can make the lead out.
    struct Deaf(Trace);

    impl LeadObserver for Deaf {
        fn trace(&mut self) -> &mut Trace {
            &mut self.0
        }
        fn pilot(&mut self, _: usize, _: f64, _: f64, _: f64) -> Option<(&ChannelEstimate, f64)> {
            None
        }
    }

    /// An in-band strategy whose slave never hears a header: its predicted
    /// error is `err_rad` and, if it `heard_before`, it can extrapolate from
    /// t = 0.5.
    struct Scripted {
        err_rad: f64,
        heard_before: bool,
    }

    impl SyncStrategy for Scripted {
        fn kind(&self) -> SyncStrategyId {
            SyncStrategyId::JmbLeadSlave
        }
        fn on_measurement(&mut self, _: &mut dyn LeadObserver, _: f64, _: f64) {}
        fn on_header(
            &mut self,
            _: &mut dyn LeadObserver,
            slave: usize,
            _: f64,
        ) -> Result<(PhaseCorrection, f64), JmbError> {
            Err(JmbError::SyncHeaderMissed { slave })
        }
        fn phase_error_rad(&self, _: usize, _: f64) -> f64 {
            self.err_rad
        }
        fn extrapolated(&self, _: usize) -> Option<(PhaseCorrection, f64)> {
            let pc = PhaseCorrection {
                common_phase: 0.0,
                slope: 0.0,
                cfo_hz: 0.0,
            };
            self.heard_before.then_some((pc, 0.5))
        }
        fn reference(&self, _: usize) -> Option<&ChannelEstimate> {
            None
        }
    }

    #[test]
    fn fallback_gate_is_inclusive_at_the_budget_and_respects_health() {
        let b = crate::sync::SYNC_ERROR_BUDGET_RAD;
        for (err_rad, budget, heard_before, falls_back) in [
            // A predicted error *exactly* at the budget still transmits;
            // the next representable budget below it sits the batch out.
            (b, b, true, true),
            (b, b.next_down(), true, false),
            // A zero budget rejects any nonzero predicted error.
            (1e-9, 0.0, true, false),
            // No header ever heard: nothing to fall back on.
            (0.0, b, false, false),
        ] {
            let mut cp = ControlPlane::new(1, 2);
            cp.budget_rad = budget;
            let mut strategy = Scripted {
                err_rad,
                heard_before,
            };
            cp.sync_batch(&mut strategy, &mut Deaf(Trace::new()), 1.0, [1], true);
            let sync = cp.last_sync();
            assert_eq!(sync.missed, vec![1]);
            assert_eq!(
                sync.fallback.is_empty(),
                !falls_back,
                "{err_rad} vs {budget}"
            );
            assert_eq!(
                sync.excluded.is_empty(),
                falls_back,
                "{err_rad} vs {budget}"
            );
            // A fallback is anchored at the old header, not this one.
            let anchor = sync.corrections[1].as_ref().map(|c| c.1);
            assert_eq!(anchor, falls_back.then_some(0.5));
        }
        // Degraded slaves never get a fallback, however fresh: the third
        // consecutive miss degrades and excludes in the same batch.
        let mut cp = ControlPlane::new(1, 2);
        let mut strategy = Scripted {
            err_rad: 0.0,
            heard_before: true,
        };
        for miss in 1..=3 {
            cp.sync_batch(&mut strategy, &mut Deaf(Trace::new()), 1.0, [1], true);
            assert_eq!(cp.last_sync().excluded.is_empty(), miss < 3);
            assert_eq!(cp.sync_health()[0].is_degraded(), miss == 3);
        }
        assert_eq!(cp.last_sync().newly_degraded, vec![1]);
    }

    #[test]
    fn sync_loss_window_ending_on_the_resync_tick_is_half_open() {
        // The slave re-measures the lead 240 samples into the batch, so the
        // sync-miss fault draw happens at `t_meas = now + 240·T_s` — not at
        // the batch start. A storm window that ends *exactly* on that tick
        // must not swallow the header (windows are `[from_s, until_s)`),
        // while a window lasting any longer must.
        let base = FastConfig::default_with(2, 2, vec![20.0; 2], 31);
        let sp = base.params.sample_period();
        let storm = FaultConfig::builder()
            .per_slave_sync_loss(1, 1.0)
            .build()
            .unwrap();
        let run = |until_of: &dyn Fn(f64) -> f64| {
            let mut net = FastNet::new(base.clone()).unwrap();
            net.run_measurement().unwrap();
            net.advance(1e-3);
            let t_meas = net.now() + 240.0 * sp;
            net.set_fault_schedule(
                FaultSchedule::none()
                    .with_window(0.0, until_of(t_meas), storm.clone())
                    .unwrap(),
            );
            net.joint_transmit_subset(&[0, 1], &[0, 1], 1500).unwrap();
            net.last_sync().missed.clone()
        };
        // Boundary tick: `t_meas == until_s` sits outside the window.
        assert!(
            run(&|t_meas| t_meas).is_empty(),
            "resync on the window's end tick must hear the header"
        );
        // One representable instant longer and the draw lands inside.
        assert_eq!(run(&|t_meas: f64| t_meas.next_up()), vec![1]);
    }
}
