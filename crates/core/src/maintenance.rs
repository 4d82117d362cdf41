//! Rolling maintenance through the replacement primitive — an application
//! of the paper's §6 observation that backup switches are first-class
//! citizens ("backup switches and regular switches are equal in
//! functionality").
//!
//! A switch upgrade in a rerouting fabric means draining a device and
//! running degraded for the whole maintenance window. With ShareBackup the
//! operator *replaces* the device with a pool backup (a ~1.3 ms blip),
//! upgrades it at leisure, and the upgraded switch rejoins the pool. Rolling
//! this across a failure group upgrades every member while the network stays
//! whole — the per-group pool bounds how many devices can be "in the shop"
//! at once.

use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{GroupId, PhysId};

use crate::controller::Controller;

/// A rolling-upgrade campaign over one failure group.
#[derive(Clone, Debug)]
pub struct RollingUpgrade {
    /// The group being upgraded.
    pub group: GroupId,
    /// How long one device takes to upgrade.
    pub upgrade_time: Duration,
    done: Vec<PhysId>,
    in_shop: Vec<(Time, PhysId)>,
}

/// Progress report of a campaign step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpgradeStep {
    /// A device was pulled for upgrade (replaced by a pool backup); the
    /// data plane blinked for the recovery latency only.
    Pulled(PhysId),
    /// A device finished upgrading and rejoined the pool.
    Finished(PhysId),
    /// Nothing to do right now (waiting for an upgrade to finish or for a
    /// backup to free up).
    Waiting,
    /// Every member of the group has been upgraded.
    Complete,
}

impl RollingUpgrade {
    /// Start a campaign over `group`.
    pub fn new(group: GroupId, upgrade_time: Duration) -> RollingUpgrade {
        RollingUpgrade {
            group,
            upgrade_time,
            done: Vec::new(),
            in_shop: Vec::new(),
        }
    }

    /// Devices already upgraded.
    pub fn upgraded(&self) -> &[PhysId] {
        &self.done
    }

    /// Advance the campaign at instant `now`: complete due upgrades, then
    /// pull the next not-yet-upgraded device if a backup is available.
    pub fn step(&mut self, ctl: &mut Controller, now: Time) -> UpgradeStep {
        // Finish any upgrade that is due.
        if let Some(pos) = self.in_shop.iter().position(|&(t, _)| t <= now) {
            let (_, p) = self.in_shop.remove(pos);
            // The upgraded switch comes back healthy and joins the pool.
            ctl.sb.set_phys_healthy(p, true);
            self.done.push(p);
            return UpgradeStep::Finished(p);
        }
        // Pick the next victim: an occupying, healthy, not-yet-upgraded
        // member (spares get upgraded when they are pulled into service —
        // or at the end, trivially, since they are already offline).
        let members = ctl.sb.group_members(self.group).to_vec();
        let candidate = members.iter().copied().find(|&p| {
            !self.done.contains(&p)
                && !self.in_shop.iter().any(|&(_, q)| q == p)
                && ctl.sb.phys(p).healthy
                && ctl.sb.slot_of(p).is_some()
        });
        let Some(victim) = candidate else {
            // Spares left un-upgraded can be upgraded in place (offline).
            let offline = members.iter().copied().find(|&p| {
                !self.done.contains(&p)
                    && !self.in_shop.iter().any(|&(_, q)| q == p)
                    && ctl.sb.slot_of(p).is_none()
                    && ctl.sb.phys(p).healthy
            });
            if let Some(spare) = offline {
                ctl.sb.set_phys_healthy(spare, false); // into the shop
                self.in_shop.push((now + self.upgrade_time, spare));
                return UpgradeStep::Pulled(spare);
            }
            return if self.in_shop.is_empty() && self.done.len() == members.len() {
                UpgradeStep::Complete
            } else {
                UpgradeStep::Waiting
            };
        };
        #[expect(clippy::expect_used, reason = "candidates are drawn from the occupancy map")]
        let slot = ctl.sb.slot_of(victim).expect("candidate occupies");
        let spares = ctl.sb.spares(self.group);
        let Some(&backup) = spares.iter().find(|p| self.done.contains(p) || !self.in_shop.iter().any(|&(_, q)| q == **p)) else {
            return UpgradeStep::Waiting;
        };
        ctl.sb.replace(slot, backup);
        ctl.sb.set_phys_healthy(victim, false); // into the shop
        self.in_shop.push((now + self.upgrade_time, victim));
        UpgradeStep::Pulled(victim)
    }

    /// Run the campaign to completion, stepping every `tick`. Returns
    /// (completion instant, number of pulls).
    pub fn run_to_completion(
        &mut self,
        ctl: &mut Controller,
        start: Time,
        tick: Duration,
    ) -> (Time, usize) {
        let mut now = start;
        let mut pulls = 0;
        loop {
            match self.step(ctl, now) {
                UpgradeStep::Complete => return (now, pulls),
                UpgradeStep::Pulled(_) => pulls += 1,
                UpgradeStep::Finished(_) | UpgradeStep::Waiting => {
                    now += tick;
                }
            }
            assert!(
                now < start + Duration::from_secs(1_000_000),
                "campaign failed to converge"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use sharebackup_topo::{ShareBackup, ShareBackupConfig};

    fn controller(k: usize, n: usize) -> Controller {
        Controller::new(
            ShareBackup::build(ShareBackupConfig::new(k, n)),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn rolling_upgrade_covers_every_member() {
        let mut ctl = controller(4, 1);
        let g = GroupId::agg(0);
        let members = ctl.sb.group_members(g).to_vec();
        let mut campaign = RollingUpgrade::new(g, Duration::from_secs(600));
        let (finish, pulls) =
            campaign.run_to_completion(&mut ctl, Time::ZERO, Duration::from_secs(60));
        assert_eq!(campaign.upgraded().len(), members.len());
        assert_eq!(pulls, members.len());
        // With one backup, upgrades serialize: ≥ members × upgrade_time.
        assert!(finish >= Time::from_secs(600 * 3));
        // The network is whole afterwards.
        for node in ctl.sb.slots.net.node_ids() {
            assert!(ctl.sb.slots.net.node(node).up);
        }
    }

    #[test]
    fn network_stays_whole_throughout() {
        let mut ctl = controller(4, 2);
        let g = GroupId::edge(1);
        let mut campaign = RollingUpgrade::new(g, Duration::from_secs(100));
        let mut now = Time::ZERO;
        loop {
            match campaign.step(&mut ctl, now) {
                UpgradeStep::Complete => break,
                _ => {
                    // Invariant: every slot node stays up at all times.
                    for s in 0..2 {
                        let node = ctl.sb.slot_node(g.slot(s));
                        assert!(ctl.sb.slots.net.node(node).up, "slot down mid-upgrade");
                    }
                    now += Duration::from_secs(10);
                }
            }
        }
        assert_eq!(campaign.upgraded().len(), 4);
    }

    #[test]
    fn bigger_pool_parallelizes_upgrades() {
        let serial = {
            let mut ctl = controller(6, 1);
            let mut c = RollingUpgrade::new(GroupId::agg(0), Duration::from_secs(300));
            c.run_to_completion(&mut ctl, Time::ZERO, Duration::from_secs(30)).0
        };
        let parallel = {
            let mut ctl = controller(6, 3);
            let mut c = RollingUpgrade::new(GroupId::agg(0), Duration::from_secs(300));
            c.run_to_completion(&mut ctl, Time::ZERO, Duration::from_secs(30)).0
        };
        assert!(
            parallel < serial,
            "3 backups must beat 1: {parallel:?} vs {serial:?}"
        );
    }
}
