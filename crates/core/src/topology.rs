//! Host topology: which simulated host each rank runs on.
//!
//! The paper's evaluation platform is two (up to four) dual-socket servers
//! attached to one CXL pooled-memory platform, with up to 16 ranks per node.
//! In this reproduction every rank is a thread, but the *host* grouping still
//! matters: ranks on the same host share a hardware-coherent cache (one
//! [`cxl_shm::HostCache`]), while ranks on different hosts only share the CXL
//! memory and must use software coherence.

use crate::error::MpiError;
use crate::types::Rank;
use crate::Result;

/// Mapping from ranks to hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTopology {
    host_of: Vec<usize>,
    hosts: usize,
}

impl HostTopology {
    /// Build a topology from an explicit rank→host mapping.
    pub fn from_mapping(host_of: Vec<usize>) -> Result<Self> {
        if host_of.is_empty() {
            return Err(MpiError::InvalidConfig("topology has zero ranks".into()));
        }
        let hosts = host_of.iter().copied().max().unwrap() + 1;
        for h in 0..hosts {
            if !host_of.contains(&h) {
                return Err(MpiError::InvalidConfig(format!(
                    "host {h} has no ranks (hosts must be densely numbered)"
                )));
            }
        }
        Ok(HostTopology { host_of, hosts })
    }

    /// Ranks distributed in contiguous blocks over `hosts` hosts (the usual
    /// `mpirun` block placement). The blocks are **balanced**: every host gets
    /// `ranks / hosts` ranks and the first `ranks % hosts` hosts get one
    /// extra, so host populations never differ by more than one (7 ranks over
    /// 3 hosts yields 3/2/2, not the lopsided 3/3/1 a ceiling split would
    /// produce).
    pub fn blocked(ranks: usize, hosts: usize) -> Result<Self> {
        if ranks == 0 || hosts == 0 || hosts > ranks {
            return Err(MpiError::InvalidConfig(format!(
                "invalid topology: {ranks} ranks over {hosts} hosts"
            )));
        }
        let base = ranks / hosts;
        let rem = ranks % hosts;
        let mut host_of = Vec::with_capacity(ranks);
        for h in 0..hosts {
            let count = base + usize::from(h < rem);
            host_of.extend(std::iter::repeat_n(h, count));
        }
        Ok(HostTopology { host_of, hosts })
    }

    /// Ranks dealt round-robin over `hosts` hosts (`rank r` on host
    /// `r % hosts`): a *permuted* placement where same-host ranks are never
    /// contiguous in rank order — the adversarial layout for topology-aware
    /// collectives, exercised by the bench sweep and the equivalence tests.
    pub fn round_robin(ranks: usize, hosts: usize) -> Result<Self> {
        if ranks == 0 || hosts == 0 || hosts > ranks {
            return Err(MpiError::InvalidConfig(format!(
                "invalid topology: {ranks} ranks over {hosts} hosts"
            )));
        }
        let host_of = (0..ranks).map(|r| r % hosts).collect();
        Ok(HostTopology { host_of, hosts })
    }

    /// The paper's default evaluation layout: two hosts, half the ranks on
    /// each (origin ranks on host 0, target ranks on host 1).
    pub fn two_hosts(ranks: usize) -> Result<Self> {
        Self::blocked(ranks, 2.min(ranks))
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.host_of.len()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Host of a given rank.
    pub fn host_of(&self, rank: Rank) -> usize {
        self.host_of[rank]
    }

    /// All ranks located on `host`.
    pub fn ranks_on(&self, host: usize) -> Vec<Rank> {
        self.host_of
            .iter()
            .enumerate()
            .filter_map(|(r, &h)| (h == host).then_some(r))
            .collect()
    }

    /// Whether two ranks share a host (and therefore a coherent cache).
    pub fn same_host(&self, a: Rank, b: Rank) -> bool {
        self.host_of[a] == self.host_of[b]
    }

    /// The raw rank→host mapping.
    pub fn mapping(&self) -> &[usize] {
        &self.host_of
    }
}

/// The host-level structure of one communicator, seen from one rank: which
/// hosts the communicator spans, the same-host (`local`) member group, and the
/// one-leader-per-host (`leaders`) group the hierarchical collectives route
/// cross-host traffic through.
///
/// A `HostHierarchy` is a **pure function of (group, topology, rank)** — it
/// involves no communication and can never go stale, which is why
/// [`crate::comm::Comm`] can derive it lazily and cache it per communicator
/// (fresh communicators from `comm_dup`/`comm_split` simply start with an
/// empty cache and re-derive on first use). Hierarchical collective schedules
/// run this structure's traffic under the *parent* communicator's context id
/// with phase-distinct internal tags, so no hidden context-id agreement is
/// needed; the public [`crate::comm::Comm::split_type`] API is the way to get
/// real sub-communicators with their own context.
///
/// The **leader** of a host is its member with the smallest parent-local
/// rank, which makes the leader local rank 0 of the `local` group.
#[derive(Debug)]
pub struct HostHierarchy {
    /// Host ids spanned by the communicator, ascending. `slot` indices below
    /// refer to positions in this list (hosts of the universe *not* spanned by
    /// the communicator get no slot).
    hosts: Vec<usize>,
    /// Parent-local member ranks per slot, ascending.
    members_by_slot: Vec<Vec<Rank>>,
    /// Slot of each parent-local rank (indexed by parent-local rank).
    slot_of_member: Vec<usize>,
    /// Same-host members as a group (universe world ranks, parent-local
    /// order), shared with the schedules built over it.
    local: std::sync::Arc<crate::group::Group>,
    /// One leader per slot (universe world ranks, slot order).
    leaders: std::sync::Arc<crate::group::Group>,
    /// This rank's slot (index of its host in `hosts`).
    my_slot: usize,
    /// This rank's local rank within `local`.
    my_local_rank: Rank,
    /// Whether this rank is its host's leader.
    is_leader: bool,
}

impl HostHierarchy {
    /// Derive the hierarchy of communicator `group` under `topology` from the
    /// perspective of parent-local rank `rank`. Pure computation — see the
    /// type-level docs.
    pub fn derive(group: &crate::group::Group, topology: &HostTopology, rank: Rank) -> Self {
        let mut hosts: Vec<usize> = group
            .world_ranks()
            .iter()
            .map(|&w| topology.host_of(w))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        let slot_of = |host: usize| hosts.binary_search(&host).expect("host has a slot");
        let mut members_by_slot: Vec<Vec<Rank>> = vec![Vec::new(); hosts.len()];
        let mut slot_of_member = Vec::with_capacity(group.size());
        for (local, &w) in group.world_ranks().iter().enumerate() {
            let slot = slot_of(topology.host_of(w));
            members_by_slot[slot].push(local);
            slot_of_member.push(slot);
        }
        let my_world = group.world_rank(rank);
        let my_slot = slot_of(topology.host_of(my_world));
        let local_world: Vec<Rank> = members_by_slot[my_slot]
            .iter()
            .map(|&l| group.world_rank(l))
            .collect();
        let my_local_rank = members_by_slot[my_slot]
            .iter()
            .position(|&l| l == rank)
            .expect("rank is a member of its own host");
        let leaders_world: Vec<Rank> = members_by_slot
            .iter()
            .map(|members| group.world_rank(members[0]))
            .collect();
        let is_leader = members_by_slot[my_slot][0] == rank;
        HostHierarchy {
            hosts,
            members_by_slot,
            slot_of_member,
            local: std::sync::Arc::new(
                crate::group::Group::from_world_ranks(local_world)
                    .expect("host members are unique"),
            ),
            leaders: std::sync::Arc::new(
                crate::group::Group::from_world_ranks(leaders_world)
                    .expect("one unique leader per host"),
            ),
            my_slot,
            my_local_rank,
            is_leader,
        }
    }

    /// Number of hosts the communicator spans.
    pub fn hosts_spanned(&self) -> usize {
        self.hosts.len()
    }

    /// Smallest per-host member count (the shape gate for auto-selection).
    pub fn min_ranks_per_host(&self) -> usize {
        self.members_by_slot.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Member count of slot `s`.
    pub fn count(&self, s: usize) -> usize {
        self.members_by_slot[s].len()
    }

    /// Parent-local member ranks of slot `s`, ascending.
    pub fn members(&self, s: usize) -> &[Rank] {
        &self.members_by_slot[s]
    }

    /// Parent-local rank of slot `s`'s leader.
    pub fn leader_of(&self, s: usize) -> Rank {
        self.members_by_slot[s][0]
    }

    /// The same-host member group (world ranks, parent-local order).
    pub fn local_group(&self) -> &std::sync::Arc<crate::group::Group> {
        &self.local
    }

    /// The one-leader-per-host group (world ranks, slot order).
    pub fn leader_group(&self) -> &std::sync::Arc<crate::group::Group> {
        &self.leaders
    }

    /// This rank's slot.
    pub fn my_slot(&self) -> usize {
        self.my_slot
    }

    /// This rank's local rank within its host group.
    pub fn my_local_rank(&self) -> Rank {
        self.my_local_rank
    }

    /// Whether this rank leads its host.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Slot of the host holding parent-local rank `local` — used by rooted
    /// composites to find the leader responsible for a root.
    pub fn slot_of(&self, local: Rank) -> usize {
        self.slot_of_member[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_placement() {
        let t = HostTopology::blocked(8, 2).unwrap();
        assert_eq!(t.mapping(), &[0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.hosts(), 2);
        assert_eq!(t.ranks_on(1), vec![4, 5, 6, 7]);
        assert!(t.same_host(0, 3));
        assert!(!t.same_host(0, 4));
    }

    #[test]
    fn blocked_uneven_is_balanced() {
        let t = HostTopology::blocked(5, 2).unwrap();
        assert_eq!(t.mapping(), &[0, 0, 0, 1, 1]);
        // The balance rule: populations differ by at most one, extras go to
        // the lowest-numbered hosts (7 over 3 is 3/2/2, not 3/3/1).
        let t = HostTopology::blocked(7, 3).unwrap();
        assert_eq!(t.mapping(), &[0, 0, 0, 1, 1, 2, 2]);
        for (ranks, hosts) in [(9usize, 4usize), (10, 4), (11, 3), (16, 5)] {
            let t = HostTopology::blocked(ranks, hosts).unwrap();
            let counts: Vec<usize> = (0..hosts).map(|h| t.ranks_on(h).len()).collect();
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{ranks}/{hosts}: {counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), ranks);
        }
    }

    #[test]
    fn round_robin_interleaves_hosts() {
        let t = HostTopology::round_robin(7, 3).unwrap();
        assert_eq!(t.mapping(), &[0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(t.ranks_on(0), vec![0, 3, 6]);
        assert!(!t.same_host(0, 1));
        assert!(t.same_host(0, 3));
        assert!(HostTopology::round_robin(2, 4).is_err());
        assert!(HostTopology::round_robin(0, 1).is_err());
    }

    #[test]
    fn dense_numbering_error_paths() {
        // from_mapping demands densely numbered hosts starting at 0.
        assert!(HostTopology::from_mapping(vec![1, 1]).is_err()); // host 0 missing
        assert!(HostTopology::from_mapping(vec![0, 3, 1]).is_err()); // host 2 missing
        let err = HostTopology::from_mapping(vec![0, 2]).unwrap_err();
        assert!(err.to_string().contains("densely"), "{err}");
        // A valid permuted mapping round-trips.
        let t = HostTopology::from_mapping(vec![2, 0, 1, 0]).unwrap();
        assert_eq!(t.hosts(), 3);
        assert_eq!(t.host_of(0), 2);
    }

    #[test]
    fn hierarchy_derivation_blocked_and_permuted() {
        use crate::group::Group;
        // 6 ranks over 3 hosts, blocked: [0,0,1,1,2,2].
        let topo = HostTopology::blocked(6, 3).unwrap();
        let world = Group::world(6);
        let h = HostHierarchy::derive(&world, &topo, 3);
        assert_eq!(h.hosts_spanned(), 3);
        assert_eq!(h.min_ranks_per_host(), 2);
        assert_eq!(h.my_slot(), 1);
        assert_eq!(h.my_local_rank(), 1);
        assert!(!h.is_leader());
        assert_eq!(h.local_group().world_ranks(), &[2, 3]);
        assert_eq!(h.leader_group().world_ranks(), &[0, 2, 4]);
        assert_eq!(h.leader_of(1), 2);

        // Round-robin over 2 hosts: [0,1,0,1,0] — permuted membership.
        let topo = HostTopology::round_robin(5, 2).unwrap();
        let world = Group::world(5);
        let h = HostHierarchy::derive(&world, &topo, 2);
        assert_eq!(h.local_group().world_ranks(), &[0, 2, 4]);
        assert_eq!(h.leader_group().world_ranks(), &[0, 1]);
        assert!(!h.is_leader());
        let h0 = HostHierarchy::derive(&world, &topo, 1);
        assert!(h0.is_leader());
        assert_eq!(h0.my_slot(), 1);

        // A sub-communicator spanning a strict subset of hosts: world ranks
        // {2, 3} of the 6/3 blocked layout live on host 1 only.
        let topo = HostTopology::blocked(6, 3).unwrap();
        let sub = Group::from_world_ranks(vec![3, 2]).unwrap();
        let h = HostHierarchy::derive(&sub, &topo, 0);
        assert_eq!(h.hosts_spanned(), 1);
        assert_eq!(h.leader_group().world_ranks(), &[3]); // parent-local 0 is world 3
        assert!(h.is_leader());
    }

    #[test]
    fn two_hosts_single_rank() {
        let t = HostTopology::two_hosts(1).unwrap();
        assert_eq!(t.hosts(), 1);
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(HostTopology::blocked(0, 1).is_err());
        assert!(HostTopology::blocked(4, 0).is_err());
        assert!(HostTopology::blocked(2, 4).is_err());
        assert!(HostTopology::from_mapping(vec![]).is_err());
        assert!(HostTopology::from_mapping(vec![0, 2]).is_err()); // host 1 missing
    }

    #[test]
    fn explicit_mapping() {
        let t = HostTopology::from_mapping(vec![0, 1, 0, 1]).unwrap();
        assert_eq!(t.hosts(), 2);
        assert_eq!(t.ranks_on(0), vec![0, 2]);
    }
}
