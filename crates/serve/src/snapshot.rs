//! The immutable, versioned artifact the service answers from.
//!
//! A [`ReputationSnapshot`] compiles a study's join outputs — the
//! blocklist membership relation, the NAT user bounds and the dynamic
//! address space — into three sorted indexes:
//!
//! * the distinct blocklisted addresses ([`ar_index::IpSet`]) with a CSR
//!   posting table mapping each address to the lists that carry it, so a
//!   lookup answers *which* of the 151 lists fired, not just "listed";
//! * the NATed addresses with their per-address user lower bounds;
//! * the dynamically-allocated space (/24 prefixes plus exact addresses).
//!
//! A lookup combines them with the §6 [`GreylistPolicy`] into a
//! [`Verdict`]. Snapshots are immutable after
//! [`ReputationSnapshot::build`]; the server swaps whole `Arc`s, never
//! mutates.

use ar_blocklists::policy::{
    action_for, Action, GreylistPolicy, ReuseEvidence, ReusedAddressEntry,
};
use ar_blocklists::{BlocklistMeta, ListId};
use ar_index::{IpSet, PrefixSet};
use std::net::Ipv4Addr;

/// Headline class of a [`Verdict`]: the strictest action any list
/// produced, or `Unlisted` when no list carries the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictClass {
    /// No monitored list carries the address.
    Unlisted,
    /// At least one list demands a hard block.
    Block,
    /// Listed, and every listing softens to greylist under the policy.
    Greylist,
}

impl VerdictClass {
    /// Stable wire byte (also the order used in metrics names).
    pub fn code(self) -> u8 {
        match self {
            VerdictClass::Unlisted => 0,
            VerdictClass::Block => 1,
            VerdictClass::Greylist => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            VerdictClass::Unlisted => "unlisted",
            VerdictClass::Block => "block",
            VerdictClass::Greylist => "greylist",
        }
    }
}

/// The policy outcome for one list that carries the queried address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListVerdict {
    pub list: ListId,
    pub action: Action,
}

/// Everything the service knows about one address under one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub ip: Ipv4Addr,
    /// Generation of the snapshot that produced this verdict.
    pub generation: u64,
    pub class: VerdictClass,
    /// Reuse evidence backing any greylist downgrade.
    pub evidence: Option<ReuseEvidence>,
    /// Per-list outcomes, ascending by list id.
    pub lists: Vec<ListVerdict>,
}

impl Verdict {
    /// Append the fixed-layout byte encoding: `ip:u32 gen:u64 class:u8
    /// evidence:(tag:u8 [users:u32]) nlists:u16 (list:u16 action:u8)*`,
    /// all big-endian. This is the byte stream the determinism tests
    /// checksum, so the layout is part of the service contract.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::from(self.ip).to_be_bytes());
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.push(self.class.code());
        match self.evidence {
            None => out.push(0),
            Some(ReuseEvidence::Natted { users }) => {
                out.push(1);
                out.extend_from_slice(&users.to_be_bytes());
            }
            Some(ReuseEvidence::DynamicPrefix) => out.push(2),
        }
        out.extend_from_slice(&(self.lists.len() as u16).to_be_bytes());
        for lv in &self.lists {
            out.extend_from_slice(&lv.list.0.to_be_bytes());
            out.push(match lv.action {
                Action::Block => 0,
                Action::Greylist => 1,
            });
        }
    }
}

/// Concatenated [`Verdict::encode_into`] of a whole stream.
pub fn encode_verdicts(verdicts: &[Verdict]) -> Vec<u8> {
    let mut out = Vec::with_capacity(verdicts.len() * 16);
    for v in verdicts {
        v.encode_into(&mut out);
    }
    out
}

/// FNV-1a 64 over a byte stream: the checksum the determinism tests and
/// the CI smoke job compare across shard counts and transports. This is
/// the workspace-shared implementation (`ar_simnet::fnv`), re-exported so
/// existing `ar_serve::fnv1a64` callers keep working.
pub use ar_index::fnv::fnv1a64;

/// Checksum of a verdict stream's canonical encoding.
pub fn checksum_verdicts(verdicts: &[Verdict]) -> u64 {
    fnv1a64(&encode_verdicts(verdicts))
}

/// Raw inputs to [`ReputationSnapshot::build`]: the join artifacts in
/// neutral form, so the builder does not depend on the study crate.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SnapshotInput {
    /// `(address, list)` membership pairs; duplicates and disorder are
    /// tolerated and canonicalised by the builder.
    pub memberships: Vec<(u32, ListId)>,
    /// `(address, user lower bound)` NAT evidence; on duplicates the
    /// largest bound wins.
    pub nat_evidence: Vec<(u32, u32)>,
    /// Dynamically-allocated /24s from the Atlas pipeline.
    pub dynamic_prefixes: PrefixSet,
    /// Exact dynamic addresses (when prefix expansion is off).
    pub dynamic_addresses: IpSet,
}

/// Why a snapshot failed validation and must not be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDefect {
    /// The stored content checksum does not match the indexes.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// An index array violates a structural invariant; the message names
    /// the broken one.
    Structural(&'static str),
    /// The offered generation is not strictly newer than the serving one
    /// (only produced by [`crate::server::ReputationServer::offer_swap`]).
    GenerationRegression { offered: u64, serving: u64 },
}

impl std::fmt::Display for SnapshotDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDefect::ChecksumMismatch { stored, computed } => write!(
                f,
                "content checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotDefect::Structural(what) => write!(f, "structural damage: {what}"),
            SnapshotDefect::GenerationRegression { offered, serving } => write!(
                f,
                "generation regression: offered {offered} while serving {serving}"
            ),
        }
    }
}

/// See module docs. Built once, then shared immutably behind an `Arc`.
#[derive(Debug, Clone)]
pub struct ReputationSnapshot {
    generation: u64,
    policy: GreylistPolicy,
    catalog: Vec<BlocklistMeta>,
    /// Distinct blocklisted addresses, ascending.
    addrs: IpSet,
    /// CSR row offsets into `list_ids`; `len = addrs.len() + 1`.
    offsets: Vec<u32>,
    /// Posting lists: for the i-th address, the lists carrying it live at
    /// `list_ids[offsets[i]..offsets[i+1]]`, ascending.
    list_ids: Vec<u16>,
    /// NATed addresses, ascending, parallel to `nat_users`.
    nat: IpSet,
    nat_users: Vec<u32>,
    dynamic_prefixes: PrefixSet,
    dynamic_addresses: IpSet,
    /// FNV-1a over the canonical index encoding, taken at build time.
    /// [`ReputationSnapshot::validate`] recomputes and compares, so any
    /// post-build mutation of the indexes is detectable before a swap.
    content_checksum: u64,
}

impl ReputationSnapshot {
    /// Compile the join artifacts into the immutable serving form.
    pub fn build(
        generation: u64,
        catalog: Vec<BlocklistMeta>,
        policy: GreylistPolicy,
        input: SnapshotInput,
    ) -> ReputationSnapshot {
        let SnapshotInput {
            mut memberships,
            mut nat_evidence,
            dynamic_prefixes,
            dynamic_addresses,
        } = input;

        memberships.sort_unstable_by_key(|&(ip, list)| (ip, list.0));
        memberships.dedup();
        let mut addrs = Vec::new();
        let mut offsets = vec![0u32];
        let mut list_ids = Vec::with_capacity(memberships.len());
        for &(ip, list) in &memberships {
            if addrs.last() != Some(&ip) {
                addrs.push(ip);
                offsets.push(list_ids.len() as u32);
            }
            list_ids.push(list.0);
            if let Some(last) = offsets.last_mut() {
                *last = list_ids.len() as u32;
            }
        }

        // Largest bound wins on duplicate NAT evidence for one address.
        nat_evidence.sort_unstable();
        let mut nat = Vec::new();
        let mut nat_users: Vec<u32> = Vec::new();
        for (ip, users) in nat_evidence {
            if nat.last() == Some(&ip) {
                if let Some(u) = nat_users.last_mut() {
                    *u = (*u).max(users);
                }
            } else {
                nat.push(ip);
                nat_users.push(users);
            }
        }

        let mut snapshot = ReputationSnapshot {
            generation,
            policy,
            catalog,
            addrs: IpSet::from_sorted(addrs),
            offsets,
            list_ids,
            nat: IpSet::from_sorted(nat),
            nat_users,
            dynamic_prefixes,
            dynamic_addresses,
            content_checksum: 0,
        };
        snapshot.content_checksum = snapshot.compute_content_checksum();
        snapshot
    }

    /// FNV-1a over the canonical encoding of every index array plus the
    /// generation. Pure function of the compiled content — two snapshots
    /// built from the same canonicalised inputs share it.
    pub fn compute_content_checksum(&self) -> u64 {
        let mut bytes: Vec<u8> = Vec::with_capacity(
            16 + self.addrs.len() * 4
                + self.offsets.len() * 4
                + self.list_ids.len() * 2
                + self.nat.len() * 8,
        );
        bytes.extend_from_slice(&self.generation.to_be_bytes());
        bytes.extend_from_slice(&(self.addrs.len() as u64).to_be_bytes());
        for &ip in self.addrs.as_raw() {
            bytes.extend_from_slice(&ip.to_be_bytes());
        }
        for &off in &self.offsets {
            bytes.extend_from_slice(&off.to_be_bytes());
        }
        for &list in &self.list_ids {
            bytes.extend_from_slice(&list.to_be_bytes());
        }
        for (&ip, &users) in self.nat.as_raw().iter().zip(&self.nat_users) {
            bytes.extend_from_slice(&ip.to_be_bytes());
            bytes.extend_from_slice(&users.to_be_bytes());
        }
        for p in self.dynamic_prefixes.iter() {
            bytes.extend_from_slice(&p.raw().to_be_bytes());
        }
        for &ip in self.dynamic_addresses.as_raw() {
            bytes.extend_from_slice(&ip.to_be_bytes());
        }
        fnv1a64(&bytes)
    }

    /// The checksum taken at build time (what [`Self::validate`] compares
    /// against).
    pub fn content_checksum(&self) -> u64 {
        self.content_checksum
    }

    /// Check the snapshot is safe to install: every structural invariant
    /// the lookup paths rely on holds, and the content checksum matches a
    /// fresh recomputation. Total and allocation-light; the server runs
    /// it on every offered swap.
    pub fn validate(&self) -> Result<(), SnapshotDefect> {
        if self.offsets.len() != self.addrs.len() + 1 {
            return Err(SnapshotDefect::Structural("offsets length != addrs + 1"));
        }
        if self.offsets.first() != Some(&0) {
            return Err(SnapshotDefect::Structural("offsets must start at 0"));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotDefect::Structural("offsets must be nondecreasing"));
        }
        if self.offsets.last().copied().unwrap_or(0) as usize != self.list_ids.len() {
            return Err(SnapshotDefect::Structural(
                "last offset != posting-table length",
            ));
        }
        if self.nat.len() != self.nat_users.len() {
            return Err(SnapshotDefect::Structural(
                "nat addresses and user bounds disagree in length",
            ));
        }
        if self.addrs.as_raw().windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotDefect::Structural(
                "listed addresses must be strictly ascending",
            ));
        }
        let computed = self.compute_content_checksum();
        if computed != self.content_checksum {
            return Err(SnapshotDefect::ChecksumMismatch {
                stored: self.content_checksum,
                computed,
            });
        }
        Ok(())
    }

    /// Damage the snapshot in a controlled way (chaos tooling — the fault
    /// suites and `bench_chaos` build sabotaged snapshots to prove the
    /// validated swap path rejects them). `GenerationRegression` leaves
    /// the content intact; the regression is in the generation the caller
    /// offers it under.
    pub fn sabotaged(mut self, fault: ar_faults::SnapshotFault) -> ReputationSnapshot {
        match fault {
            ar_faults::SnapshotFault::CorruptPostings => {
                // Flip a posting bit after the checksum was taken; if the
                // posting table is empty, corrupt an offset instead.
                if let Some(list) = self.list_ids.first_mut() {
                    *list ^= 1;
                } else if let Some(off) = self.offsets.first_mut() {
                    *off ^= 1;
                }
            }
            ar_faults::SnapshotFault::ChecksumMismatch => {
                self.content_checksum ^= 0xDEAD_BEEF;
            }
            ar_faults::SnapshotFault::StructuralTruncation => {
                self.offsets.pop();
            }
            ar_faults::SnapshotFault::GenerationRegression => {}
        }
        self
    }

    /// Recover the canonical [`SnapshotInput`] the compiled indexes encode:
    /// memberships in `(ip, list)` order, NAT evidence deduplicated
    /// max-wins, dynamic space as-is. Feeding the result back through
    /// [`ReputationSnapshot::build`] under the same generation, catalog and
    /// policy reproduces this snapshot byte-for-byte — the identity
    /// `ar-store`'s delta encoding is built on.
    pub fn canonical_input(&self) -> SnapshotInput {
        let mut memberships = Vec::with_capacity(self.list_ids.len());
        for (i, &ip) in self.addrs.as_raw().iter().enumerate() {
            let lo = self.offsets.get(i).copied().unwrap_or(0) as usize;
            let hi = self.offsets.get(i + 1).copied().unwrap_or(0) as usize;
            for &list in self.list_ids.get(lo..hi).unwrap_or(&[]) {
                memberships.push((ip, ListId(list)));
            }
        }
        SnapshotInput {
            memberships,
            nat_evidence: self
                .nat
                .as_raw()
                .iter()
                .copied()
                .zip(self.nat_users.iter().copied())
                .collect(),
            dynamic_prefixes: self.dynamic_prefixes.clone(),
            dynamic_addresses: self.dynamic_addresses.clone(),
        }
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn policy(&self) -> &GreylistPolicy {
        &self.policy
    }

    /// The list catalogue the verdict path resolves posting ids against.
    pub fn catalog(&self) -> &[BlocklistMeta] {
        &self.catalog
    }

    /// Distinct blocklisted addresses the snapshot indexes.
    pub fn listed_addresses(&self) -> &IpSet {
        &self.addrs
    }

    /// Total membership pairs (listings collapsed to current membership).
    pub fn posting_count(&self) -> usize {
        self.list_ids.len()
    }

    /// The reuse evidence the snapshot holds for `ip`, NAT winning over
    /// dynamic (it is per-address and carries a user count).
    pub fn evidence_for(&self, ip: Ipv4Addr) -> Option<ReuseEvidence> {
        let raw: u32 = ip.into();
        if let Ok(i) = self.nat.as_raw().binary_search(&raw) {
            return Some(ReuseEvidence::Natted {
                users: self.nat_users.get(i).copied().unwrap_or(2),
            });
        }
        if self.dynamic_prefixes.contains_ip(ip) || self.dynamic_addresses.contains(ip) {
            return Some(ReuseEvidence::DynamicPrefix);
        }
        None
    }

    /// The lists carrying `ip`, ascending; empty when unlisted.
    pub fn lists_for(&self, ip: Ipv4Addr) -> &[u16] {
        let raw: u32 = ip.into();
        match self.addrs.as_raw().binary_search(&raw) {
            Ok(i) => {
                let lo = self.offsets.get(i).copied().unwrap_or(0) as usize;
                let hi = self.offsets.get(i + 1).copied().unwrap_or(0) as usize;
                self.list_ids.get(lo..hi).unwrap_or(&[])
            }
            Err(_) => &[],
        }
    }

    /// Answer one query: which lists fired, the reuse evidence, and the
    /// per-list §6 action, folded into a headline class.
    pub fn verdict(&self, raw_ip: u32) -> Verdict {
        let ip = Ipv4Addr::from(raw_ip);
        let fired = self.lists_for(ip);
        let evidence = if fired.is_empty() {
            // Unlisted addresses skip the evidence join: the reuse indexes
            // only matter for softening a listing.
            None
        } else {
            self.evidence_for(ip)
        };
        let entry = evidence.map(|evidence| ReusedAddressEntry {
            ip,
            evidence,
            lists: fired.len() as u32,
        });
        let mut lists = Vec::with_capacity(fired.len());
        let mut any_block = false;
        for &id in fired {
            let action = match self.catalog.get(usize::from(id)) {
                Some(meta) => action_for(&self.policy, meta, entry.as_ref()),
                // A posting for a list outside the catalogue cannot apply
                // category policy; fail safe to a hard block.
                None => Action::Block,
            };
            any_block |= action == Action::Block;
            lists.push(ListVerdict {
                list: ListId(id),
                action,
            });
        }
        let class = if lists.is_empty() {
            VerdictClass::Unlisted
        } else if any_block {
            VerdictClass::Block
        } else {
            VerdictClass::Greylist
        };
        Verdict {
            ip,
            generation: self.generation,
            class,
            evidence,
            lists,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_blocklists::build_catalog;
    use ar_simnet::malice::MaliceCategory;

    fn catalog_ids(category: MaliceCategory) -> Vec<ListId> {
        build_catalog()
            .iter()
            .filter(|m| m.category == category)
            .map(|m| m.id)
            .collect()
    }

    fn snapshot() -> ReputationSnapshot {
        let spam = catalog_ids(MaliceCategory::Spam)[0];
        let ddos = catalog_ids(MaliceCategory::Ddos)[0];
        let input = SnapshotInput {
            memberships: vec![
                (10, spam),
                (10, ddos),
                (10, spam), // duplicate collapses
                (20, spam),
                (30, spam),
            ],
            nat_evidence: vec![(20, 4), (20, 9), (99, 3)],
            dynamic_prefixes: PrefixSet::from_raw(vec![30 >> 8]),
            dynamic_addresses: IpSet::new(),
        };
        ReputationSnapshot::build(7, build_catalog(), GreylistPolicy::default(), input)
    }

    #[test]
    fn postings_collapse_and_sort() {
        let s = snapshot();
        assert_eq!(s.listed_addresses().len(), 3);
        assert_eq!(s.posting_count(), 4);
        assert_eq!(s.lists_for(Ipv4Addr::from(10)).len(), 2);
        assert_eq!(s.lists_for(Ipv4Addr::from(40)).len(), 0);
    }

    #[test]
    fn ddos_listing_forces_block_class() {
        let s = snapshot();
        let v = s.verdict(10);
        assert_eq!(v.class, VerdictClass::Block);
        assert_eq!(v.generation, 7);
        assert_eq!(v.lists.len(), 2);
    }

    #[test]
    fn natted_spam_listing_greylists_with_max_bound() {
        let s = snapshot();
        let v = s.verdict(20);
        assert_eq!(v.class, VerdictClass::Greylist);
        assert_eq!(v.evidence, Some(ReuseEvidence::Natted { users: 9 }));
    }

    #[test]
    fn dynamic_prefix_greylists_spam() {
        let s = snapshot();
        let v = s.verdict(30);
        assert_eq!(v.class, VerdictClass::Greylist);
        assert_eq!(v.evidence, Some(ReuseEvidence::DynamicPrefix));
    }

    #[test]
    fn unlisted_is_unlisted_even_with_evidence() {
        let s = snapshot();
        let v = s.verdict(99);
        assert_eq!(v.class, VerdictClass::Unlisted);
        assert_eq!(v.evidence, None);
        assert!(v.lists.is_empty());
    }

    #[test]
    fn fresh_snapshots_validate_and_checksums_are_content_stable() {
        let s = snapshot();
        assert!(s.validate().is_ok());
        assert_eq!(s.content_checksum(), s.compute_content_checksum());
        // An identical rebuild shares the checksum; a different generation
        // does not (the generation is part of the serving contract).
        let again = snapshot();
        assert_eq!(s.content_checksum(), again.content_checksum());
        let other = ReputationSnapshot::build(
            8,
            build_catalog(),
            GreylistPolicy::default(),
            SnapshotInput::default(),
        );
        assert_ne!(s.content_checksum(), other.content_checksum());
        assert!(other.validate().is_ok(), "empty snapshots are valid too");
    }

    #[test]
    fn every_sabotage_kind_is_caught_by_validate() {
        use ar_faults::SnapshotFault;
        let corrupt = snapshot().sabotaged(SnapshotFault::CorruptPostings);
        assert!(matches!(
            corrupt.validate(),
            Err(SnapshotDefect::ChecksumMismatch { .. })
        ));
        let lying = snapshot().sabotaged(SnapshotFault::ChecksumMismatch);
        assert!(matches!(
            lying.validate(),
            Err(SnapshotDefect::ChecksumMismatch { .. })
        ));
        let truncated = snapshot().sabotaged(SnapshotFault::StructuralTruncation);
        assert!(matches!(
            truncated.validate(),
            Err(SnapshotDefect::Structural(_))
        ));
        // Generation regression leaves content intact — the server-side
        // monotonicity check is what rejects it.
        let regressed = snapshot().sabotaged(SnapshotFault::GenerationRegression);
        assert!(regressed.validate().is_ok());
    }

    #[test]
    fn encoding_is_stable() {
        let s = snapshot();
        let stream: Vec<Verdict> = [10u32, 20, 30, 99]
            .iter()
            .map(|&ip| s.verdict(ip))
            .collect();
        let a = checksum_verdicts(&stream);
        let b = checksum_verdicts(&stream);
        assert_eq!(a, b);
        // The empty stream hashes to the FNV offset basis.
        assert_eq!(checksum_verdicts(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
