//! # dlm — distributed lock manager (GPFS-style token protocol)
//!
//! GPFS coordinates its clients with *tokens*: a node that holds the
//! token for an object may operate on its cached copy without talking
//! to anyone (the paper §II attributes the fast single-node behaviour
//! to this delegation). When another node wants a conflicting token,
//! the token manager *revokes* it from the current holders, which must
//! flush dirty state before releasing — the expensive path behind the
//! paper's shared-directory results.
//!
//! This crate implements the token *state machine* only. It is
//! deliberately free of timing and networking: [`TokenManager::acquire`]
//! returns an [`AcquireOutcome`] describing exactly which holders must
//! be revoked, and the filesystem simulator (`pfs`) converts that plan
//! into virtual-time costs (round trips, flushes, queueing).
//!
//! # Examples
//!
//! ```
//! use dlm::{TokenManager, TokenId, TokenMode};
//! use netsim::ids::NodeId;
//!
//! let mut tm = TokenManager::new();
//! let t = TokenId(42);
//! // First node gets the token without conflict.
//! let a = tm.acquire(NodeId(0), t, TokenMode::Exclusive);
//! assert!(a.revocations.is_empty());
//! // A second node's exclusive request must revoke node 0.
//! let b = tm.acquire(NodeId(1), t, TokenMode::Exclusive);
//! assert_eq!(b.revocations.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::ids::NodeId;
use simcore::hash::FxHashMap;
use simcore::stats::Counters;
use std::collections::hash_map::Entry;

/// Identifies one lockable object (a directory block, an inode block,
/// a directory inode, an allocation region). Producers hash their
/// object identity into this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u64);

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenMode {
    /// Many nodes may hold the token and cache the object read-only.
    Shared,
    /// A single node holds the token and may mutate its cached copy.
    Exclusive,
}

impl TokenMode {
    /// True if a holder in mode `self` satisfies a request for `want`.
    pub fn covers(self, want: TokenMode) -> bool {
        match (self, want) {
            (TokenMode::Exclusive, _) => true,
            (TokenMode::Shared, TokenMode::Shared) => true,
            (TokenMode::Shared, TokenMode::Exclusive) => false,
        }
    }
}

/// One revocation the requester must wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Revocation {
    /// The node losing (or downgrading) its token.
    pub holder: NodeId,
    /// Mode the holder had. Exclusive holders must flush dirty state
    /// before releasing, which is what makes revocation expensive.
    pub had: TokenMode,
}

/// Result of an acquire: whether the requester already held a
/// sufficient token, and which other holders must be revoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireOutcome {
    /// True if the requester already held a sufficient token — the
    /// local fast path with zero protocol cost.
    pub already_held: bool,
    /// Holders that must give up (or downgrade) their tokens before
    /// the grant. Empty for conflict-free grants.
    pub revocations: Vec<Revocation>,
}

impl AcquireOutcome {
    /// True if this grant required no messages at all.
    pub fn is_local(&self) -> bool {
        self.already_held
    }

    /// True if at least one revoked holder was exclusive (forcing a
    /// dirty-state flush).
    pub fn revokes_exclusive(&self) -> bool {
        self.revocations
            .iter()
            .any(|r| r.had == TokenMode::Exclusive)
    }
}

#[derive(Debug, Clone, Default)]
struct TokenState {
    // Sorted by NodeId, one entry per node, so revocation plans visit
    // holders in NodeId order on every platform — token handoff timing
    // is replay-critical. A token has few holders (at most one per
    // client node), so a sorted Vec beats any tree.
    holders: Vec<(NodeId, TokenMode)>,
}

impl TokenState {
    fn position(&self, node: NodeId) -> Result<usize, usize> {
        self.holders.binary_search_by_key(&node, |&(n, _)| n)
    }

    fn mode_of(&self, node: NodeId) -> Option<TokenMode> {
        self.position(node).ok().map(|i| self.holders[i].1)
    }

    /// Makes `node` a holder in `mode` (replacing any mode it had).
    fn set(&mut self, node: NodeId, mode: TokenMode) {
        match self.position(node) {
            Ok(i) => self.holders[i].1 = mode,
            Err(i) => self.holders.insert(i, (node, mode)),
        }
    }

    fn remove(&mut self, node: NodeId) {
        if let Ok(i) = self.position(node) {
            self.holders.remove(i);
        }
    }
}

/// The centralized token manager.
///
/// GPFS elects one node as token server per filesystem; requests that
/// cannot be satisfied locally go through it. The simulator places it
/// on file server 0 and charges round trips accordingly.
#[derive(Debug, Clone, Default)]
pub struct TokenManager {
    /// Tokens with at least one holder. Probed by id only: nothing
    /// depends on its iteration order.
    tokens: FxHashMap<TokenId, TokenState>,
    stats: Counters,
}

impl TokenManager {
    /// Creates a token manager with no tokens outstanding.
    pub fn new() -> Self {
        TokenManager::default()
    }

    /// Requests `mode` on `token` for `node`, returning the plan the
    /// caller must execute (revocations to perform). State is updated
    /// as if the plan completed: the requester ends up as a holder and
    /// conflicting holders are removed (downgraded to `Shared` when a
    /// shared request displaces an exclusive holder).
    pub fn acquire(&mut self, node: NodeId, token: TokenId, mode: TokenMode) -> AcquireOutcome {
        self.stats.bump("acquires");
        let state = self.tokens.entry(token).or_default();

        if let Some(held) = state.mode_of(node) {
            if held.covers(mode) {
                self.stats.bump("local_hits");
                return AcquireOutcome {
                    already_held: true,
                    revocations: Vec::new(),
                };
            }
        }

        let mut revocations = Vec::new();
        match mode {
            TokenMode::Exclusive => {
                // Everyone else must fully release.
                for &(holder, had) in &state.holders {
                    if holder != node {
                        revocations.push(Revocation { holder, had });
                    }
                }
                state.holders.clear();
                state.holders.push((node, TokenMode::Exclusive));
            }
            TokenMode::Shared => {
                // Only an exclusive holder conflicts; it downgrades to
                // shared (keeping its cache valid for reads).
                let exclusive_holder = state
                    .holders
                    .iter()
                    .find(|&&(_, m)| m == TokenMode::Exclusive)
                    .map(|&(h, _)| h);
                if let Some(holder) = exclusive_holder {
                    if holder != node {
                        revocations.push(Revocation {
                            holder,
                            had: TokenMode::Exclusive,
                        });
                        state.set(holder, TokenMode::Shared);
                    }
                }
                state.set(node, TokenMode::Shared);
            }
        }

        if !revocations.is_empty() {
            self.stats.add("revocations", revocations.len() as u64);
            if revocations.iter().any(|r| r.had == TokenMode::Exclusive) {
                self.stats.bump("exclusive_revocations");
            }
        }
        AcquireOutcome {
            already_held: false,
            revocations,
        }
    }

    /// Voluntarily releases `node`'s token (e.g. on cache eviction).
    /// Unknown tokens or non-holders are ignored.
    pub fn release(&mut self, node: NodeId, token: TokenId) {
        if let Entry::Occupied(mut e) = self.tokens.entry(token) {
            e.get_mut().remove(node);
            if e.get().holders.is_empty() {
                e.remove();
            }
        }
    }

    /// Forgets a token entirely (the object was deleted).
    pub fn drop_token(&mut self, token: TokenId) {
        self.tokens.remove(&token);
    }

    /// The mode `node` currently holds on `token`, if any.
    pub fn held_mode(&self, node: NodeId, token: TokenId) -> Option<TokenMode> {
        self.tokens.get(&token)?.mode_of(node)
    }

    /// Number of nodes currently holding `token`.
    pub fn holder_count(&self, token: TokenId) -> usize {
        self.tokens.get(&token).map_or(0, |s| s.holders.len())
    }

    /// Number of tokens with at least one holder.
    pub fn live_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Protocol counters: `acquires`, `local_hits`, `revocations`,
    /// `exclusive_revocations`.
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    /// Clears counters (keeps token state).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Releases every token held by `node` (node shutdown / unmount).
    pub fn release_all(&mut self, node: NodeId) {
        // cofs-lint: allow(D003, each token drops `node` on its own; no result depends on the visit order)
        self.tokens.retain(|_, state| {
            state.remove(node);
            !state.holders.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TokenId = TokenId(1);

    #[test]
    fn first_acquire_is_conflict_free() {
        let mut tm = TokenManager::new();
        let out = tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        assert!(!out.already_held);
        assert!(out.revocations.is_empty());
        assert_eq!(tm.held_mode(NodeId(0), T), Some(TokenMode::Exclusive));
    }

    #[test]
    fn repeat_acquire_is_local() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        let out = tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        assert!(out.already_held);
        assert!(out.is_local());
        assert_eq!(tm.stats().get("local_hits"), 1);
    }

    #[test]
    fn exclusive_covers_shared_request() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        let out = tm.acquire(NodeId(0), T, TokenMode::Shared);
        assert!(out.already_held);
    }

    #[test]
    fn shared_does_not_cover_exclusive() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Shared);
        let out = tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        assert!(!out.already_held);
        assert!(out.revocations.is_empty(), "sole sharer upgrades freely");
        assert_eq!(tm.held_mode(NodeId(0), T), Some(TokenMode::Exclusive));
    }

    #[test]
    fn exclusive_steals_from_exclusive() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        let out = tm.acquire(NodeId(1), T, TokenMode::Exclusive);
        assert_eq!(
            out.revocations,
            vec![Revocation {
                holder: NodeId(0),
                had: TokenMode::Exclusive
            }]
        );
        assert!(out.revokes_exclusive());
        assert_eq!(tm.held_mode(NodeId(0), T), None);
        assert_eq!(tm.held_mode(NodeId(1), T), Some(TokenMode::Exclusive));
        assert_eq!(tm.stats().get("exclusive_revocations"), 1);
    }

    #[test]
    fn shared_downgrades_exclusive_holder() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        let out = tm.acquire(NodeId(1), T, TokenMode::Shared);
        assert_eq!(out.revocations.len(), 1);
        assert!(out.revokes_exclusive());
        // Old holder keeps a shared token (cache stays valid for reads).
        assert_eq!(tm.held_mode(NodeId(0), T), Some(TokenMode::Shared));
        assert_eq!(tm.held_mode(NodeId(1), T), Some(TokenMode::Shared));
        assert_eq!(tm.holder_count(T), 2);
    }

    #[test]
    fn shared_holders_coexist() {
        let mut tm = TokenManager::new();
        for n in 0..4 {
            let out = tm.acquire(NodeId(n), T, TokenMode::Shared);
            assert!(out.revocations.is_empty());
        }
        assert_eq!(tm.holder_count(T), 4);
    }

    #[test]
    fn exclusive_revokes_all_sharers() {
        let mut tm = TokenManager::new();
        for n in 0..3 {
            tm.acquire(NodeId(n), T, TokenMode::Shared);
        }
        let out = tm.acquire(NodeId(9), T, TokenMode::Exclusive);
        assert_eq!(out.revocations.len(), 3);
        assert!(!out.revokes_exclusive());
        assert_eq!(tm.holder_count(T), 1);
    }

    #[test]
    fn upgrade_with_other_sharers_revokes_them() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Shared);
        tm.acquire(NodeId(1), T, TokenMode::Shared);
        let out = tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        assert!(!out.already_held);
        assert_eq!(out.revocations.len(), 1);
        assert_eq!(out.revocations[0].holder, NodeId(1));
        assert_eq!(tm.held_mode(NodeId(0), T), Some(TokenMode::Exclusive));
        assert_eq!(tm.held_mode(NodeId(1), T), None);
    }

    #[test]
    fn release_and_drop() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Shared);
        tm.acquire(NodeId(1), T, TokenMode::Shared);
        tm.release(NodeId(0), T);
        assert_eq!(tm.holder_count(T), 1);
        tm.release(NodeId(1), T);
        assert_eq!(tm.live_tokens(), 0);
        // Releasing unknown tokens is a no-op.
        tm.release(NodeId(5), TokenId(99));
        tm.drop_token(TokenId(99));
    }

    #[test]
    fn release_all_for_node() {
        let mut tm = TokenManager::new();
        for t in 0..5 {
            tm.acquire(NodeId(0), TokenId(t), TokenMode::Exclusive);
        }
        tm.acquire(NodeId(1), TokenId(0), TokenMode::Shared);
        tm.release_all(NodeId(0));
        assert_eq!(tm.held_mode(NodeId(0), TokenId(3)), None);
        // Token 0 survives because node 1 still shares it.
        assert_eq!(tm.holder_count(TokenId(0)), 1);
        assert_eq!(tm.live_tokens(), 1);
    }

    #[test]
    fn stats_reset() {
        let mut tm = TokenManager::new();
        tm.acquire(NodeId(0), T, TokenMode::Exclusive);
        tm.acquire(NodeId(1), T, TokenMode::Exclusive);
        assert!(tm.stats().get("acquires") >= 2);
        tm.reset_stats();
        assert_eq!(tm.stats().get("acquires"), 0);
        // Token state survives a stats reset.
        assert_eq!(tm.holder_count(T), 1);
    }

    #[test]
    fn covers_matrix() {
        assert!(TokenMode::Exclusive.covers(TokenMode::Exclusive));
        assert!(TokenMode::Exclusive.covers(TokenMode::Shared));
        assert!(TokenMode::Shared.covers(TokenMode::Shared));
        assert!(!TokenMode::Shared.covers(TokenMode::Exclusive));
    }
}
