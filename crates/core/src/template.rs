//! Execution templates: record/replay of per-step control-plane decisions,
//! after Mashayekhi et al., "Execution Templates: Caching Control Plane
//! Decisions for Strong Scaling of Data Analytics" (USENIX ATC '17),
//! adapted to Mitos's path-based coordination.
//!
//! Every output bag a host starts triggers the same family of per-step
//! control-plane decisions: input-bag selection (Sec. 5.2.3) scans the
//! execution path backward once per input edge, the Φ choice compares every
//! candidate edge, and conditional-output watchers (Sec. 5.2.4) scan
//! forward. In a hot loop those decisions come out identical on every
//! iteration — and the backward scans for producers that occurred long ago
//! (Φ initializers, pre-loop invariants) walk an ever-growing path, so the
//! per-step control-plane cost *grows* with the iteration count.
//!
//! A [`TemplateCache`] (one per host) removes that re-derivation. The first
//! traversal of a basic-block path suffix records its outcomes as a
//! [`Template`]: input selections as *deltas* relative to the path end, the
//! Φ winner, the hoist verdict, and (as they resolve) the conditional-send
//! slices. A repeat traversal that presents the same suffix *replays* the
//! template in O([`WINDOW`]) instead of re-deciding in O(path), and falls
//! back to the slow path on any mismatch.
//!
//! Soundness rests on a window argument. A backward scan that resolved
//! within the last [`WINDOW`] blocks is a pure function of those blocks
//! plus the (static) per-edge rule, so an identical suffix of
//! `WINDOW + 1` blocks forces an identical outcome:
//!
//! * **Non-Φ selection**: `selected = len − delta` with `delta ≤ WINDOW`
//!   means the producer's last occurrence and every later position it was
//!   scanned past all lie inside the suffix. Same suffix ⟹ same scan
//!   result at the same relative offset. A producer whose block lies in
//!   *no* loop gets a stronger rule: such a block occurs at most once per
//!   run, and the execution path is append-only, so its occurrence
//!   position is a run constant — recorded absolutely
//!   ([`SelSlot::Absolute`]), it stays valid at any depth. This keeps
//!   loop-invariant inputs (pre-loop producers, constants) replayable even
//!   though their backward-scan delta grows without bound.
//! * **Φ choice**: only the winner `(input, delta)` is recorded — loser
//!   candidates never contribute values (their selections are `None` on
//!   the slow path too). Any candidate that beat the recorded winner at
//!   replay time would have to occur *after* the winner's occurrence,
//!   inside the shared suffix — contradicting suffix equality. Candidates
//!   whose producers last occurred before the window start strictly lose
//!   to an in-window winner. (Unlike non-Φ selections, a Φ winner is
//!   *never* recorded absolutely: the winner competes against the other
//!   candidates, and an out-of-window winner could be silently overtaken
//!   by another out-of-window candidate without the suffix changing.)
//! * **Conditional sends**: the recorded slice is exactly the path segment
//!   the forward scan consumed, ending with the resolving block. A replay
//!   applies the verdict at the append where the slice completes — the
//!   same append the slow path would have resolved on — and any
//!   divergence inside the slice falls back to [`decide_send`] from the
//!   matched (provably non-resolving) prefix.
//!
//! Decisions that reach further back than the window are only replayed
//! when the key covers the *entire* path ([`Template::full_path`]), where
//! whole-path equality is trivially sufficient.
//!
//! The virtual-time cost model makes the saving visible: the slow path
//! charges [`CostModel::scan_cost`] per path block a selection scan
//! examines, while a replay charges one flat [`CostModel::replay_cost`].
//! Results — outputs, execution paths, data-plane message counts,
//! decision counts, and causal span-tree *shapes* — are bit-identical on
//! and off; only timestamps, end-to-end virtual time, and the
//! hit/miss/invalidation counters differ. That split is exactly what the
//! template-equivalence test battery asserts.
//!
//! [`CostModel::scan_cost`]: crate::cost::CostModel::scan_cost
//! [`CostModel::replay_cost`]: crate::cost::CostModel::replay_cost
//!
//! [`decide_send`]: crate::path::PathRules::decide_send

use mitos_ir::BlockId;
use std::sync::Arc;

/// Suffix-window size: decisions are replayed from a template only when
/// they resolved within the last `WINDOW` path blocks (or when the key is
/// the whole path). The key stores `WINDOW + 1` blocks — the decisions at
/// a bag start also depend on whether the position itself matches.
pub const WINDOW: usize = 16;

/// Per-host template capacity: a host sees at most a handful of distinct
/// hot suffixes (one per way control flow can arrive at its block), so a
/// small move-to-front list beats a map.
const CAPACITY: usize = 8;

/// One recorded non-Φ input selection: how to reconstruct the selected
/// path-prefix length at replay time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelSlot {
    /// The producer resolved within the window:
    /// `selected = bag_len − delta`. Replayable from a suffix key only
    /// when `delta ≤ WINDOW`.
    Delta(u32),
    /// The producer's block lies in no loop ([`EdgeRules::once`]), so it
    /// occurs at most once per run and its occurrence position is a run
    /// constant: `selected` is the absolute prefix length, valid for the
    /// rest of the run.
    ///
    /// [`EdgeRules::once`]: crate::path::EdgeRules::once
    Absolute(u32),
}

impl SelSlot {
    /// The selected prefix length for a bag of identifier length `len`.
    pub fn selected(self, len: u32) -> u32 {
        match self {
            SelSlot::Delta(d) => len - d,
            SelSlot::Absolute(l) => l,
        }
    }

    /// Whether this slot may be replayed from a (non-full-path) suffix key.
    fn replayable(self) -> bool {
        match self {
            SelSlot::Delta(d) => d as usize <= WINDOW,
            SelSlot::Absolute(_) => true,
        }
    }
}

/// The recorded input-selection and hoist outcomes of one bag start.
#[derive(Clone, Debug)]
pub struct SelectionRecord {
    /// Φ nodes: the winning input index and its delta (`bag_len − selected`).
    /// `None` for non-Φ operators.
    pub phi_winner: Option<(usize, u32)>,
    /// Non-Φ operators: per-input selection slots, in input order. Empty
    /// for Φ operators and sources.
    pub inputs: Vec<SelSlot>,
    /// Whether the hoist cache was reused at record time. Replay always
    /// recomputes the live O(1) hoist check (kept state is not
    /// path-determined); a disagreement counts as an invalidation and
    /// updates this bit.
    pub hoist_hit: bool,
}

/// Recorded resolution state of one conditional-send watcher (one
/// outgoing non-immediate edge of the templated bag).
#[derive(Clone, Debug)]
pub enum SendStatus {
    /// No traversal has resolved this edge's watcher yet (it can be
    /// filled in by a later traversal that resolves on the slow path).
    Unrecorded,
    /// The resolution is not replayable (scan longer than [`WINDOW`], or
    /// resolved by program exit rather than by a block) — this edge
    /// always takes the slow path.
    Poisoned,
    /// The watcher resolved by scanning exactly `slice` (the path segment
    /// from the bag's start, ending with the resolving block): replay
    /// applies `sent` at the append where the slice completes.
    Recorded {
        /// Path segment `path[bag_len..resolution]` consumed by the scan.
        slice: Arc<[BlockId]>,
        /// `true` = send, `false` = drop.
        sent: bool,
    },
}

/// One cached traversal: the control-plane decisions of a bag started at a
/// path position whose suffix matched `key`.
#[derive(Clone, Debug)]
pub struct Template {
    /// Stable identity within the owning cache (the move-to-front list
    /// reorders, so send fill-ins address templates by id).
    pub id: u64,
    /// The path suffix (last `min(WINDOW + 1, len)` blocks of the prefix
    /// ending at the bag's position) this template was recorded under.
    pub key: Arc<[BlockId]>,
    /// Whether `key` is the *entire* path prefix. Full-path templates may
    /// carry deltas beyond [`WINDOW`] (whole-path equality makes every
    /// decision replayable), but they only match a path of exactly the
    /// key's length.
    pub full_path: bool,
    /// Recorded selection and hoist outcomes.
    pub selection: SelectionRecord,
    /// Per-outgoing-edge conditional-send resolutions, in out-edge order.
    pub sends: Vec<SendStatus>,
}

/// A replay hint attached to a live conditional-send watcher: the recorded
/// slice is verified incrementally as the path grows; on full match the
/// recorded verdict applies, on divergence the watcher falls back to the
/// slow path from the matched prefix.
#[derive(Clone, Debug)]
pub struct SendHint {
    /// The recorded scan segment (non-empty; last block resolves).
    pub slice: Arc<[BlockId]>,
    /// The recorded verdict (`true` = send).
    pub sent: bool,
    /// Number of leading slice blocks already verified against the path
    /// (all provably non-resolving).
    pub verified: u32,
}

/// Outcome of one incremental hint-verification step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HintStep {
    /// The slice matched completely: apply the recorded verdict; `next` is
    /// the cursor past the resolving block (same value the slow path's
    /// scan would return).
    Resolved {
        /// The recorded verdict (`true` = send).
        sent: bool,
        /// Cursor past the resolving block.
        next: u32,
    },
    /// The visible path still matches a proper prefix of the slice; keep
    /// watching. `cursor` is the first unverified position.
    Pending {
        /// First unverified path position.
        cursor: u32,
    },
    /// The path diverged from the slice (or exited before completing it):
    /// re-decide from `cursor` — every earlier position was verified
    /// non-resolving, so the slow path resumes exactly where it would be.
    Mismatch {
        /// Position to resume the slow-path scan from.
        cursor: u32,
    },
}

impl SendHint {
    /// Verifies as much of the slice as the path currently shows.
    pub fn advance(&mut self, path_blocks: &[BlockId], exited: bool, bag_len: u32) -> HintStep {
        let n = self.slice.len() as u32;
        debug_assert!(n > 0, "send slices always contain the resolving block");
        loop {
            let k = self.verified;
            let idx = bag_len + k;
            if idx as usize >= path_blocks.len() {
                // Slow path resolves an exhausted scan only at exit (as a
                // drop) — the recorded resolution can no longer happen.
                return if exited {
                    HintStep::Mismatch { cursor: idx }
                } else {
                    HintStep::Pending { cursor: idx }
                };
            }
            if path_blocks[idx as usize] != self.slice[k as usize] {
                return HintStep::Mismatch { cursor: idx };
            }
            if k + 1 == n {
                return HintStep::Resolved {
                    sent: self.sent,
                    next: idx + 1,
                };
            }
            self.verified = k + 1;
        }
    }
}

/// Per-host cache of recorded traversals, with deterministic hit/miss/
/// invalidation counters (bag starts follow path order on both drivers,
/// so the counters are bit-identical across runs and drivers).
#[derive(Debug, Default)]
pub struct TemplateCache {
    templates: Vec<Template>,
    next_id: u64,
    /// Bag starts whose selection decisions were replayed from a template.
    pub hits: u64,
    /// Bag starts with no matching template (the traversal is recorded,
    /// when replayable).
    pub misses: u64,
    /// Replay fallbacks: send-hint divergences and hoist-verdict
    /// disagreements (the live result always wins).
    pub invalidations: u64,
}

impl TemplateCache {
    /// An empty cache.
    pub fn new() -> TemplateCache {
        TemplateCache::default()
    }

    /// The key a bag started at prefix length `len` would be cached under:
    /// the last `min(WINDOW + 1, len)` blocks.
    fn suffix(path_blocks: &[BlockId], len: usize) -> &[BlockId] {
        let k = (WINDOW + 1).min(len);
        &path_blocks[len - k..len]
    }

    /// Looks up the template for a bag starting at prefix length `len`,
    /// counting a hit (and moving the template to the front) or a miss.
    pub fn lookup(&mut self, path_blocks: &[BlockId], len: u32) -> Option<&Template> {
        let len = len as usize;
        let suffix = Self::suffix(path_blocks, len);
        let found = self
            .templates
            .iter()
            .position(|t| (!t.full_path || t.key.len() == len) && *t.key == *suffix);
        match found {
            Some(i) => {
                self.hits += 1;
                let t = self.templates.remove(i);
                self.templates.insert(0, t);
                Some(&self.templates[0])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a slow-path traversal, returning the new template's id —
    /// or `None` when the decisions are not replayable (a
    /// [`SelSlot::Delta`] or Φ-winner delta beyond [`WINDOW`] without
    /// whole-path coverage), in which case nothing is cached and the
    /// suffix stays a miss.
    pub fn record(
        &mut self,
        path_blocks: &[BlockId],
        len: u32,
        selection: SelectionRecord,
        n_out_edges: usize,
    ) -> Option<u64> {
        let len = len as usize;
        let key = Self::suffix(path_blocks, len);
        let full_path = key.len() == len;
        if !full_path {
            let replayable = selection.inputs.iter().all(|s| s.replayable())
                && selection
                    .phi_winner
                    .is_none_or(|(_, d)| d as usize <= WINDOW);
            if !replayable {
                return None;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        if self.templates.len() == CAPACITY {
            self.templates.pop();
        }
        self.templates.insert(
            0,
            Template {
                id,
                key: key.into(),
                full_path,
                selection,
                sends: vec![SendStatus::Unrecorded; n_out_edges],
            },
        );
        Some(id)
    }

    /// Fills in a conditional-send resolution observed on the slow path.
    /// Only [`SendStatus::Unrecorded`] entries are filled: a recorded or
    /// poisoned entry keeps its (majority-case) state even when a
    /// concurrent in-flight bag resolved differently.
    pub fn fill_send(&mut self, id: u64, edge_idx: usize, status: SendStatus) {
        if let Some(t) = self.templates.iter_mut().find(|t| t.id == id) {
            if matches!(t.sends[edge_idx], SendStatus::Unrecorded) {
                t.sends[edge_idx] = status;
            }
        }
    }

    /// Reconciles the recorded hoist verdict with the live recomputation
    /// on a replayed traversal: a disagreement counts as an invalidation
    /// (returned as `true`) and the stored bit follows the live result.
    pub fn note_hoist(&mut self, id: u64, live: bool) -> bool {
        if let Some(t) = self.templates.iter_mut().find(|t| t.id == id) {
            if t.selection.hoist_hit != live {
                self.invalidations += 1;
                t.selection.hoist_hit = live;
                return true;
            }
        }
        false
    }

    /// The fraction of bag starts served by replay (`hits / lookups`), or
    /// 0 when no lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(deltas: &[u32]) -> SelectionRecord {
        SelectionRecord {
            phi_winner: None,
            inputs: deltas.iter().map(|&d| SelSlot::Delta(d)).collect(),
            hoist_hit: false,
        }
    }

    fn phi(winner: usize, delta: u32) -> SelectionRecord {
        SelectionRecord {
            phi_winner: Some((winner, delta)),
            inputs: Vec::new(),
            hoist_hit: false,
        }
    }

    /// A path of `n` blocks cycling 1,2,3,1,2,3,… after an entry block 0.
    fn loopy_path(n: usize) -> Vec<BlockId> {
        (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    (1 + (i - 1) % 3) as BlockId
                }
            })
            .collect()
    }

    #[test]
    fn same_suffix_hits_changed_suffix_misses() {
        let mut c = TemplateCache::new();
        let p = loopy_path(40);
        assert!(c.lookup(&p, 40).is_none(), "empty cache misses");
        c.record(&p, 40, sel(&[1, 3]), 0).unwrap();
        // Same cyclic suffix three iterations later (37 ≡ 40 mod 3).
        let longer = loopy_path(49);
        let hit = c.lookup(&longer, 49).expect("same suffix must hit");
        assert_eq!(
            hit.selection.inputs,
            vec![SelSlot::Delta(1), SelSlot::Delta(3)]
        );
        // One block off the cycle → different suffix → miss.
        let mut changed = loopy_path(49);
        changed[45] = 9;
        assert!(c.lookup(&changed, 49).is_none(), "changed suffix must miss");
        assert_eq!((c.hits, c.misses), (1, 2));
    }

    #[test]
    fn full_path_templates_match_only_the_whole_path() {
        let mut c = TemplateCache::new();
        // A path of exactly WINDOW + 1 blocks: the key is simultaneously a
        // maximal suffix *and* the whole path, so `full_path` is the only
        // thing preventing replay against a longer path with an equal
        // suffix (where the recorded deltas could reach past the window).
        let p = loopy_path(WINDOW + 1);
        let id = c
            .record(&p, (WINDOW + 1) as u32, sel(&[WINDOW as u32]), 0)
            .unwrap();
        assert!(c.templates.iter().any(|t| t.id == id && t.full_path));
        assert!(
            c.lookup(&p, (WINDOW + 1) as u32).is_some(),
            "identical whole path hits"
        );
        let mut longer: Vec<BlockId> = vec![5, 6, 7];
        longer.extend_from_slice(&p);
        assert!(
            c.lookup(&longer, longer.len() as u32).is_none(),
            "a full-path template must not replay against a mere suffix match"
        );
    }

    #[test]
    fn deep_deltas_are_rejected_unless_full_path() {
        let mut c = TemplateCache::new();
        let p = loopy_path(40);
        // A delta reaching past the window is not replayable from a
        // suffix key: nothing is cached.
        assert!(c.record(&p, 40, sel(&[WINDOW as u32 + 1]), 0).is_none());
        assert!(c.record(&p, 40, phi(0, WINDOW as u32 + 5), 0).is_none());
        assert!(c.templates.is_empty());
        // The same delta is fine when the key covers the whole path.
        let short = loopy_path(10);
        assert!(c.record(&short, 10, sel(&[9]), 0).is_some());
        // Boundary: delta == WINDOW is replayable from a suffix key.
        assert!(c.record(&p, 40, sel(&[WINDOW as u32]), 0).is_some());
    }

    #[test]
    fn absolute_slots_replay_at_any_depth() {
        let mut c = TemplateCache::new();
        let p = loopy_path(40);
        // A loop-invariant input (producer block occurs once, at prefix
        // length 1) is replayable from a suffix key no matter how deep.
        let record = SelectionRecord {
            phi_winner: None,
            inputs: vec![SelSlot::Delta(0), SelSlot::Absolute(1)],
            hoist_hit: false,
        };
        c.record(&p, 40, record, 0).expect("absolute slots replay");
        let longer = loopy_path(55); // 55 ≡ 40 (mod 3): same cyclic suffix
        let t = c.lookup(&longer, 55).expect("same suffix must hit");
        assert_eq!(t.selection.inputs[0].selected(55), 55);
        assert_eq!(t.selection.inputs[1].selected(55), 1, "run constant");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = TemplateCache::new();
        for i in 0..=CAPACITY {
            // Distinct single-block full-path keys.
            c.record(&[100 + i as BlockId], 1, sel(&[]), 0).unwrap();
        }
        assert_eq!(c.templates.len(), CAPACITY);
        assert!(
            c.lookup(&[100], 1).is_none(),
            "oldest template must have been evicted"
        );
        assert!(c.lookup(&[100 + CAPACITY as BlockId], 1).is_some());
    }

    #[test]
    fn send_fill_in_keeps_first_recording() {
        let mut c = TemplateCache::new();
        let p = loopy_path(40);
        let id = c.record(&p, 40, sel(&[1]), 2).unwrap();
        let first: Arc<[BlockId]> = vec![2, 3].into();
        c.fill_send(
            id,
            0,
            SendStatus::Recorded {
                slice: first.clone(),
                sent: true,
            },
        );
        // A concurrent in-flight bag resolving differently must not
        // overwrite the recorded slice.
        c.fill_send(
            id,
            0,
            SendStatus::Recorded {
                slice: vec![9].into(),
                sent: false,
            },
        );
        let t = c.templates.iter().find(|t| t.id == id).unwrap();
        match &t.sends[0] {
            SendStatus::Recorded { slice, sent } => {
                assert_eq!(&**slice, &*first);
                assert!(*sent);
            }
            other => panic!("expected first recording kept, got {other:?}"),
        }
        assert!(matches!(t.sends[1], SendStatus::Unrecorded));
        c.fill_send(id, 1, SendStatus::Poisoned);
        let t = c.templates.iter().find(|t| t.id == id).unwrap();
        assert!(matches!(t.sends[1], SendStatus::Poisoned));
    }

    #[test]
    fn hint_resolves_at_the_same_append_as_the_slow_path() {
        let mut h = SendHint {
            slice: vec![2, 3, 5].into(),
            sent: true,
            verified: 0,
        };
        let bag_len = 4;
        // Path too short: pending at the first unverified position.
        assert_eq!(
            h.advance(&[0, 1, 2, 3], false, bag_len),
            HintStep::Pending { cursor: 4 }
        );
        // Two of three blocks visible: still pending, prefix verified.
        assert_eq!(
            h.advance(&[0, 1, 2, 3, 2, 3], false, bag_len),
            HintStep::Pending { cursor: 6 }
        );
        assert_eq!(h.verified, 2);
        // The resolving block appears: verdict applies, cursor past it.
        assert_eq!(
            h.advance(&[0, 1, 2, 3, 2, 3, 5], false, bag_len),
            HintStep::Resolved {
                sent: true,
                next: 7
            }
        );
    }

    #[test]
    fn hint_diverging_or_exiting_falls_back() {
        let mut h = SendHint {
            slice: vec![2, 3, 5].into(),
            sent: true,
            verified: 0,
        };
        // The path diverges inside the slice: resume the slow scan at the
        // diverging position (earlier ones verified non-resolving).
        assert_eq!(
            h.advance(&[0, 1, 2, 3, 2, 9], false, 4),
            HintStep::Mismatch { cursor: 5 }
        );
        let mut h2 = SendHint {
            slice: vec![2, 3, 5].into(),
            sent: true,
            verified: 0,
        };
        // The program exits before the slice completes: the recorded
        // resolution can never happen.
        assert_eq!(
            h2.advance(&[0, 1, 2, 3, 2], true, 4),
            HintStep::Mismatch { cursor: 5 }
        );
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let mut c = TemplateCache::new();
        assert_eq!(c.hit_rate(), 0.0);
        let p = loopy_path(40);
        c.lookup(&p, 40); // miss
        c.record(&p, 40, sel(&[1]), 0).unwrap();
        for n in [43, 46, 49] {
            let q = loopy_path(n);
            assert!(c.lookup(&q, n as u32).is_some());
        }
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }
}
