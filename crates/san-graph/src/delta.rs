//! Incremental delta-freeze: patch an earlier [`CsrSan`] with the events
//! since, instead of replaying the whole timeline.
//!
//! [`SanTimeline::snapshot_csr`](crate::evolve::SanTimeline::snapshot_csr)
//! replays the event log from day 0 and re-freezes from scratch, so a full
//! sweep over all days costs O(days × E) replay work plus one O(E log d)
//! sort-freeze per day — quadratic in practice. [`DeltaFreezer`] keeps the
//! current frozen snapshot and *patches* it. A patch with `k` new events
//! costs one `sort_unstable` + `dedup` of the additions per CSR and one
//! merge pass over the flat arrays that bulk-copies every run of
//! untouched rows and drops additions a row already holds; no hash set
//! is probed. An event-free patch costs nothing. Rows are never
//! re-sorted, so the product is field-for-field identical to a
//! from-scratch freeze (the `delta_equivalence` property suite pins this
//! down). A patch may span many days: the snapshot stream patches once
//! per *yielded* day.
//!
//! Prefer the timeline conveniences
//! [`SanTimeline::snapshot_stream`](crate::evolve::SanTimeline::snapshot_stream)
//! and
//! [`SanTimeline::for_each_snapshot`](crate::evolve::SanTimeline::for_each_snapshot)
//! over driving a `DeltaFreezer` by hand.

use crate::csr::CsrSan;
use crate::evolve::SanEvent;
use crate::ids::{AttrId, AttrType, SocialId};
use std::sync::Arc;

/// Builds the frozen snapshot of every day by patching the previous
/// snapshot with the events since.
///
/// Feed it one day at a time through [`DeltaFreezer::apply_day`]; read the
/// current frozen state with [`DeltaFreezer::current`] or take a shared
/// handle with [`DeltaFreezer::snapshot`].
///
/// The current day lives behind an [`Arc`], so handing a snapshot to
/// consumers (worker threads, sharded views) is **allocation-free** — one
/// atomic increment, no flat-array clone. As long as no handed-out `Arc`
/// outlives the next [`apply_day`](DeltaFreezer::apply_day) (the
/// sequential-sweep case), the freezer reclaims the buffers and steady
/// state allocates nothing; when a consumer still holds the day (the
/// parallel hand-off case), the next patch simply builds into fresh
/// buffers instead — paying the old clone cost only when sharing actually
/// happens.
///
/// Event semantics mirror replay through [`San`](crate::San) exactly:
/// self-loops and duplicate links (within the day or against earlier days)
/// are ignored, and links to unknown endpoints panic.
#[derive(Debug, Clone, Default)]
pub struct DeltaFreezer {
    cur: Arc<CsrSan>,
    scratch: CsrSan,
    // Per-patch scratch state, cleared on every patch.
    adds: Additions,
    days_applied: u64,
    snapshots_taken: u64,
    #[cfg(test)]
    patches: u64,
}

impl Default for CsrSan {
    /// The frozen form of an empty SAN (what `San::new().freeze()` yields).
    fn default() -> CsrSan {
        CsrSan {
            out_off: vec![0],
            out_dst: Vec::new(),
            in_off: vec![0],
            in_src: Vec::new(),
            ua_off: vec![0],
            ua_attr: Vec::new(),
            am_off: vec![0],
            am_user: Vec::new(),
            und_off: vec![0],
            und_nbr: Vec::new(),
            attr_types: Vec::new(),
            num_social_links: 0,
            num_attr_links: 0,
        }
    }
}

/// What one patch adds to a snapshot: per CSR, the `(row, value)` pairs
/// sorted with no repeated pair, and the types of the new attribute nodes
/// in id order. The freezer builds one from events; a v2 delta day in
/// `store` carries one on disk, so live and persisted deltas patch
/// through the same merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Additions {
    pub(crate) out_add: Vec<(u32, SocialId)>,
    pub(crate) in_add: Vec<(u32, SocialId)>,
    pub(crate) ua_add: Vec<(u32, AttrId)>,
    pub(crate) am_add: Vec<(u32, SocialId)>,
    pub(crate) und_add: Vec<(u32, SocialId)>,
    pub(crate) attr_type_add: Vec<AttrType>,
}

impl Additions {
    /// Patches `base`, grown to `n` social and `m` attribute rows, into
    /// `into`, and returns how many additions each merge skipped because
    /// the base row already held them, in the order out, in, ua, am, und.
    /// The link counters are the lengths of the grown `out_dst` and
    /// `ua_attr`.
    pub(crate) fn patch_into(
        &self,
        base: &CsrSan,
        n: usize,
        m: usize,
        into: &mut CsrSan,
    ) -> [usize; 5] {
        macro_rules! patch {
            ($off:ident, $data:ident, $rows:expr, $adds:ident) => {
                patch_csr_into(
                    &base.$off,
                    &base.$data,
                    $rows,
                    &self.$adds,
                    &mut into.$off,
                    &mut into.$data,
                )
            };
        }
        let skipped = [
            patch!(out_off, out_dst, n, out_add),
            patch!(in_off, in_src, n, in_add),
            patch!(ua_off, ua_attr, n, ua_add),
            patch!(am_off, am_user, m, am_add),
            patch!(und_off, und_nbr, n, und_add),
        ];
        into.attr_types.clear();
        into.attr_types.reserve_exact(m);
        into.attr_types.extend_from_slice(&base.attr_types);
        into.attr_types.extend_from_slice(&self.attr_type_add);
        into.num_social_links = into.out_dst.len();
        into.num_attr_links = into.ua_attr.len();
        skipped
    }
}

/// Merges one CSR with sorted per-row additions into `(new_off, new_data)`
/// and returns how many additions it skipped because their row already
/// held the value.
///
/// `adds` must be sorted by `(row, value)` with no repeated pair; rows
/// past the end of `old_off` are new and start empty. Every run of rows
/// without additions is copied in bulk — one `extend_from_slice` of its
/// data and one shifted extend of its offsets — and only rows with
/// additions are merged value by value. Callers feeding it untrusted
/// add-lists must pre-validate sortedness, row bounds, and the `u32::MAX`
/// data-length cap — the asserts here are for trusted inputs.
fn patch_csr_into<T: Copy + Ord>(
    old_off: &[u32],
    old_data: &[T],
    new_rows: usize,
    adds: &[(u32, T)],
    new_off: &mut Vec<u32>,
    new_data: &mut Vec<T>,
) -> usize {
    assert!(
        old_data.len() + adds.len() <= u32::MAX as usize,
        "CSR offsets overflow u32 (more than 4.29e9 links)"
    );
    new_off.clear();
    new_data.clear();
    new_off.reserve(new_rows + 1);
    new_data.reserve(old_data.len() + adds.len());
    new_off.push(0u32);
    let old_rows = old_off.len() - 1;
    let mut skipped = 0usize;
    let (mut row, mut ai) = (0usize, 0usize);
    loop {
        // Rows `row..r` are untouched, `r` being the next row with
        // additions (or `new_rows` once all are merged). Copy the ones
        // the old CSR holds in bulk: their data, and their offsets
        // shifted by the additions kept so far (every old value before
        // them is already copied, so the shift is never negative). Rows
        // past the old end are empty.
        let r = adds.get(ai).map_or(new_rows, |&(r, _)| r as usize);
        debug_assert!(r <= new_rows, "addition for a row beyond new_rows");
        let held = row.min(old_rows)..r.min(old_rows);
        if !held.is_empty() {
            let (lo, hi) = (old_off[held.start], old_off[held.end]);
            let shift = new_data.len() as u32 - lo;
            new_data.extend_from_slice(&old_data[lo as usize..hi as usize]);
            new_off.extend(
                old_off[held.start + 1..=held.end]
                    .iter()
                    .map(|&o| o + shift),
            );
        }
        new_off.resize(
            new_off.len() + (r - row - held.len()),
            new_data.len() as u32,
        );
        if ai == adds.len() {
            return skipped;
        }
        let row_start = ai;
        while ai < adds.len() && adds[ai].0 as usize == r {
            ai += 1;
        }
        let old_row: &[T] = if r < old_rows {
            &old_data[old_off[r] as usize..old_off[r + 1] as usize]
        } else {
            &[]
        };
        let row_adds = &adds[row_start..ai];
        let (mut a, mut b) = (0usize, 0usize);
        while a < old_row.len() && b < row_adds.len() {
            let (old, add) = (old_row[a], row_adds[b].1);
            new_data.push(old.min(add));
            a += usize::from(old <= add);
            b += usize::from(add <= old);
            skipped += usize::from(old == add);
        }
        new_data.extend_from_slice(&old_row[a..]);
        new_data.extend(row_adds[b..].iter().map(|&(_, v)| v));
        new_off.push(new_data.len() as u32);
        row = r + 1;
    }
}

impl DeltaFreezer {
    /// A freezer at the state before day 0: the empty network.
    pub fn new() -> DeltaFreezer {
        DeltaFreezer::default()
    }

    /// Resumes from an existing frozen snapshot (e.g. one loaded from
    /// disk); subsequent [`apply_day`](DeltaFreezer::apply_day) calls patch
    /// forward from it.
    pub fn from_snapshot(csr: CsrSan) -> DeltaFreezer {
        DeltaFreezer::from_shared(Arc::new(csr))
    }

    /// Like [`from_snapshot`](DeltaFreezer::from_snapshot) but adopts an
    /// already-shared handle (what
    /// [`SnapshotVault::load_day`](crate::store::SnapshotVault::load_day)
    /// returns) without cloning the flat arrays.
    pub fn from_shared(csr: Arc<CsrSan>) -> DeltaFreezer {
        DeltaFreezer {
            cur: csr,
            ..DeltaFreezer::default()
        }
    }

    /// Warm-starts a freezer from the nearest vault day at or before
    /// `day`: returns the persisted day it loaded plus the freezer seeded
    /// with that snapshot, or `Ok(None)` when the vault holds nothing at
    /// or before `day` (the caller must replay from day 0). Subsequent
    /// [`apply_day`](DeltaFreezer::apply_day) calls patch forward from the
    /// loaded state, so a sweep over `[day, end]` costs only the events
    /// after the persisted day. Prefer the timeline-level
    /// [`SanTimeline::resume_from_vault`](crate::evolve::SanTimeline::resume_from_vault),
    /// which also slices the event log.
    pub fn resume_from_vault(
        vault: &crate::store::SnapshotVault,
        day: u32,
    ) -> Result<Option<(u32, DeltaFreezer)>, crate::store::StoreError> {
        match vault.nearest_at_or_before(day) {
            None => Ok(None),
            Some(persisted) => {
                let snap = vault.load_day(persisted)?;
                Ok(Some((persisted, DeltaFreezer::from_shared(snap))))
            }
        }
    }

    /// The frozen end-of-day state after everything applied so far.
    #[inline]
    pub fn current(&self) -> &CsrSan {
        &self.cur
    }

    /// A shared handle to the current frozen state — one atomic increment,
    /// no flat-array clone (the Arc-shared day hand-off).
    pub fn snapshot(&mut self) -> Arc<CsrSan> {
        self.snapshots_taken += 1;
        Arc::clone(&self.cur)
    }

    /// Days fed through [`apply_day`](DeltaFreezer::apply_day) so far.
    pub fn days_applied(&self) -> u64 {
        self.days_applied
    }

    /// Shared snapshots handed out by [`snapshot`](DeltaFreezer::snapshot) —
    /// the "how many hand-offs did this sweep actually pay for" counter the
    /// regression tests assert on.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Merges performed so far: one per non-empty patch, however many
    /// days it covered.
    #[cfg(test)]
    pub(crate) fn patches(&self) -> u64 {
        self.patches
    }

    /// Applies one day's events (all of them, in log order) to the current
    /// snapshot. Days with no events are free. A slice spanning several
    /// consecutive days reaches the same snapshot as feeding the days one
    /// at a time, in one patch (it still counts as one applied day).
    ///
    /// # Panics
    /// Panics when an event references a node that does not exist yet, the
    /// same contract as replaying through [`San`](crate::San).
    pub fn apply_day(&mut self, events: &[SanEvent]) {
        self.apply_days(events, 1);
    }

    /// Applies the events of `days` consecutive days (concatenated in log
    /// order) as one patch: one sort and one merge per CSR, whatever the
    /// number of days. The result is the snapshot that applying the days
    /// one at a time would reach.
    ///
    /// # Panics
    /// Panics when an event references a node that does not exist yet at
    /// its position in the log.
    pub(crate) fn apply_days(&mut self, events: &[SanEvent], days: u64) {
        self.days_applied += days;
        if events.is_empty() {
            return;
        }
        #[cfg(test)]
        {
            self.patches += 1;
        }
        let mut n = self.cur.num_social_rows();
        let mut m = self.cur.attr_types.len();
        let adds = &mut self.adds;
        adds.out_add.clear();
        adds.in_add.clear();
        adds.ua_add.clear();
        adds.am_add.clear();
        adds.und_add.clear();
        adds.attr_type_add.clear();
        for ev in events {
            match *ev {
                SanEvent::SocialNode { .. } => n += 1,
                SanEvent::AttrNode { ty, .. } => {
                    adds.attr_type_add.push(ty);
                    m += 1;
                }
                SanEvent::SocialLink { src, dst, .. } => {
                    assert!(src.index() < n, "unknown source {src}");
                    assert!(dst.index() < n, "unknown destination {dst}");
                    if src == dst {
                        continue;
                    }
                    // A link that already exists already has both und
                    // pairs, so all four pairs are pushed unconditionally
                    // and repeats fall out in dedup or the merge.
                    adds.out_add.push((src.0, dst));
                    adds.in_add.push((dst.0, src));
                    adds.und_add.push((src.0, dst));
                    adds.und_add.push((dst.0, src));
                }
                SanEvent::AttrLink { user, attr, .. } => {
                    assert!(user.index() < n, "unknown user {user}");
                    assert!(attr.index() < m, "unknown attr {attr}");
                    adds.ua_add.push((user.0, attr));
                    adds.am_add.push((attr.0, user));
                }
            }
        }
        adds.out_add.sort_unstable();
        adds.out_add.dedup();
        adds.in_add.sort_unstable();
        adds.in_add.dedup();
        adds.ua_add.sort_unstable();
        adds.ua_add.dedup();
        adds.am_add.sort_unstable();
        adds.am_add.dedup();
        adds.und_add.sort_unstable();
        adds.und_add.dedup();
        adds.patch_into(&self.cur, n, m, &mut self.scratch);
        // Publish the new day. If nobody kept yesterday's Arc, reclaim its
        // buffers as the next scratch (steady state: zero allocations, the
        // old double-buffer behaviour); if a consumer still holds it, fall
        // back to a fresh scratch — the only case that ever pays a new
        // allocation, and exactly the case the old clone-per-day always
        // paid for.
        let next = Arc::new(std::mem::take(&mut self.scratch));
        let prev = std::mem::replace(&mut self.cur, next);
        self.scratch = Arc::try_unwrap(prev).unwrap_or_default();
    }
}

impl CsrSan {
    /// Social-node row count straight off the offset table (avoids the
    /// trait import in crate-internal code).
    #[inline]
    pub(crate) fn num_social_rows(&self) -> usize {
        self.out_off.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::TimelineBuilder;
    use crate::read::SanRead;
    use crate::san::San;

    /// The row-by-row merge the bulk-copy kernel replaced: the oracle the
    /// kernel is checked against. `adds` must hold no value already in
    /// its row.
    fn patch_csr_rowwise<T: Copy + Ord>(
        old_off: &[u32],
        old_data: &[T],
        new_rows: usize,
        adds: &[(u32, T)],
    ) -> (Vec<u32>, Vec<T>) {
        let mut new_off = vec![0u32];
        let mut new_data = Vec::new();
        let old_rows = old_off.len() - 1;
        let mut ai = 0usize;
        for i in 0..new_rows {
            let old_row: &[T] = if i < old_rows {
                &old_data[old_off[i] as usize..old_off[i + 1] as usize]
            } else {
                &[]
            };
            let row_start = ai;
            while ai < adds.len() && adds[ai].0 as usize == i {
                ai += 1;
            }
            let row_adds = &adds[row_start..ai];
            let (mut a, mut b) = (0usize, 0usize);
            while a < old_row.len() && b < row_adds.len() {
                if old_row[a] <= row_adds[b].1 {
                    new_data.push(old_row[a]);
                    a += 1;
                } else {
                    new_data.push(row_adds[b].1);
                    b += 1;
                }
            }
            new_data.extend_from_slice(&old_row[a..]);
            new_data.extend(row_adds[b..].iter().map(|&(_, v)| v));
            new_off.push(new_data.len() as u32);
        }
        assert_eq!(ai, adds.len(), "addition for a row beyond new_rows");
        (new_off, new_data)
    }

    /// Runs the kernel into dirty buffers (it must clear them) and checks
    /// it against the oracle fed the adds minus those already in their
    /// row, which the kernel must count as skipped.
    fn check_kernel(old_off: &[u32], old_data: &[u32], new_rows: usize, adds: &[(u32, u32)]) {
        let old_rows = old_off.len() - 1;
        let is_old = |&(r, v): &(u32, u32)| {
            let r = r as usize;
            r < old_rows && old_data[old_off[r] as usize..old_off[r + 1] as usize].contains(&v)
        };
        let fresh: Vec<(u32, u32)> = adds.iter().copied().filter(|a| !is_old(a)).collect();
        let (mut off, mut data) = (vec![7u32; 3], vec![9u32; 5]);
        let skipped = patch_csr_into(old_off, old_data, new_rows, adds, &mut off, &mut data);
        let (want_off, want_data) = patch_csr_rowwise(old_off, old_data, new_rows, &fresh);
        assert_eq!((off, data), (want_off, want_data), "adds {adds:?}");
        assert_eq!(skipped, adds.len() - fresh.len(), "adds {adds:?}");
    }

    // Four rows: [1, 3], [], [0, 2, 5], [4].
    const OFF: [u32; 5] = [0, 2, 2, 5, 6];
    const DATA: [u32; 6] = [1, 3, 0, 2, 5, 4];

    #[test]
    fn kernel_matches_rowwise_oracle_at_the_edges() {
        check_kernel(&OFF, &DATA, 4, &[(0, 0), (0, 2), (0, 9)]);
        check_kernel(&OFF, &DATA, 4, &[(3, 0), (3, 7)]);
        check_kernel(&OFF, &DATA, 7, &[(4, 1), (6, 0), (6, 3)]);
        check_kernel(&OFF, &DATA, 7, &[(0, 4), (3, 5), (5, 2)]);
        check_kernel(&[0], &[], 3, &[(1, 2)]);
        check_kernel(&[0], &[], 0, &[]);
    }

    #[test]
    fn kernel_without_adds_copies_and_extends() {
        check_kernel(&OFF, &DATA, 4, &[]);
        check_kernel(&OFF, &DATA, 6, &[]);
    }

    #[test]
    fn kernel_with_every_row_touched() {
        check_kernel(&OFF, &DATA, 4, &[(0, 2), (1, 0), (2, 1), (2, 6), (3, 3)]);
        check_kernel(&OFF, &DATA, 5, &[(0, 0), (1, 1), (2, 3), (3, 5), (4, 4)]);
    }

    #[test]
    fn kernel_keeps_duplicate_adds_once_and_counts_them() {
        check_kernel(&OFF, &DATA, 4, &[(0, 1), (0, 3)]);
        check_kernel(
            &OFF,
            &DATA,
            5,
            &[(0, 1), (1, 1), (2, 2), (2, 4), (3, 4), (4, 0)],
        );
        let (mut off, mut data) = (Vec::new(), Vec::new());
        assert_eq!(
            patch_csr_into(&OFF, &DATA, 4, &[(2, 0), (2, 5)], &mut off, &mut data),
            2
        );
        assert_eq!((off, data), (OFF.to_vec(), DATA.to_vec()));
    }

    #[test]
    fn kernel_matches_rowwise_oracle_on_generated_inputs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        for _ in 0..500 {
            let old_rows = next(8) as usize;
            let new_rows = old_rows + next(4) as usize;
            let mut old_off = vec![0u32];
            let mut old_data = Vec::new();
            for _ in 0..old_rows {
                let mut row: Vec<u32> = (0..next(5)).map(|_| next(10) as u32).collect();
                row.sort_unstable();
                row.dedup();
                old_data.extend(row);
                old_off.push(old_data.len() as u32);
            }
            let mut adds: Vec<(u32, u32)> = if new_rows == 0 {
                Vec::new()
            } else {
                (0..next(12))
                    .map(|_| (next(new_rows as u64) as u32, next(10) as u32))
                    .collect()
            };
            adds.sort_unstable();
            adds.dedup();
            check_kernel(&old_off, &old_data, new_rows, &adds);
        }
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn endpoint_born_later_in_a_batch_still_panics() {
        // The link precedes its destination's arrival in the log, although
        // the node exists by the end of the batch.
        let mut fz = DeltaFreezer::new();
        fz.apply_days(
            &[
                SanEvent::SocialNode { day: 0 },
                SanEvent::SocialLink {
                    day: 0,
                    src: SocialId(0),
                    dst: SocialId(1),
                },
                SanEvent::SocialNode { day: 1 },
            ],
            2,
        );
    }

    #[test]
    fn default_matches_empty_freeze() {
        assert_eq!(CsrSan::default(), San::new().freeze());
        assert_eq!(DeltaFreezer::new().current(), &San::new().freeze());
    }

    #[test]
    fn patches_match_replay_on_small_timeline() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        tb.add_social_link(u0, u1);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u2, u0);
        tb.add_social_link(u1, u0); // makes u0<->u1 reciprocal
        tb.add_attr_link(u2, a0);
        tb.advance_to_day(4);
        tb.add_social_link(u1, u2);
        let (tl, _) = tb.finish();
        let mut fz = DeltaFreezer::new();
        let events = tl.events();
        let mut idx = 0;
        for day in 0..=tl.max_day().unwrap() {
            let start = idx;
            while idx < events.len() && events[idx].day() == day {
                idx += 1;
            }
            fz.apply_day(&events[start..idx]);
            assert_eq!(fz.current(), &tl.snapshot_csr(day), "day {day}");
        }
        assert_eq!(fz.days_applied(), 5);
    }

    #[test]
    fn duplicate_and_self_loop_events_ignored_like_replay() {
        // Hand-built log a TimelineBuilder would never record: duplicate
        // links (same day and across days) and a self-loop.
        let events = vec![
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(1),
            },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(1),
            },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(1),
                dst: SocialId(1),
            },
            SanEvent::AttrNode {
                day: 1,
                ty: AttrType::School,
            },
            SanEvent::AttrLink {
                day: 1,
                user: SocialId(0),
                attr: AttrId(0),
            },
            SanEvent::AttrLink {
                day: 1,
                user: SocialId(0),
                attr: AttrId(0),
            },
            SanEvent::SocialLink {
                day: 2,
                src: SocialId(0),
                dst: SocialId(1),
            },
        ];
        let tl = crate::evolve::SanTimeline::from_events(events);
        let mut fz = DeltaFreezer::new();
        let evs = tl.events();
        let mut idx = 0;
        for day in 0..=2 {
            let start = idx;
            while idx < evs.len() && evs[idx].day() == day {
                idx += 1;
            }
            fz.apply_day(&evs[start..idx]);
            let expect = tl.snapshot_csr(day);
            assert_eq!(fz.current(), &expect, "day {day}");
        }
        assert_eq!(SanRead::num_social_links(fz.current()), 1);
        assert_eq!(SanRead::num_attr_links(fz.current()), 1);
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn unknown_endpoint_panics_like_replay() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(9),
            },
        ]);
    }

    #[test]
    fn empty_day_is_noop() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[SanEvent::SocialNode { day: 0 }]);
        let before = fz.current().clone();
        fz.apply_day(&[]);
        assert_eq!(fz.current(), &before);
        assert_eq!(fz.days_applied(), 2);
    }

    #[test]
    fn snapshot_counter_tracks_clones() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[SanEvent::SocialNode { day: 0 }]);
        assert_eq!(fz.snapshots_taken(), 0);
        let _a = fz.snapshot();
        let _b = fz.snapshot();
        assert_eq!(fz.snapshots_taken(), 2);
    }

    #[test]
    fn from_snapshot_resumes_mid_timeline() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u1, u2);
        let (tl, _) = tb.finish();
        let mid = tl.snapshot_csr(0);
        let mut fz = DeltaFreezer::from_snapshot(mid);
        let day1: Vec<SanEvent> = tl
            .events()
            .iter()
            .copied()
            .filter(|e| e.day() == 1)
            .collect();
        fz.apply_day(&day1);
        assert_eq!(fz.current(), &tl.snapshot_csr(1));
    }
}
