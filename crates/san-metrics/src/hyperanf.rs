//! HyperANF: approximate neighbourhood function and effective diameter
//! (§3.3), from scratch.
//!
//! Computing all-pairs distances is infeasible at Google+ scale, so the
//! paper uses the HyperANF algorithm of Boldi, Rosa & Vigna: every node
//! carries a **HyperLogLog** counter of the nodes it can reach within `t`
//! hops; one synchronous round of
//!
//! ```text
//! c_u(t+1) = c_u(t) ∪ ⋃_{u→v} c_v(t)
//! ```
//!
//! advances the horizon by one hop, and the estimated neighbourhood
//! function `N(t) = Σ_u |c_u(t)|` counts ordered pairs within distance `t`.
//! The **effective diameter** is the interpolated 90th-percentile distance
//! among connected pairs.
//!
//! The paper's **attribute distance** (§4.1) between attribute nodes `a, b`
//! is `min{dist(u,v) | u ∈ Γs(a), v ∈ Γs(b)} + 1`. We compute it on a
//! *lifted* graph (attribute nodes wired to their members in both
//! directions): lifted distances equal attribute distances plus one, so the
//! attribute diameter falls out of the same machinery.
//!
//! # Kernel
//!
//! * **Flat registers.** The `2^b` registers of node `u` are bytes
//!   `u·2^b .. (u+1)·2^b` of one `Vec<u8>`. Two such buffers hold rounds
//!   `t` and `t+1` and swap after each round; nothing is allocated per
//!   node or per round. A union is a per-register `max` over 16-byte
//!   blocks, and a node changed iff its new registers differ from the old.
//! * **Cached estimates.** `|c_u(t)|` is kept per node and recomputed (via
//!   a `2^-r` table) only when `u`'s counter changed. `N(t)` is still
//!   summed over every counted node in node order.
//! * **Modified-node rounds** (Boldi–Rosa–Vigna). Round `t+1` recomputes
//!   `u` only if a successor changed in round `t`; the others keep their
//!   registers. This is exact: `c_u(t) ⊇ c_v(t−1)` for every successor
//!   `v` (by the round's definition when `u` was recomputed, and by
//!   induction when it was skipped), so if no `c_v(t)` differs from
//!   `c_v(t−1)`, then `c_u(t+1) = c_u(t)`. Changed nodes mark their
//!   predecessors (`Γs,in`, or a reverse index built once for a plain
//!   adjacency list).
//!
//! The registers of every round, hence every estimate and the float series
//! `N(0), N(1), …`, are **bit-identical** to the textbook per-node
//! HyperLogLog union over every node in every round (kept as the test
//! oracle), and to [`neighborhood_function_sharded`] for any shard count.
//! Memory: `2·n·2^b` register bytes plus `8n` bytes of cached estimates,
//! plus one-byte dirty/changed/init/count flags per node (a plain
//! adjacency list adds its `4(n+1) + 4m`-byte reverse index).

use san_graph::{SanRead, ShardedCsrSan, SocialId};
use san_stats::SplitRng;
use std::ops::Range;

/// Registers per union block: `b ≥ 4`, so a counter is whole blocks.
const BLOCK: usize = 16;

/// `2^-r` for every register value `r`, as a bare exponent field (exact,
/// and equal to `2f64.powi(-r)`).
const POW2_NEG: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut r = 0;
    while r < 256 {
        table[r] = f64::from_bits((1023 - r as u64) << 52);
        r += 1;
    }
    table
};

/// A HyperLogLog cardinality counter with `2^b` registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    b: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty counter; `b` must be in `4..=16`.
    pub fn new(b: u8) -> Self {
        check_b(b);
        HyperLogLog {
            b,
            registers: vec![0; 1 << b],
        }
    }

    /// Inserts a pre-hashed 64-bit value.
    pub fn insert_hash(&mut self, hash: u64) {
        insert(&mut self.registers, self.b, hash);
    }

    /// Unions another counter into this one; returns `true` when any
    /// register changed (HyperANF's convergence signal).
    pub fn union_with(&mut self, other: &HyperLogLog) -> bool {
        debug_assert_eq!(self.b, other.b, "incompatible register widths");
        let mut changed = false;
        for (r, &o) in self.registers.iter_mut().zip(&other.registers) {
            if o > *r {
                *r = o;
                changed = true;
            }
        }
        changed
    }

    /// Estimated cardinality (with the standard small-range linear-counting
    /// correction).
    pub fn estimate(&self) -> f64 {
        estimate(&self.registers)
    }
}

fn check_b(b: u8) {
    assert!(
        (4..=16).contains(&b),
        "register exponent b={b} out of range"
    );
}

/// Inserts a pre-hashed value into the `2^b` registers `regs`.
fn insert(regs: &mut [u8], b: u8, hash: u64) {
    let idx = (hash >> (64 - b)) as usize;
    let rest = hash << b;
    // Rank = position of the leftmost 1 bit in the remaining bits, 1-based.
    let rank = (rest.leading_zeros() as u8).min(64 - b) + 1;
    if rank > regs[idx] {
        regs[idx] = rank;
    }
}

/// Cardinality estimate of one counter's registers.
fn estimate(regs: &[u8]) -> f64 {
    let m = regs.len() as f64;
    let alpha = match regs.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let sum: f64 = regs.iter().map(|&r| POW2_NEG[usize::from(r)]).sum();
    let raw = alpha * m * m / sum;
    if raw <= 2.5 * m {
        let zeros = regs.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            return m * (m / zeros as f64).ln();
        }
    }
    raw
}

/// `dst = max(dst, src)` register by register, one 16-byte block at a time.
#[inline]
fn max_into(dst: &mut [u8], src: &[u8]) {
    let (dst, _) = dst.as_chunks_mut::<BLOCK>();
    let (src, _) = src.as_chunks::<BLOCK>();
    for (d, s) in dst.iter_mut().zip(src) {
        for (x, &y) in d.iter_mut().zip(s) {
            *x = (*x).max(y);
        }
    }
}

/// Stable 64-bit mix of a node id with a seed (SplitMix64 finaliser).
#[inline]
fn hash_node(id: u64, seed: u64) -> u64 {
    let mut z = id
        .wrapping_add(seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The directed graph a HyperANF run walks: successors feed the unions,
/// predecessors receive the modified-node marks.
trait Hops {
    fn num_nodes(&self) -> usize;
    fn for_each_succ(&self, u: usize, f: impl FnMut(usize));
    fn for_each_pred(&self, u: usize, f: impl FnMut(usize));
}

/// The social graph of a snapshot, read in place.
struct Social<'a, S>(&'a S);

impl<S: SanRead> Hops for Social<'_, S> {
    fn num_nodes(&self) -> usize {
        self.0.num_social_nodes()
    }

    fn for_each_succ(&self, u: usize, mut f: impl FnMut(usize)) {
        for v in self.0.out_neighbors(SocialId(u as u32)) {
            f(v.index());
        }
    }

    fn for_each_pred(&self, u: usize, mut f: impl FnMut(usize)) {
        for v in self.0.in_neighbors(SocialId(u as u32)) {
            f(v.index());
        }
    }
}

/// A plain successor list plus its reverse index (CSR), built once.
struct AdjList<'a> {
    adj: &'a [Vec<u32>],
    rev_off: Vec<usize>,
    rev: Vec<u32>,
}

impl<'a> AdjList<'a> {
    fn new(adj: &'a [Vec<u32>]) -> Self {
        let n = adj.len();
        let mut rev_off = vec![0usize; n + 1];
        for &v in adj.iter().flatten() {
            rev_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            rev_off[i + 1] += rev_off[i];
        }
        let mut cursor = rev_off.clone();
        let mut rev = vec![0u32; rev_off[n]];
        for (u, outs) in adj.iter().enumerate() {
            for &v in outs {
                rev[cursor[v as usize]] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        AdjList { adj, rev_off, rev }
    }
}

impl Hops for AdjList<'_> {
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    fn for_each_succ(&self, u: usize, mut f: impl FnMut(usize)) {
        for &v in &self.adj[u] {
            f(v as usize);
        }
    }

    fn for_each_pred(&self, u: usize, mut f: impl FnMut(usize)) {
        for &v in &self.rev[self.rev_off[u]..self.rev_off[u + 1]] {
            f(v as usize);
        }
    }
}

/// What every worker of one round reads: the graph, round `t`'s
/// registers, and which nodes round `t+1` must recompute.
struct Round<'a, G> {
    g: &'a G,
    /// Registers per counter (`2^b`).
    m: usize,
    cur: &'a [u8],
    dirty: &'a [bool],
    count: &'a [bool],
}

/// A worker's disjoint share of the per-node outputs of one round: the
/// nodes `first .. first + est.len()`.
struct Chunk<'a> {
    first: usize,
    /// The nodes' registers in round `t+1`.
    regs: &'a mut [u8],
    /// The nodes' cached estimates, refreshed when they change.
    est: &'a mut [f64],
    /// Whether each node's counter changed this round.
    changed: &'a mut [bool],
}

impl<'a> Chunk<'a> {
    /// Carves the whole-graph chunk into one chunk per contiguous node
    /// range (the ranges must tile `0..n`).
    fn split(self, ranges: &[Range<usize>], m: usize) -> Vec<Chunk<'a>> {
        let reg_ranges: Vec<Range<usize>> = ranges.iter().map(|r| r.start * m..r.end * m).collect();
        split_chunks(self.regs, &reg_ranges)
            .into_iter()
            .zip(split_chunks(self.est, ranges))
            .zip(split_chunks(self.changed, ranges))
            .zip(ranges)
            .map(|(((regs, est), changed), r)| Chunk {
                first: r.start,
                regs,
                est,
                changed,
            })
            .collect()
    }
}

/// One modified-node hop for the nodes of `chunk`; returns whether any of
/// their counters changed.
fn hop_chunk<G: Hops>(round: &Round<'_, G>, chunk: Chunk<'_>) -> bool {
    let m = round.m;
    let first = chunk.first;
    chunk
        .regs
        .copy_from_slice(&round.cur[first * m..(first + chunk.est.len()) * m]);
    let mut any = false;
    let nodes = chunk
        .regs
        .chunks_exact_mut(m)
        .zip(chunk.est.iter_mut())
        .zip(chunk.changed.iter_mut());
    for (u, ((regs, est), changed)) in (first..).zip(nodes) {
        *changed = false;
        if !round.dirty[u] {
            continue;
        }
        round
            .g
            .for_each_succ(u, |v| max_into(regs, &round.cur[v * m..(v + 1) * m]));
        if *regs != round.cur[u * m..(u + 1) * m] {
            *changed = true;
            any = true;
            if round.count[u] {
                *est = estimate(regs);
            }
        }
    }
    any
}

/// The HyperANF driver behind every public entry point: flat double
/// buffer, cached estimates, modified-node rounds. `hop` runs one round
/// over the whole-graph chunk — inline, or split across shard workers.
fn run_anf<G: Hops>(
    g: &G,
    init: &[bool],
    count: &[bool],
    b: u8,
    max_iters: usize,
    seed: u64,
    hop: impl Fn(&Round<'_, G>, Chunk<'_>) -> bool,
) -> Vec<f64> {
    let n = g.num_nodes();
    assert_eq!(init.len(), n);
    assert_eq!(count.len(), n);
    if n == 0 {
        return vec![0.0];
    }
    check_b(b);
    let m = 1usize << b;
    let mut cur = vec![0u8; n * m];
    for (u, regs) in cur.chunks_exact_mut(m).enumerate() {
        if init[u] {
            insert(regs, b, hash_node(u as u64, seed));
        }
    }
    let mut est: Vec<f64> = cur
        .chunks_exact(m)
        .zip(count)
        .map(|(regs, &keep)| if keep { estimate(regs) } else { 0.0 })
        .collect();
    let total = |est: &[f64]| -> f64 {
        est.iter()
            .zip(count)
            .filter(|(_, &keep)| keep)
            .map(|(&e, _)| e)
            .sum()
    };
    let mut series = vec![total(&est)];
    let mut next = vec![0u8; n * m];
    let mut dirty = vec![true; n];
    let mut changed = vec![false; n];
    for _ in 0..max_iters {
        let round = Round {
            g,
            m,
            cur: &cur,
            dirty: &dirty,
            count,
        };
        let whole = Chunk {
            first: 0,
            regs: &mut next,
            est: &mut est,
            changed: &mut changed,
        };
        let any_changed = hop(&round, whole);
        std::mem::swap(&mut cur, &mut next);
        if !any_changed {
            break;
        }
        dirty.fill(false);
        for u in (0..n).filter(|&u| changed[u]) {
            g.for_each_pred(u, |p| dirty[p] = true);
        }
        series.push(total(&est));
    }
    series
}

/// HyperANF over an arbitrary successor structure.
///
/// * `adj[u]` — successors of node `u`;
/// * `init[u]` — whether `u`'s counter starts containing `u` itself;
/// * `count[u]` — whether `u`'s counter contributes to `N(t)`.
///
/// Returns the series `N(0), N(1), …` until convergence (no counter
/// changes) or `max_iters` rounds.
pub fn neighborhood_function(
    adj: &[Vec<u32>],
    init: &[bool],
    count: &[bool],
    b: u8,
    max_iters: usize,
    seed: u64,
) -> Vec<f64> {
    run_anf(
        &AdjList::new(adj),
        init,
        count,
        b,
        max_iters,
        seed,
        hop_chunk,
    )
}

/// Carves `buf` into disjoint mutable chunks matching contiguous `ranges`
/// (which must cover `0..buf.len()` exactly — what
/// [`ShardedCsrSan::social_ranges`] yields), so scoped shard workers can
/// write their own node range without locks.
fn split_chunks<'a, T>(mut buf: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = buf.split_at_mut(r.len());
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "ranges must cover the buffer exactly");
    out
}

/// Shard-parallel HyperANF over the directed social graph.
///
/// Decomposition: every round hands each shard worker its own node
/// range's slice of the flat `t+1` register buffer, estimate cache and
/// changed flags, while round `t`'s registers are a shared read (`c_v(t)`
/// of an out-neighbour in another shard is just a load). The modified-node
/// marks are set between rounds. The register evolution is therefore
/// **bit-for-bit identical** to [`neighborhood_function`] over the same
/// adjacency, and since `N(t)` is summed sequentially in node order, so is
/// the reported series (and the interpolated diameter).
pub fn neighborhood_function_sharded(
    g: &ShardedCsrSan,
    b: u8,
    max_iters: usize,
    seed: u64,
) -> Vec<f64> {
    let ranges = g.social_ranges();
    let all = vec![true; g.csr().num_social_nodes()];
    run_anf(
        &Social(g.csr()),
        &all,
        &all,
        b,
        max_iters,
        seed,
        |round, whole| {
            let chunks: Vec<Chunk<'_>> = whole
                .split(&ranges, round.m)
                .into_iter()
                .filter(|c| !c.est.is_empty())
                .collect();
            // A single non-empty chunk (K = 1, or every other shard
            // empty) runs inline — no hand-off worth paying for.
            if chunks.len() <= 1 {
                return chunks
                    .into_iter()
                    .fold(false, |acc, c| hop_chunk(round, c) | acc);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|c| scope.spawn(move || hop_chunk(round, c)))
                    .collect();
                handles.into_iter().fold(false, |acc, h| {
                    acc | match h.join() {
                        Ok(v) => v,
                        // Forward the worker's panic payload unchanged.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                })
            })
        },
    )
}

/// Shard-parallel effective social diameter: [`neighborhood_function_sharded`]
/// plus the same interpolation as [`social_effective_diameter`] — identical
/// output, one snapshot saturating `K` cores.
pub fn social_effective_diameter_sharded(g: &ShardedCsrSan, q: f64, b: u8, seed: u64) -> f64 {
    let nf = neighborhood_function_sharded(g, b, 256, seed);
    effective_diameter_from_nf(&nf, q)
}

/// Interpolated effective diameter at quantile `q` from a neighbourhood
/// function series.
///
/// Self-pairs (`N(0)`) are excluded: the quantile ranges over ordered
/// connected pairs at distance ≥ 1, matching the paper's "distance between
/// every pair of connected nodes".
pub fn effective_diameter_from_nf(nf: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if nf.len() < 2 {
        return 0.0;
    }
    let base = nf[0];
    let total = nf[nf.len() - 1] - base;
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    for t in 1..nf.len() {
        let below = nf[t - 1] - base;
        let at = nf[t] - base;
        if at >= target {
            if at <= below {
                return t as f64;
            }
            // Linear interpolation within the step [t-1, t].
            return (t - 1) as f64 + (target - below) / (at - below);
        }
    }
    (nf.len() - 1) as f64
}

/// The social neighbourhood function of a snapshot, read in place.
fn social_nf(san: &impl SanRead, b: u8, max_iters: usize, seed: u64) -> Vec<f64> {
    let all = vec![true; san.num_social_nodes()];
    run_anf(&Social(san), &all, &all, b, max_iters, seed, hop_chunk)
}

/// The lifted graph of [`attribute_effective_diameter`]: social nodes
/// `0..n`, attribute node `a` at `n + a`, with `u → v` for social links
/// and `u → a`, `a → u` for every attribute link; the mask marks the
/// attribute nodes.
fn lifted_graph(san: &impl SanRead) -> (Vec<Vec<u32>>, Vec<bool>) {
    let n = san.num_social_nodes();
    let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n + san.num_attr_nodes());
    for u in san.social_nodes() {
        let mut outs: Vec<u32> = san.out_neighbors(u).iter().map(|v| v.0).collect();
        // u -> its attributes (so a path …→v→b terminates at b).
        outs.extend(san.attrs_of(u).iter().map(|a| n as u32 + a.0));
        adj.push(outs);
    }
    for a in san.attr_nodes() {
        // a -> its members (so a path a→u→… starts at a).
        adj.push(san.members_of(a).iter().map(|u| u.0).collect());
    }
    let mask = (0..adj.len()).map(|i| i >= n).collect();
    (adj, mask)
}

/// Effective social diameter (90th percentile by default in the paper).
///
/// `b` controls HyperLogLog accuracy (the paper's tool uses comparable
/// register budgets); `seed` fixes the hash salt.
pub fn social_effective_diameter(san: &impl SanRead, q: f64, b: u8, seed: u64) -> f64 {
    effective_diameter_from_nf(&social_nf(san, b, 256, seed), q)
}

/// Effective **attribute** diameter (§4.1): the 90th-percentile attribute
/// distance `min dist between members + 1`, computed on the lifted graph
/// and shifted back by one.
pub fn attribute_effective_diameter(san: &impl SanRead, q: f64, b: u8, seed: u64) -> f64 {
    if san.num_attr_nodes() == 0 {
        return 0.0;
    }
    let (adj, mask) = lifted_graph(san);
    let nf = neighborhood_function(&adj, &mask, &mask, b, 256, seed);
    // Lifted distances between distinct attribute nodes = attribute distance + 1.
    let lifted = effective_diameter_from_nf(&nf, q);
    (lifted - 1.0).max(0.0)
}

/// Exact distance distribution by multi-source directed BFS over `sources`
/// sampled uniformly (used to validate HyperANF and to report the paper's
/// "mode at distance six" histogram on small graphs).
///
/// Returns `hist[d] = number of (sampled source, target) pairs at distance
/// d ≥ 1`.
pub fn sampled_distance_histogram(
    san: &impl SanRead,
    num_sources: usize,
    rng: &mut SplitRng,
) -> Vec<u64> {
    let n = san.num_social_nodes();
    if n == 0 || num_sources == 0 {
        return Vec::new();
    }
    let mut hist: Vec<u64> = Vec::new();
    for _ in 0..num_sources.min(n) {
        let src = san_graph::SocialId(rng.below(n as u64) as u32);
        let dist = san_graph::traverse::bfs_directed(san, src);
        for d in dist.into_iter().flatten() {
            if d >= 1 {
                let d = d as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += 1;
            }
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{arb_san, google_plus_every_7th_day};
    use proptest::prelude::*;
    use san_graph::{San, SocialId};

    /// The textbook estimate, kept as the reference: `powi` per register.
    fn powi_estimate(c: &HyperLogLog) -> f64 {
        let m = c.registers.len() as f64;
        let alpha = match c.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = c.registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = c.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// The textbook kernel, kept as the reference: one boxed counter per
    /// node, cloned every round, every node unioned with every successor
    /// in every round, every counted node re-estimated in every round.
    fn nf_oracle(
        adj: &[Vec<u32>],
        init: &[bool],
        count: &[bool],
        b: u8,
        max_iters: usize,
        seed: u64,
    ) -> Vec<f64> {
        let n = adj.len();
        if n == 0 {
            return vec![0.0];
        }
        let mut counters: Vec<HyperLogLog> = (0..n)
            .map(|u| {
                let mut c = HyperLogLog::new(b);
                if init[u] {
                    c.insert_hash(hash_node(u as u64, seed));
                }
                c
            })
            .collect();
        let estimate_total = |cs: &[HyperLogLog]| -> f64 {
            cs.iter()
                .zip(count)
                .filter(|(_, &keep)| keep)
                .map(|(c, _)| powi_estimate(c))
                .sum()
        };
        let mut series = vec![estimate_total(&counters)];
        for _ in 0..max_iters {
            let mut next = counters.clone();
            let mut any_changed = false;
            for (u, outs) in adj.iter().enumerate() {
                for &v in outs {
                    if next[u].union_with(&counters[v as usize]) {
                        any_changed = true;
                    }
                }
            }
            counters = next;
            if !any_changed {
                break;
            }
            series.push(estimate_total(&counters));
        }
        series
    }

    fn bits(series: &[f64]) -> Vec<u64> {
        series.iter().map(|x| x.to_bits()).collect()
    }

    fn social_adj(san: &impl SanRead) -> Vec<Vec<u32>> {
        san.social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect()
    }

    /// Every flat-kernel entry point against the oracle, bit for bit.
    fn assert_kernels_match(san: &San, b: u8, max_iters: usize, seed: u64) {
        let csr = san.freeze();
        let adj = social_adj(san);
        let all = vec![true; adj.len()];
        let want = bits(&nf_oracle(&adj, &all, &all, b, max_iters, seed));
        let ctx = format!("b={b} max_iters={max_iters} seed={seed}");
        assert_eq!(
            bits(&neighborhood_function(&adj, &all, &all, b, max_iters, seed)),
            want,
            "adjacency {ctx}"
        );
        assert_eq!(bits(&social_nf(san, b, max_iters, seed)), want, "San {ctx}");
        assert_eq!(
            bits(&social_nf(&csr, b, max_iters, seed)),
            want,
            "CsrSan {ctx}"
        );
        for k in [1usize, 3] {
            let sharded = ShardedCsrSan::from_csr(csr.clone(), k);
            assert_eq!(
                bits(&neighborhood_function_sharded(&sharded, b, max_iters, seed)),
                want,
                "sharded k={k} {ctx}"
            );
        }
        let (lifted, mask) = lifted_graph(san);
        let want = bits(&nf_oracle(&lifted, &mask, &mask, b, max_iters, seed));
        assert_eq!(
            bits(&neighborhood_function(
                &lifted, &mask, &mask, b, max_iters, seed
            )),
            want,
            "lifted {ctx}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flat_kernel_matches_oracle(san in arb_san(30, 6), seed in any::<u64>()) {
            for b in [4u8, 6, 10] {
                for max_iters in [1usize, 2, 256] {
                    assert_kernels_match(&san, b, max_iters, seed);
                }
            }
        }

        /// Plain adjacency lists may repeat successors and hold self-loops;
        /// the masks are arbitrary.
        #[test]
        fn raw_adjacency_matches_oracle(
            n in 0usize..25,
            edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..80),
            masks in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let mut adj = vec![Vec::new(); n];
            if n > 0 {
                for (u, v) in edges {
                    adj[u as usize % n].push(v % n as u32);
                }
            }
            let init: Vec<bool> = (0..n).map(|i| masks >> i & 1 == 1).collect();
            let count: Vec<bool> = (0..n).map(|i| masks >> (i + 32) & 1 == 1).collect();
            for b in [4u8, 6, 10] {
                for max_iters in [1usize, 2, 256] {
                    prop_assert_eq!(
                        bits(&neighborhood_function(&adj, &init, &count, b, max_iters, seed)),
                        bits(&nf_oracle(&adj, &init, &count, b, max_iters, seed))
                    );
                }
            }
        }
    }

    #[test]
    fn pow2_table_is_powi() {
        for (r, &p) in POW2_NEG.iter().enumerate() {
            assert_eq!(p.to_bits(), 2f64.powi(-(r as i32)).to_bits(), "r={r}");
        }
    }

    /// The panel's diameter configuration (b = 4) on every 7th day of a
    /// small Google+ timeline, social and lifted graphs.
    #[test]
    fn google_plus_timeline_matches_oracle() {
        google_plus_every_7th_day(|day, csr| {
            let adj = social_adj(csr);
            let all = vec![true; adj.len()];
            let seed = u64::from(day);
            assert_eq!(
                bits(&social_nf(csr, 4, 256, seed)),
                bits(&nf_oracle(&adj, &all, &all, 4, 256, seed)),
                "social day {day}"
            );
            let (lifted, mask) = lifted_graph(csr);
            assert_eq!(
                bits(&neighborhood_function(&lifted, &mask, &mask, 4, 256, seed)),
                bits(&nf_oracle(&lifted, &mask, &mask, 4, 256, seed)),
                "lifted day {day}"
            );
        });
    }

    fn path_graph(n: usize) -> San {
        let mut san = San::new();
        let u: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        for i in 0..n - 1 {
            san.add_social_link(u[i], u[i + 1]);
        }
        san
    }

    #[test]
    fn hll_estimates_cardinalities() {
        for &n in &[100u64, 1_000, 50_000] {
            let mut hll = HyperLogLog::new(10);
            for i in 0..n {
                hll.insert_hash(hash_node(i, 7));
            }
            let est = hll.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.1, "n={n} est={est} rel={rel}");
        }
    }

    #[test]
    fn hll_duplicate_insertions_idempotent() {
        let mut a = HyperLogLog::new(8);
        for i in 0..100u64 {
            a.insert_hash(hash_node(i, 3));
        }
        let before = a.estimate();
        for i in 0..100u64 {
            a.insert_hash(hash_node(i, 3));
        }
        assert_eq!(a.estimate(), before);
    }

    #[test]
    fn hll_union_is_max() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for i in 0..500u64 {
            a.insert_hash(hash_node(i, 1));
        }
        for i in 250..750u64 {
            b.insert_hash(hash_node(i, 1));
        }
        assert!(a.union_with(&b));
        let est = a.estimate();
        assert!((est - 750.0).abs() / 750.0 < 0.15, "est={est}");
        // Second union is a no-op.
        assert!(!a.union_with(&b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hll_rejects_bad_b() {
        HyperLogLog::new(2);
    }

    #[test]
    fn nf_exact_on_small_path() {
        // Directed path of 4: pairs within t:
        // N(0)=4, N(1)=4+3, N(2)=4+3+2, N(3)=4+3+2+1.
        let san = path_graph(4);
        let adj = social_adj(&san);
        let init = vec![true; 4];
        let nf = neighborhood_function(&adj, &init, &init, 10, 64, 42);
        assert_eq!(nf.len(), 4);
        let expect = [4.0, 7.0, 9.0, 10.0];
        for (t, &e) in expect.iter().enumerate() {
            assert!(
                (nf[t] - e).abs() / e < 0.12,
                "t={t} nf={} expect={e}",
                nf[t]
            );
        }
    }

    #[test]
    fn effective_diameter_path() {
        // Undirected-style double path to have symmetric distances.
        let mut san = path_graph(11);
        let ids: Vec<SocialId> = san.social_nodes().collect();
        for i in 0..10 {
            san.add_social_link(ids[i + 1], ids[i]);
        }
        let d = social_effective_diameter(&san, 1.0, 10, 1);
        // Max distance is 10; q=1.0 should approach it.
        assert!((8.0..=10.5).contains(&d), "d={d}");
        let d90 = social_effective_diameter(&san, 0.9, 10, 1);
        assert!(d90 <= d, "d90={d90} d={d}");
        assert!(d90 >= 5.0, "d90={d90}");
    }

    #[test]
    fn effective_diameter_from_nf_interpolates() {
        // Hand-made NF: base 10 self-pairs, then 10 pairs at distance 1,
        // 10 more at distance 2.
        let nf = [10.0, 20.0, 30.0];
        assert!((effective_diameter_from_nf(&nf, 0.5) - 1.0).abs() < 1e-12);
        assert!((effective_diameter_from_nf(&nf, 0.75) - 1.5).abs() < 1e-12);
        assert!((effective_diameter_from_nf(&nf, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn effective_diameter_degenerate_inputs() {
        assert_eq!(effective_diameter_from_nf(&[5.0], 0.9), 0.0);
        assert_eq!(effective_diameter_from_nf(&[5.0, 5.0], 0.9), 0.0);
    }

    #[test]
    fn clique_diameter_is_one() {
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..6).map(|_| san.add_social_node()).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    san.add_social_link(a, b);
                }
            }
        }
        let d = social_effective_diameter(&san, 0.9, 10, 5);
        assert!((d - 1.0).abs() < 0.25, "d={d}");
    }

    #[test]
    fn attribute_diameter_two_attrs_shared_member() {
        // a and b share member u: attribute distance should be ~1
        // (min dist(u,u)=0, +1).
        let mut san = San::new();
        let u = san.add_social_node();
        let v = san.add_social_node();
        san.add_social_link(u, v);
        let a = san.add_attr_node(san_graph::AttrType::City);
        let b = san.add_attr_node(san_graph::AttrType::School);
        san.add_attr_link(u, a);
        san.add_attr_link(u, b);
        let d = attribute_effective_diameter(&san, 1.0, 10, 9);
        assert!((d - 1.0).abs() < 0.3, "d={d}");
    }

    #[test]
    fn attribute_diameter_follows_social_distance() {
        // Chain u0->u1->u2->u3; attr a on u0, attr b on u3:
        // attribute distance = dist(u0,u3)+1 = 4.
        let mut san = path_graph(4);
        let a = san.add_attr_node(san_graph::AttrType::City);
        let b = san.add_attr_node(san_graph::AttrType::School);
        san.add_attr_link(SocialId(0), a);
        san.add_attr_link(SocialId(3), b);
        let d = attribute_effective_diameter(&san, 1.0, 10, 11);
        assert!(d > 2.5 && d < 4.5, "d={d}");
    }

    #[test]
    fn attribute_diameter_no_attrs() {
        let san = path_graph(3);
        assert_eq!(attribute_effective_diameter(&san, 0.9, 8, 1), 0.0);
    }

    #[test]
    fn sharded_nf_and_diameter_bit_identical() {
        // A random-ish graph with reciprocal edges and a few components.
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..60).map(|_| san.add_social_node()).collect();
        for i in 0..59 {
            san.add_social_link(ids[i], ids[i + 1]);
            if i % 3 == 0 {
                san.add_social_link(ids[i + 1], ids[i]);
            }
            if i % 7 == 0 && i + 5 < 60 {
                san.add_social_link(ids[i], ids[i + 5]);
            }
        }
        let csr = san.freeze();
        let seq_d = social_effective_diameter(&csr, 0.9, 8, 42);
        let adj = social_adj(&csr);
        let init = vec![true; 60];
        let seq_nf = neighborhood_function(&adj, &init, &init, 8, 256, 42);
        for k in [1usize, 2, 3, 7] {
            let sharded = san_graph::ShardedCsrSan::from_csr(csr.clone(), k);
            let nf = neighborhood_function_sharded(&sharded, 8, 256, 42);
            assert_eq!(nf, seq_nf, "k={k}");
            let d = social_effective_diameter_sharded(&sharded, 0.9, 8, 42);
            assert_eq!(d, seq_d, "k={k}");
        }
    }

    #[test]
    fn sharded_nf_empty_graph() {
        let sharded = san_graph::ShardedCsrSan::from_csr(San::new().freeze(), 4);
        assert_eq!(neighborhood_function_sharded(&sharded, 8, 64, 1), vec![0.0]);
        assert_eq!(social_effective_diameter_sharded(&sharded, 0.9, 8, 1), 0.0);
    }

    #[test]
    fn sampled_histogram_matches_path() {
        let san = path_graph(5);
        let mut rng = SplitRng::new(13);
        // Sample all nodes (num_sources = n) -> exact directed histogram.
        let hist = sampled_distance_histogram(&san, 5, &mut rng);
        // Directed path of 5: distances 1:4, 2:3, 3:2, 4:1 (sampling with
        // replacement may repeat sources, so check support only).
        assert!(hist.len() <= 5);
        assert!(hist.iter().skip(1).any(|&c| c > 0));
    }

    #[test]
    fn nf_disconnected_pairs_never_counted() {
        // Two disconnected cliques of 3: N(inf) = 2 * (3 + 3*2) = 18.
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..6).map(|_| san.add_social_node()).collect();
        for group in [&ids[..3], &ids[3..]] {
            for &a in group {
                for &b in group {
                    if a != b {
                        san.add_social_link(a, b);
                    }
                }
            }
        }
        let adj = social_adj(&san);
        let init = vec![true; 6];
        let nf = neighborhood_function(&adj, &init, &init, 10, 64, 3);
        let last = *nf.last().unwrap();
        assert!((last - 18.0).abs() / 18.0 < 0.12, "last={last}");
    }
}
