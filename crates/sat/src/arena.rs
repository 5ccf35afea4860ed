//! Flat clause arena for clauses of three or more literals.
//!
//! Every clause is one contiguous record `[header, id, lit₀, lit₁, …]` in a
//! single `Vec<Lit>`, and a clause is referenced by the offset of its header
//! word. The header packs the literal count with the `learnt`, `exported`
//! and `deleted` flags, so a propagation visit reads one region of memory:
//! the flags, the length and the literals. The `id` word indexes the cold
//! per-clause metadata ([`ClauseMeta`]) the search rarely touches.
//!
//! Records sit in creation order and ids are their ordinal positions, so a
//! walk over the arena ([`ClauseArena::offsets`]) visits clauses in the same
//! order as their ids. Compaction ([`ClauseArena::begin_compaction`] /
//! [`ClauseArena::finish_compaction`]) keeps that order.
//!
//! Header and id words are stored as `Lit` values so that a clause's
//! literals are a plain slice of the arena; they are never read as literals.

use crate::Lit;

/// Words in front of each clause's literals: the header and the id.
pub(crate) const HEADER_WORDS: usize = 2;

const LEN_MASK: u32 = (1 << 29) - 1;
const LEARNT: u32 = 1 << 29;
const EXPORTED: u32 = 1 << 30;
const DELETED: u32 = 1 << 31;

/// Cold per-clause data, indexed by clause id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClauseMeta {
    /// Bump activity of a learned clause (database-reduction ranking).
    pub(crate) activity: f64,
    /// Literal block distance: number of distinct decision levels in the
    /// clause at learning time. Problem clauses carry 0; learned clauses with
    /// `lbd <= 2` ("glue" clauses) are never deleted by database reduction.
    pub(crate) lbd: u32,
    /// Cross-query sharing ceiling: the highest frame tag over every axiom
    /// used in this clause's derivation, or `SHARE_NONE` when the derivation
    /// used any clause outside the shareable fragment (scenario constraints,
    /// obligations, probing, vivification).
    pub(crate) share: u32,
}

impl ClauseMeta {
    /// Metadata of a fresh clause (zero activity).
    pub(crate) fn new(lbd: u32, share: u32) -> Self {
        Self {
            activity: 0.0,
            lbd,
            share,
        }
    }
}

/// The header word of one clause record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header(u32);

impl Header {
    #[inline]
    pub(crate) fn len(self) -> usize {
        (self.0 & LEN_MASK) as usize
    }

    #[inline]
    pub(crate) fn is_deleted(self) -> bool {
        self.0 & DELETED != 0
    }

    #[inline]
    pub(crate) fn is_learnt(self) -> bool {
        self.0 & LEARNT != 0
    }

    /// Whether the clause has already been handed to the shared pool (so one
    /// clause is exported at most once per solver).
    #[inline]
    pub(crate) fn is_exported(self) -> bool {
        self.0 & EXPORTED != 0
    }
}

/// The clause arena (see the module documentation for the record layout).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseArena {
    words: Vec<Lit>,
}

impl ClauseArena {
    /// Appends a clause record and returns its offset.
    pub(crate) fn push(&mut self, lits: &[Lit], id: u32, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 3 && lits.len() <= LEN_MASK as usize);
        let cref = u32::try_from(self.words.len()).expect("clause arena exceeds u32 offsets");
        let flags = if learnt { LEARNT } else { 0 };
        self.words.push(Lit(lits.len() as u32 | flags));
        self.words.push(Lit(id));
        self.words.extend_from_slice(lits);
        cref
    }

    #[inline]
    pub(crate) fn header(&self, cref: u32) -> Header {
        Header(self.words[cref as usize].0)
    }

    /// The id of the clause at `cref` (its index into the metadata).
    #[inline]
    pub(crate) fn id(&self, cref: u32) -> usize {
        self.words[cref as usize + 1].0 as usize
    }

    #[inline]
    pub(crate) fn lits(&self, cref: u32) -> &[Lit] {
        let start = cref as usize + HEADER_WORDS;
        &self.words[start..start + self.header(cref).len()]
    }

    /// The literals of the clause at `cref`, whose header says `len`.
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: u32, len: usize) -> &mut [Lit] {
        let start = cref as usize + HEADER_WORDS;
        &mut self.words[start..start + len]
    }

    pub(crate) fn set_deleted(&mut self, cref: u32) {
        self.words[cref as usize].0 |= DELETED;
    }

    pub(crate) fn set_exported(&mut self, cref: u32) {
        self.words[cref as usize].0 |= EXPORTED;
    }

    /// Offsets of every clause record (tombstones included), in id order.
    pub(crate) fn offsets(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cref = 0usize;
        std::iter::from_fn(move || {
            if cref >= self.words.len() {
                return None;
            }
            let here = cref as u32;
            cref += HEADER_WORDS + Header(self.words[cref].0).len();
            Some(here)
        })
    }

    /// Total words in use (headers, ids and literals, tombstones included).
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }

    /// First step of an in-place compaction that drops every tombstone.
    ///
    /// Moves the metadata of each live clause to its new id (ids stay
    /// ordinal, so live clauses keep their order) and stores each live
    /// record's new offset in its id word. Until
    /// [`ClauseArena::finish_compaction`] runs, the arena answers only
    /// [`ClauseArena::forwarded`]: callers remap every held offset in
    /// between.
    pub(crate) fn begin_compaction(&mut self, metas: &mut Vec<ClauseMeta>) {
        let mut live = 0usize;
        let mut next = 0usize;
        let mut cref = 0usize;
        while cref < self.words.len() {
            let header = Header(self.words[cref].0);
            if !header.is_deleted() {
                metas[live] = metas[self.words[cref + 1].0 as usize];
                self.words[cref + 1] = Lit(next as u32);
                live += 1;
                next += HEADER_WORDS + header.len();
            }
            cref += HEADER_WORDS + header.len();
        }
        metas.truncate(live);
    }

    /// The new offset of the clause that sat at `cref` before
    /// [`ClauseArena::begin_compaction`], or `None` for a tombstone.
    #[inline]
    pub(crate) fn forwarded(&self, cref: u32) -> Option<u32> {
        if self.header(cref).is_deleted() {
            None
        } else {
            Some(self.words[cref as usize + 1].0)
        }
    }

    /// Second step of the compaction: slides every live record down to its
    /// forwarded offset and restores the ordinal ids.
    pub(crate) fn finish_compaction(&mut self) {
        let mut live = 0u32;
        let mut cref = 0usize;
        let mut next = 0usize;
        while cref < self.words.len() {
            // Records only move down, and each lands before the next one's
            // old position, so this header is still intact.
            let header = Header(self.words[cref].0);
            let size = HEADER_WORDS + header.len();
            if !header.is_deleted() {
                debug_assert_eq!(self.words[cref + 1].0 as usize, next);
                self.words.copy_within(cref..cref + size, next);
                self.words[next + 1] = Lit(live);
                live += 1;
                next += size;
            }
            cref += size;
        }
        self.words.truncate(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn clause(vars: &[usize]) -> Vec<Lit> {
        vars.iter()
            .map(|&v| Var::from_index(v).positive())
            .collect()
    }

    #[test]
    fn records_walk_in_id_order_and_compact_in_place() {
        let mut arena = ClauseArena::default();
        let mut metas = Vec::new();
        let mut crefs = Vec::new();
        for (id, len) in [3usize, 5, 4, 3].into_iter().enumerate() {
            let lits: Vec<usize> = (id * 10..id * 10 + len).collect();
            crefs.push(arena.push(&clause(&lits), id as u32, id % 2 == 1));
            metas.push(ClauseMeta::new(id as u32, 0));
        }
        assert_eq!(arena.offsets().collect::<Vec<_>>(), crefs);
        assert_eq!(arena.lits(crefs[1]), &clause(&[10, 11, 12, 13, 14])[..]);
        assert!(arena.header(crefs[1]).is_learnt());
        assert!(!arena.header(crefs[2]).is_learnt());

        arena.set_deleted(crefs[1]);
        arena.set_exported(crefs[3]);
        arena.begin_compaction(&mut metas);
        assert_eq!(arena.forwarded(crefs[0]), Some(0));
        assert_eq!(arena.forwarded(crefs[1]), None);
        assert_eq!(arena.forwarded(crefs[2]), Some(5));
        assert_eq!(arena.forwarded(crefs[3]), Some(11));
        arena.finish_compaction();

        assert_eq!(arena.num_words(), 3 * HEADER_WORDS + 3 + 4 + 3);
        assert_eq!(arena.offsets().collect::<Vec<_>>(), vec![0, 5, 11]);
        assert_eq!(
            arena.offsets().map(|c| arena.id(c)).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            metas.iter().map(|m| m.lbd).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert_eq!(arena.lits(5), &clause(&[20, 21, 22, 23])[..]);
        assert!(arena.header(11).is_exported());
    }
}
