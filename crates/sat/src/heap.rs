//! Indexed max-heap over variables for VSIDS branching.

use crate::Var;

/// One heap entry: a variable together with its activity, so sifting
/// compares keys stored next to each other instead of loading
/// `activity[v]` from a separate array for every comparison.
#[derive(Debug, Clone, Copy)]
struct Entry {
    activity: f64,
    var: Var,
}

impl Entry {
    /// Strict total order: higher activity first, ties broken towards the
    /// higher variable index. Activities are never NaN.
    #[inline]
    fn better(self, other: Entry) -> bool {
        self.activity > other.activity || (self.activity == other.activity && self.var > other.var)
    }
}

/// Index-tracked max-heap of `(activity, var)` entries.
///
/// Each variable appears at most once and its position is tracked, so an
/// activity bump is an in-place sift and `pop` never meets a stale
/// duplicate. The stored key of every entry equals the solver's
/// `activity[var]` bit for bit: the solver passes the new activity with
/// every [`VarHeap::update`] and rescales the keys with
/// [`VarHeap::rescale`] whenever it rescales the activities, so every
/// comparison gives the answer an activity-array lookup would.
///
/// Assigned variables are not removed eagerly: they stay in the heap until
/// `pop` returns them and the caller skips them, and backtracking
/// re-inserts unassigned variables.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarHeap {
    heap: Vec<Entry>,
    /// `position + 1` of each variable in `heap`; 0 when absent.
    index: Vec<u32>,
}

impl VarHeap {
    /// Registers a new variable (initially absent from the heap).
    pub(crate) fn add_var(&mut self) {
        self.index.push(0);
    }

    pub(crate) fn contains(&self, v: Var) -> bool {
        self.index[v.index()] != 0
    }

    /// Moves `entry` up from the hole at `pos` to its place.
    fn sift_up(&mut self, mut pos: usize, entry: Entry) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !entry.better(above) {
                break;
            }
            self.heap[pos] = above;
            self.index[above.var.index()] = (pos + 1) as u32;
            pos = parent;
        }
        self.heap[pos] = entry;
        self.index[entry.var.index()] = (pos + 1) as u32;
    }

    /// Moves `entry` down from the hole at `pos` to its place.
    fn sift_down(&mut self, mut pos: usize, entry: Entry) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut child = left;
            let mut best = self.heap[left];
            if !best.better(entry) {
                best = entry;
                child = pos;
            }
            if right < len && self.heap[right].better(best) {
                best = self.heap[right];
                child = right;
            }
            if child == pos {
                break;
            }
            self.heap[pos] = best;
            self.index[best.var.index()] = (pos + 1) as u32;
            pos = child;
        }
        self.heap[pos] = entry;
        self.index[entry.var.index()] = (pos + 1) as u32;
    }

    /// Inserts a variable with its current activity (no-op if present).
    pub(crate) fn insert(&mut self, var: Var, activity: f64) {
        if self.contains(var) {
            return;
        }
        let entry = Entry { activity, var };
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Records that `var`'s activity rose to `activity` (no-op if `var` is
    /// not in the heap — it is re-inserted with its current activity when it
    /// leaves the trail).
    pub(crate) fn update(&mut self, var: Var, activity: f64) {
        let idx = self.index[var.index()];
        if idx != 0 {
            self.sift_up((idx - 1) as usize, Entry { activity, var });
        }
    }

    /// Multiplies every stored key by `factor`, in step with the solver's
    /// activity rescaling.
    pub(crate) fn rescale(&mut self, factor: f64) {
        for e in &mut self.heap {
            e.activity *= factor;
        }
    }

    /// Removes and returns the most active variable.
    pub(crate) fn pop(&mut self) -> Option<Var> {
        let top = self.heap.first()?.var;
        self.index[top.index()] = 0;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::SplitMix64;

    /// Random insert/bump/pop sequences against a naive argmax over
    /// `(activity, index)`, bumping the way the solver does — including
    /// the `1e100` rescale of every activity and stored key.
    #[test]
    fn pops_match_a_naive_argmax() {
        let mut rescales = 0;
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 1 + rng.gen_u64_below(60) as usize;
            let mut heap = VarHeap::default();
            let mut activity = vec![0.0f64; n];
            let mut present = vec![false; n];
            for _ in 0..n {
                heap.add_var();
            }
            // Seeds divisible by 4 start close to the rescale threshold.
            let mut inc = if seed % 4 == 0 { 1e98 } else { 1.0 };
            for v in 0..n {
                heap.insert(Var::from_index(v), activity[v]);
                present[v] = true;
            }
            for _ in 0..2_000 {
                let v = rng.gen_u64_below(n as u64) as usize;
                match rng.gen_u64_below(4) {
                    0 | 1 => {
                        activity[v] += inc;
                        if activity[v] > 1e100 {
                            for a in &mut activity {
                                *a *= 1e-100;
                            }
                            heap.rescale(1e-100);
                            inc *= 1e-100;
                            rescales += 1;
                        }
                        heap.update(Var::from_index(v), activity[v]);
                        inc /= 0.95;
                    }
                    2 => {
                        heap.insert(Var::from_index(v), activity[v]);
                        present[v] = true;
                    }
                    _ => {
                        let expected = (0..n).filter(|&u| present[u]).max_by(|&a, &b| {
                            activity[a]
                                .partial_cmp(&activity[b])
                                .expect("activities are never NaN")
                                .then(a.cmp(&b))
                        });
                        let popped = heap.pop().map(Var::index);
                        assert_eq!(popped, expected, "seed {seed}");
                        if let Some(u) = popped {
                            present[u] = false;
                        }
                    }
                }
                for (u, &p) in present.iter().enumerate() {
                    assert_eq!(heap.contains(Var::from_index(u)), p);
                }
            }
        }
        assert!(
            rescales > 0,
            "the sequences must cross the rescale threshold"
        );
    }
}
