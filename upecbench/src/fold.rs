//! Self-time fold of an `obs` span tree.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children. Each span's self time is charged to a *layer*: the span's own
//! name when that name is one of the layer names, otherwise the layer of its
//! nearest ancestor (so `simplify.probe` under `sat.simplify` is charged to
//! `sat.simplify`). Spans with no layer on their ancestor chain are ignored.
//!
//! When children nest properly inside their parent, the self times of a
//! subtree sum exactly to the subtree root's duration. Children that overlap
//! or outlast their parent are reported as `overlap_ns` instead of being
//! charged twice.

use obs::{AttrValue, SpanRecord};
use std::collections::{BTreeMap, HashMap};

/// Self time charged to each layer, in nanoseconds.
pub type LayerTimes = BTreeMap<&'static str, u64>;

/// The fold of one query root's subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFold {
    /// Index of the root span in the folded slice.
    pub root: usize,
    /// Self time per layer inside the subtree (the root's own self time is
    /// charged to the root's layer).
    pub layers: LayerTimes,
    /// Child time in excess of a parent's duration inside the subtree.
    pub overlap_ns: u64,
}

impl QueryFold {
    /// Sum of every layer's self time: equals the root's duration when the
    /// subtree is well nested (and `overlap_ns` is zero).
    pub fn accounted_ns(&self) -> u64 {
        self.layers.values().sum()
    }
}

/// A span slice indexed for parent lookups.
pub struct Tree<'a> {
    spans: &'a [SpanRecord],
    index: HashMap<u64, usize>,
    child_ns: Vec<u64>,
}

impl<'a> Tree<'a> {
    /// Indexes `spans` (any order; parents missing from the slice are
    /// treated as absent).
    pub fn new(spans: &'a [SpanRecord]) -> Self {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(&p) = span.parent.and_then(|p| index.get(&p)) {
                child_ns[p] += span.duration_ns;
            }
        }
        Self {
            spans,
            index,
            child_ns,
        }
    }

    /// The span at `i`.
    pub fn span(&self, i: usize) -> &'a SpanRecord {
        &self.spans[i]
    }

    /// Index of the parent of span `i`, if it is in the slice.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.spans[i]
            .parent
            .and_then(|p| self.index.get(&p).copied())
    }

    /// Nearest ancestor of `i` (including `i` itself) satisfying `pred`.
    pub fn find_up(&self, i: usize, pred: impl Fn(&SpanRecord) -> bool) -> Option<usize> {
        let mut at = Some(i);
        while let Some(j) = at {
            if pred(&self.spans[j]) {
                return Some(j);
            }
            at = self.parent(j);
        }
        None
    }

    /// Self time of span `i` and the child time in excess of its duration.
    pub fn self_ns(&self, i: usize) -> (u64, u64) {
        let dur = self.spans[i].duration_ns;
        let children = self.child_ns[i];
        (dur.saturating_sub(children), children.saturating_sub(dur))
    }

    /// The layer span `i` is charged to.
    fn layer_of(&self, i: usize, layers: &[&'static str]) -> Option<&'static str> {
        let j = self.find_up(i, |s| layers.contains(&s.name))?;
        Some(self.spans[j].name)
    }
}

/// Self time per layer over the whole slice.
pub fn self_times(spans: &[SpanRecord], layers: &[&'static str]) -> LayerTimes {
    let tree = Tree::new(spans);
    let mut out = LayerTimes::new();
    for i in 0..spans.len() {
        if let Some(layer) = tree.layer_of(i, layers) {
            *out.entry(layer).or_default() += tree.self_ns(i).0;
        }
    }
    out
}

/// One fold per span named `root`, covering that span's subtree. Roots nested
/// inside another root are folded into the outer one only.
pub fn query_folds(spans: &[SpanRecord], root: &str, layers: &[&'static str]) -> Vec<QueryFold> {
    let tree = Tree::new(spans);
    let mut folds: Vec<QueryFold> = Vec::new();
    let mut slot: HashMap<usize, usize> = HashMap::new();
    for i in 0..spans.len() {
        // The outermost `root` ancestor owns the span.
        let mut owner = None;
        let mut at = Some(i);
        while let Some(j) = at {
            if spans[j].name == root {
                owner = Some(j);
            }
            at = tree.parent(j);
        }
        let Some(owner) = owner else { continue };
        let Some(layer) = tree.layer_of(i, layers) else {
            continue;
        };
        let k = *slot.entry(owner).or_insert_with(|| {
            folds.push(QueryFold {
                root: owner,
                layers: LayerTimes::new(),
                overlap_ns: 0,
            });
            folds.len() - 1
        });
        let (own, overlap) = tree.self_ns(i);
        *folds[k].layers.entry(layer).or_default() += own;
        folds[k].overlap_ns += overlap;
    }
    folds.sort_by_key(|f| f.root);
    folds
}

/// Unsigned attribute `key` of `span`.
pub fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// String attribute `key` of `span`.
pub fn attr_str<'s>(span: &'s SpanRecord, key: &str) -> Option<&'s str> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(x) if *k == key => Some(x.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            duration_ns: dur,
            attrs: Vec::new(),
        }
    }

    const LAYERS: &[&str] = &[
        "upec.check_bound",
        "bmc.encode",
        "sat.simplify",
        "sat.search",
    ];

    /// Two queries under a scenario span, in close order as a sink sees them:
    ///
    /// ```text
    /// upec.scenario            0..1000
    ///   upec.check_bound  (q1) 0..400
    ///     bmc.encode           0..50
    ///     bmc.trial_solve      50..250     (not a layer: charged to q1)
    ///       sat.search         60..200
    ///     sat.simplify         250..300
    ///       simplify.probe     250..280    (charged to sat.simplify)
    ///     sat.search           300..390
    ///       sat.restart        390..390    (zero-length marker)
    ///   upec.check_bound  (q2) 400..900
    ///     bmc.encode           400..420
    ///     sat.search           420..880
    /// ```
    fn tree() -> Vec<SpanRecord> {
        vec![
            span(3, Some(2), "bmc.encode", 0, 50),
            span(5, Some(4), "sat.search", 60, 140),
            span(4, Some(2), "bmc.trial_solve", 50, 200),
            span(7, Some(6), "simplify.probe", 250, 30),
            span(6, Some(2), "sat.simplify", 250, 50),
            span(9, Some(8), "sat.restart", 390, 0),
            span(8, Some(2), "sat.search", 300, 90),
            span(2, Some(1), "upec.check_bound", 0, 400),
            span(11, Some(10), "bmc.encode", 400, 20),
            span(12, Some(10), "sat.search", 420, 460),
            span(10, Some(1), "upec.check_bound", 400, 500),
            span(1, None, "upec.scenario", 0, 1000),
        ]
    }

    #[test]
    fn self_times_charge_unnamed_spans_to_the_nearest_layer() {
        let times = self_times(&tree(), LAYERS);
        // q1: 400 - (50 + 200 + 50 + 90) = 10 own, plus the trial solve's
        // 200 - 140 = 60 self; q2: 500 - (20 + 460) = 20.
        assert_eq!(times["upec.check_bound"], 10 + 60 + 20);
        assert_eq!(times["bmc.encode"], 50 + 20);
        assert_eq!(times["sat.simplify"], 50);
        assert_eq!(times["sat.search"], 140 + 90 + 460);
        // The scenario span has no layer: its 100 ns of self time vanish.
        assert_eq!(times.values().sum::<u64>(), 900);
    }

    #[test]
    fn query_folds_account_for_each_root_exactly() {
        let spans = tree();
        let folds = query_folds(&spans, "upec.check_bound", LAYERS);
        assert_eq!(folds.len(), 2);
        for fold in &folds {
            assert_eq!(fold.overlap_ns, 0);
            assert_eq!(fold.accounted_ns(), spans[fold.root].duration_ns);
        }
        let q1 = &folds[0].layers;
        assert_eq!(spans[folds[0].root].id, 2);
        assert_eq!(q1["sat.search"], 230);
        assert_eq!(q1["upec.check_bound"], 70);
        assert_eq!(folds[1].layers["sat.search"], 460);
    }

    #[test]
    fn overlapping_children_are_reported_not_double_charged() {
        let spans = vec![
            span(2, Some(1), "sat.search", 0, 80),
            span(3, Some(1), "sat.search", 50, 80),
            span(1, None, "upec.check_bound", 0, 100),
        ];
        let folds = query_folds(&spans, "upec.check_bound", LAYERS);
        assert_eq!(folds[0].layers["upec.check_bound"], 0);
        assert_eq!(folds[0].overlap_ns, 60);
        assert_eq!(folds[0].accounted_ns(), 160);
    }

    #[test]
    fn attributes_are_read_by_key_and_type() {
        let mut s = span(1, None, "cert.check", 0, 1);
        s.attrs.push(("kind", AttrValue::Str("proof".into())));
        s.attrs.push(("events", AttrValue::U64(12)));
        assert_eq!(attr_str(&s, "kind"), Some("proof"));
        assert_eq!(attr_u64(&s, "events"), Some(12));
        assert_eq!(attr_u64(&s, "kind"), None);
        assert_eq!(attr_str(&s, "missing"), None);
    }
}
