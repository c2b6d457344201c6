//! Horizontal fragmentation and data-parallel plan execution.
//!
//! The Mirror paper's "design for scalability" argument is that set-at-a-time
//! BAT algebra makes parallelism a *physical* concern: because every operator
//! consumes and produces whole columns, an operator can be split over
//! contiguous **oid-range fragments** of its input and the per-fragment
//! results merged, without the logical layer (Moa) knowing anything about it.
//! This module cashes that cheque:
//!
//! * [`bounds`] / [`fragments`] split a BAT into at most `degree` contiguous
//!   row ranges (for the dominant dense-headed BATs these are exactly
//!   oid ranges), each fragment carrying its own [`Props`] — slicing
//!   preserves sortedness and keyness, so per-fragment operator selection
//!   still works;
//! * `par_select`, `par_join`, `par_agg_tail`, `par_grouped_agg`,
//!   `par_project` and `par_mark` run one kernel operator per fragment on
//!   scoped threads and merge the partial results **in fragment order**, so
//!   output rows appear exactly as the serial operator would emit them;
//! * [`ParallelExecutor`] wraps the plan interpreter ([`Executor`]) with a
//!   configured degree, so whole plans transparently scale across cores.
//!
//! ## Merge discipline
//!
//! Selection and join fragments produce *global row positions*, which are
//! concatenated and gathered with a single `take` — the exact code path the
//! serial operator uses, so results are bit-identical. Scalar and grouped
//! aggregates merge per-fragment partials only where the merge is exact:
//! integer partials, counts, and float minima/maxima. A float sum (or
//! average) merged from partials would reassociate its additions and
//! depend on the degree in the last bits, so it runs the serial kernel
//! (`merges_exactly`) — every result is bit-identical at every degree.
//!
//! Threads are spawned per fragmented operator via [`std::thread::scope`];
//! fragments borrow the input columns, so no data is copied for selection,
//! join probes, or scalar aggregation.

use crate::aggr::Agg;
use crate::bat::Bat;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::ext::OpRegistry;
use crate::join::{build_hash_table, check_joinable, fetch_probe_span, hash_probe_span};
use crate::plan::{ExecStats, Executor, Plan, Pred};
use crate::props::Props;
use crate::select::{scan_range_span, scan_str_span, str_matching_flags};
use crate::value::{Oid, Val};
use std::ops::Bound;
use std::sync::Arc;

/// Default row threshold below which operators stay serial: fragmenting a
/// small BAT costs more in thread spawns than the scan saves.
pub const DEFAULT_MIN_FRAGMENT_ROWS: usize = 4096;

/// Resolve a requested parallelism degree: `0` means "use every core"
/// ([`std::thread::available_parallelism`]), anything else is taken as-is.
pub fn resolve_degree(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Split `rows` into at most `degree` contiguous `[lo, hi)` ranges of
/// near-equal size. Every range is non-empty; fewer than `degree` ranges
/// are returned when there are fewer rows than fragments.
pub fn bounds(rows: usize, degree: usize) -> Vec<(usize, usize)> {
    let parts = degree.max(1).min(rows);
    if parts == 0 {
        return Vec::new();
    }
    let base = rows / parts;
    let extra = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Materialise the horizontal fragments of a BAT: one slice per range from
/// [`bounds`]. Each fragment keeps the parent's property bits (slicing
/// preserves sortedness and keyness), so fragment-local operator selection
/// — merge join, binary-search select — still fires.
pub fn fragments(b: &Bat, degree: usize) -> Vec<Bat> {
    bounds(b.count(), degree).into_iter().map(|(lo, hi)| b.slice(lo, hi)).collect()
}

/// Run `f` once per span on scoped threads, collecting results in span
/// order (deterministic merges need fragment order, not completion order).
fn par_spans<T, F>(spans: &[(usize, usize)], f: F) -> Vec<T>
where
    T: Send,
    F: Fn((usize, usize)) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = spans.iter().map(|&span| scope.spawn(move || f(span))).collect();
        handles.into_iter().map(|h| h.join().expect("fragment worker panicked")).collect()
    })
}

/// Fragment-parallel selection: each fragment scans its row span for
/// qualifying positions; the concatenated positions feed one ordered gather,
/// exactly like the serial scan.
pub fn par_select(b: &Bat, pred: &Pred, degree: usize) -> Result<Bat> {
    let spans = bounds(b.count(), degree);
    if spans.len() <= 1 {
        return crate::plan::apply_pred(b, pred);
    }
    let parts: Vec<Result<Vec<u32>>> = match pred {
        Pred::StrContains(pat) => {
            let s = b.tail().str_col()?;
            let matching = str_matching_flags(s, pat);
            par_spans(&spans, |span| Ok(scan_str_span(s, &matching, span)))
        }
        Pred::Eq(v) => par_spans(&spans, |span| {
            scan_range_span(b.tail(), Bound::Included(v), Bound::Included(v), span)
        }),
        Pred::Range { lo, lo_incl, hi, hi_incl } => {
            let lo_b = match lo {
                None => Bound::Unbounded,
                Some(v) if *lo_incl => Bound::Included(v),
                Some(v) => Bound::Excluded(v),
            };
            let hi_b = match hi {
                None => Bound::Unbounded,
                Some(v) if *hi_incl => Bound::Included(v),
                Some(v) => Bound::Excluded(v),
            };
            par_spans(&spans, |span| scan_range_span(b.tail(), lo_b, hi_b, span))
        }
    };
    let mut positions = Vec::new();
    for p in parts {
        positions.extend(p?);
    }
    Ok(b.take_ordered(&positions))
}

/// Fragment-parallel join: the probe (left) side is split by row ranges and
/// every fragment probes the full build side — a positional test when the
/// build head is void, a shared read-only hash table otherwise. Matches are
/// emitted in probe-row order, so the merged output equals the serial join.
pub fn par_join(l: &Bat, r: &Bat, degree: usize) -> Result<Bat> {
    check_joinable("join", l.tail(), r.head())?;
    let spans = bounds(l.count(), degree);
    if spans.len() <= 1 {
        return l.join(r);
    }
    if let Column::Void { start, len } = *r.head() {
        let parts = par_spans(&spans, |span| fetch_probe_span(l.tail(), start, len, span));
        let (left_pos, right_pos) = concat_pairs(parts)?;
        let head = l.head().take(&left_pos);
        let tail = r.tail().take(&right_pos);
        let props = Props {
            head_sorted: l.props().head_sorted,
            head_key: l.props().head_key, // void build head is a key
            ..Props::default()
        };
        Ok(Bat::from_arcs(Arc::new(head), Arc::new(tail), props))
    } else {
        let table = build_hash_table(r.head());
        let parts = par_spans(&spans, |span| Ok(hash_probe_span(l.tail(), &table, span)));
        let (left_pos, right_pos) = concat_pairs(parts)?;
        let head = l.head().take(&left_pos);
        let tail = r.tail().take(&right_pos);
        Ok(Bat::from_arcs(Arc::new(head), Arc::new(tail), Props::unknown()))
    }
}

fn concat_pairs(parts: Vec<Result<(Vec<u32>, Vec<u32>)>>) -> Result<(Vec<u32>, Vec<u32>)> {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for p in parts {
        let (l, r) = p?;
        left.extend(l);
        right.extend(r);
    }
    Ok((left, right))
}

/// Whether `agg` over `col` merges bit-identically from per-fragment
/// partials. Float `Sum`/`Avg` do not: adding span partials reassociates
/// the serial left-to-right sum, so the result would depend on the degree.
pub(crate) fn merges_exactly(col: &Column, agg: Agg) -> bool {
    !(matches!(col, Column::Float(_)) && matches!(agg, Agg::Sum | Agg::Avg))
}

/// Fragment-parallel scalar aggregation: each fragment folds its span into
/// partials, merged exactly — `(sum, min, max)` in `i64` for integers,
/// `(min, max)` for floats. `Count` needs no scan at all; float sums and
/// averages, and empty BATs, run the serial kernel.
pub fn par_agg_tail(b: &Bat, agg: Agg, degree: usize) -> Result<Val> {
    if agg == Agg::Count {
        return Ok(Val::Int(b.count() as i64));
    }
    if b.is_empty() || !merges_exactly(b.tail(), agg) {
        return b.agg_tail(agg);
    }
    let spans = bounds(b.count(), degree);
    if spans.len() <= 1 {
        return b.agg_tail(agg);
    }
    match b.tail() {
        Column::Int(v) => {
            let partials: Vec<(i64, i64, i64)> = par_spans(&spans, |(lo, hi)| {
                let s = &v[lo..hi];
                (
                    s.iter().sum(),
                    *s.iter().min().expect("non-empty span"),
                    *s.iter().max().expect("non-empty span"),
                )
            });
            let sum: i64 = partials.iter().map(|p| p.0).sum();
            Ok(match agg {
                Agg::Sum => Val::Int(sum),
                Agg::Min => Val::Int(partials.iter().map(|p| p.1).min().expect("non-empty")),
                Agg::Max => Val::Int(partials.iter().map(|p| p.2).max().expect("non-empty")),
                Agg::Avg => Val::Float(sum as f64 / v.len() as f64),
                Agg::Count => unreachable!("handled above"),
            })
        }
        Column::Float(v) => {
            let partials: Vec<(f64, f64)> = par_spans(&spans, |(lo, hi)| {
                let s = &v[lo..hi];
                (
                    s.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
                    s.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
                )
            });
            Ok(match agg {
                Agg::Min => Val::Float(partials.iter().fold(f64::INFINITY, |a, p| a.min(p.0))),
                Agg::Max => Val::Float(partials.iter().fold(f64::NEG_INFINITY, |a, p| a.max(p.1))),
                _ => unreachable!("float sums run serially, counts are handled above"),
            })
        }
        other => Err(MonetError::TypeMismatch {
            op: "agg_tail",
            expected: "int|float",
            found: other.ty_str(),
        }),
    }
}

/// Fragment-parallel grouped aggregation for the mergeable aggregates
/// (`Sum` over integers, `Count`): each fragment of `values` aggregates
/// against the full group mapping, producing aligned `[gid(void), partial]`
/// integer BATs that merge by element-wise addition. Everything else —
/// `Min`/`Max`/`Avg` (an empty-group sentinel that addition would corrupt)
/// and float sums (see `merges_exactly`) — runs the serial operator.
pub fn par_grouped_agg(values: &Bat, groups: &Bat, agg: Agg, degree: usize) -> Result<Bat> {
    if !matches!(agg, Agg::Sum | Agg::Count) || !merges_exactly(values.tail(), agg) {
        return values.grouped_agg(groups, agg);
    }
    let spans = bounds(values.count(), degree);
    if spans.len() <= 1 || groups.is_empty() {
        return values.grouped_agg(groups, agg);
    }
    let parts: Vec<Result<Bat>> =
        par_spans(&spans, |(lo, hi)| values.slice(lo, hi).grouped_agg(groups, agg));
    let mut acc: Option<Vec<i64>> = None;
    for part in parts {
        match (part?.tail(), &mut acc) {
            (Column::Int(v), Some(acc)) => {
                for (a, &x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
            }
            (Column::Int(v), None) => acc = Some(v.clone()),
            (other, _) => {
                return Err(MonetError::TypeMismatch {
                    op: "par_grouped_agg",
                    expected: "int",
                    found: other.ty_str(),
                })
            }
        }
    }
    Ok(Bat::dense(Column::Int(acc.expect("at least two fragments"))))
}

/// Concatenate same-typed columns in a single pass — unlike a pairwise
/// fold, the growing prefix is never re-copied. Dense void chains stay
/// void; strings re-intern into the first fragment's dictionary.
fn concat_columns(parts: &[&Column]) -> Result<Column> {
    debug_assert!(!parts.is_empty());
    let total: usize = parts.iter().map(|c| c.len()).sum();
    // dense void chain → one void column, no materialisation
    if parts.iter().all(|c| c.is_void()) {
        let start = parts[0].void_start().expect("checked void");
        let mut next = start;
        if parts.iter().all(|c| {
            let chains = c.void_start() == Some(next);
            next += c.len() as Oid;
            chains
        }) {
            return Ok(Column::Void { start, len: total });
        }
    }
    match parts[0] {
        Column::Void { .. } | Column::Oid(_) => {
            let mut out: Vec<Oid> = Vec::with_capacity(total);
            for c in parts {
                out.extend(c.as_oids()?);
            }
            Ok(Column::Oid(out))
        }
        Column::Int(_) => {
            let mut out: Vec<i64> = Vec::with_capacity(total);
            for c in parts {
                out.extend_from_slice(c.int_slice()?);
            }
            Ok(Column::Int(out))
        }
        Column::Float(_) => {
            let mut out: Vec<f64> = Vec::with_capacity(total);
            for c in parts {
                out.extend_from_slice(c.float_slice()?);
            }
            Ok(Column::Float(out))
        }
        Column::Str(first) => {
            let mut builder = crate::strdict::StrDictBuilder::from_dict(&first.dict);
            let mut codes = Vec::with_capacity(total);
            codes.extend_from_slice(&first.codes);
            for c in &parts[1..] {
                let s = c.str_col()?;
                for &code in &s.codes {
                    codes.push(builder.intern(s.dict.resolve(code)));
                }
            }
            Ok(Column::Str(crate::column::StrCol { codes, dict: builder.freeze() }))
        }
    }
}

/// Fragment-parallel constant projection: each fragment materialises its
/// own constant tail; the merged tail shares the input's head columns.
///
/// The interpreter keeps `project` serial — a constant fill is pure memory
/// bandwidth, so fragmenting it buys nothing there — but explicitly
/// fragmented pipelines use this to project each fragment independently
/// and still merge to the serial result.
pub fn par_project(b: &Bat, v: &Val, degree: usize) -> Result<Bat> {
    let spans = bounds(b.count(), degree);
    if spans.len() <= 1 {
        return b.project(v);
    }
    let parts: Vec<Result<Bat>> = par_spans(&spans, |(lo, hi)| b.slice(lo, hi).project(v));
    let mut tails = Vec::with_capacity(parts.len());
    for p in parts {
        tails.push(p?);
    }
    let tail = concat_columns(&tails.iter().map(Bat::tail).collect::<Vec<_>>())?;
    Ok(Bat::from_arcs(
        b.head_arc(),
        Arc::new(tail),
        Props {
            head_sorted: b.props().head_sorted,
            head_key: b.props().head_key,
            tail_sorted: true,
            tail_key: b.count() <= 1,
        },
    ))
}

/// Fragment-parallel `mark`: fragment `i` marks from `base + lo_i`, so the
/// merged void tails chain densely back into `void(base..)`. Serial `mark`
/// is O(1) (it never materialises the tail), so the interpreter keeps it
/// serial; this exists so explicitly fragmented pipelines can mark each
/// fragment independently and still merge to the serial result.
pub fn par_mark(b: &Bat, base: Oid, degree: usize) -> Result<Bat> {
    let spans = bounds(b.count(), degree);
    if spans.len() <= 1 {
        return Ok(b.mark(base));
    }
    let parts: Vec<Bat> = par_spans(&spans, |(lo, hi)| b.slice(lo, hi).mark(base + lo as Oid));
    let head = concat_columns(&parts.iter().map(Bat::head).collect::<Vec<_>>())?;
    let tail = concat_columns(&parts.iter().map(Bat::tail).collect::<Vec<_>>())?;
    Ok(Bat::from_arcs(
        Arc::new(head),
        Arc::new(tail),
        Props {
            head_sorted: b.props().head_sorted,
            head_key: b.props().head_key,
            tail_sorted: true,
            tail_key: true,
        },
    ))
}

/// A plan interpreter with fragment-parallel operator execution.
///
/// Wraps [`Executor`] over the same shared [`Catalog`] and [`OpRegistry`],
/// with the parallelism degree resolved once at construction (`0` = one
/// thread per available core). The fragment-parallelisable operators —
/// `select`, `join` (probe side), `aggr` and `grouped_aggr`
/// (`Sum`/`Count`) — run per-fragment on scoped threads whenever their
/// input reaches [`min_fragment_rows`](Self::set_min_fragment_rows);
/// everything else executes serially, unchanged.
pub struct ParallelExecutor<'a> {
    inner: Executor<'a>,
}

impl<'a> ParallelExecutor<'a> {
    /// Create a parallel executor; `degree` 0 means one thread per core.
    pub fn new(catalog: &'a Catalog, registry: &'a OpRegistry, degree: usize) -> Self {
        let mut inner = Executor::new(catalog, registry);
        inner.degree = resolve_degree(degree);
        ParallelExecutor { inner }
    }

    /// The resolved parallelism degree.
    pub fn degree(&self) -> usize {
        self.inner.degree
    }

    /// Override the row threshold below which operators stay serial
    /// (default [`DEFAULT_MIN_FRAGMENT_ROWS`]; tests set it to 1 to force
    /// fragmentation on tiny inputs).
    pub fn set_min_fragment_rows(&mut self, rows: usize) {
        self.inner.min_fragment_rows = rows;
    }

    /// Toggle common-subexpression memoisation (defaults to on).
    pub fn set_memoize(&mut self, memoize: bool) {
        self.inner.memoize = memoize;
    }

    /// Execute a plan, returning the result BAT and execution statistics
    /// (including how many operators ran fragmented).
    pub fn run(&self, plan: &Plan) -> Result<(Arc<Bat>, ExecStats)> {
        self.inner.run(plan)
    }

    /// Execute and discard statistics.
    pub fn run_bat(&self, plan: &Plan) -> Result<Arc<Bat>> {
        self.inner.run_bat(plan)
    }

    /// EXPLAIN ANALYZE: execute and render the plan with per-operator row
    /// counts and fragmentation decisions.
    pub fn explain(&self, plan: &Plan) -> Result<String> {
        self.inner.explain(plan)
    }

    /// The wrapped serial interpreter.
    pub fn executor(&self) -> &Executor<'a> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_floats, bat_of_ints, bat_of_strs};

    /// Non-integer floats whose sum rounds differently when reassociated.
    fn fractional(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.1 * ((37 * i) % 101) as f64 + 1e-3 / (1 + i) as f64).collect()
    }

    /// A value with floats keyed by their bits, so equality is bit-for-bit.
    fn float_bits(v: Val) -> String {
        match v {
            Val::Float(f) => format!("{:#018x}", f.to_bits()),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn bounds_cover_and_partition() {
        assert_eq!(bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(bounds(2, 7), vec![(0, 1), (1, 2)]);
        assert_eq!(bounds(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(bounds(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn fragments_preserve_props() {
        let b = bat_of_ints((0..100).collect()).analyze();
        let frags = fragments(&b, 4);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags.iter().map(Bat::count).sum::<usize>(), 100);
        for f in &frags {
            assert!(f.props().tail_sorted && f.props().head_key);
        }
        // oid-range heads: fragment 1 starts where fragment 0 ended
        assert_eq!(frags[1].fetch(0).unwrap().0, Val::Oid(25));
    }

    #[test]
    fn par_select_matches_serial() {
        let vals: Vec<i64> = (0..1000).map(|i| (i * 37) % 101).collect();
        let b = bat_of_ints(vals);
        let pred = Pred::Range {
            lo: Some(Val::Int(10)),
            lo_incl: true,
            hi: Some(Val::Int(60)),
            hi_incl: false,
        };
        let serial = crate::plan::apply_pred(&b, &pred).unwrap();
        for d in [1, 2, 3, 8] {
            let par = par_select(&b, &pred, d).unwrap();
            assert_eq!(par.to_pairs(), serial.to_pairs(), "degree {d}");
        }
    }

    #[test]
    fn par_select_strings() {
        let b = bat_of_strs(["sunset beach", "forest", "beach house", "sea"].repeat(20));
        let pred = Pred::StrContains("beach".into());
        let serial = crate::plan::apply_pred(&b, &pred).unwrap();
        let par = par_select(&b, &pred, 3).unwrap();
        assert_eq!(par.to_pairs(), serial.to_pairs());
    }

    #[test]
    fn par_join_fetch_and_hash_match_serial() {
        // fetch path: dense build side
        let l = Bat::dense(Column::Oid((0..500).map(|i| (i * 7) % 600).collect()));
        let r = bat_of_ints((0..550).map(|i| i * 10).collect());
        let serial = l.join(&r).unwrap();
        let par = par_join(&l, &r, 4).unwrap();
        assert_eq!(par.to_pairs(), serial.to_pairs());
        // hash path: materialised build head with duplicates
        let r2 = Bat::new(
            Column::Oid((0..100).map(|i| i % 40).collect()),
            Column::Int((0..100).collect()),
        )
        .unwrap();
        let serial2 = l.join(&r2).unwrap();
        let par2 = par_join(&l, &r2, 4).unwrap();
        assert_eq!(par2.to_pairs(), serial2.to_pairs());
    }

    #[test]
    fn par_agg_matches_serial_for_all_kinds() {
        let ints = bat_of_ints((0..777).map(|i| (i * 13) % 97 - 48).collect());
        let floats = bat_of_floats((0..777).map(|i| ((i * 13) % 97) as f64).collect());
        let fractions = bat_of_floats(fractional(3_000));
        for agg in [Agg::Sum, Agg::Count, Agg::Min, Agg::Max, Agg::Avg] {
            for d in [2, 4, 5, 7] {
                assert_eq!(
                    par_agg_tail(&ints, agg, d).unwrap(),
                    ints.agg_tail(agg).unwrap(),
                    "{agg} ints degree {d}"
                );
                assert_eq!(
                    par_agg_tail(&floats, agg, d).unwrap(),
                    floats.agg_tail(agg).unwrap(),
                    "{agg} floats degree {d}"
                );
                assert_eq!(
                    float_bits(par_agg_tail(&fractions, agg, d).unwrap()),
                    float_bits(fractions.agg_tail(agg).unwrap()),
                    "{agg} non-integer floats degree {d}"
                );
            }
        }
    }

    #[test]
    fn par_grouped_agg_merges_partials() {
        let vals = bat_of_ints((0..300).map(|i| i % 7).collect());
        let groups = Bat::dense(Column::Oid((0..300).map(|i| (i % 5) as Oid).collect()));
        for agg in [Agg::Sum, Agg::Count] {
            let serial = vals.grouped_agg(&groups, agg).unwrap();
            let par = par_grouped_agg(&vals, &groups, agg, 4).unwrap();
            assert_eq!(par.to_pairs(), serial.to_pairs(), "{agg}");
        }
        // non-integer float sums, bit for bit at every degree
        let fvals = bat_of_floats(fractional(3_000));
        let fgroups = Bat::dense(Column::Oid((0..3_000).map(|i| (i % 5) as Oid).collect()));
        let serial = fvals.grouped_agg(&fgroups, Agg::Sum).unwrap().to_pairs();
        for d in [2, 4, 7] {
            let par = par_grouped_agg(&fvals, &fgroups, Agg::Sum, d).unwrap().to_pairs();
            let bits = |pairs: Vec<(Val, Val)>| -> Vec<String> {
                pairs.into_iter().map(|(_, v)| float_bits(v)).collect()
            };
            assert_eq!(bits(par), bits(serial.clone()), "float sum degree {d}");
        }
        // non-mergeable aggregates fall back to serial
        let mins = par_grouped_agg(&vals, &groups, Agg::Min, 4).unwrap();
        assert_eq!(mins.to_pairs(), vals.grouped_agg(&groups, Agg::Min).unwrap().to_pairs());
    }

    #[test]
    fn par_project_and_mark_match_serial() {
        let b = bat_of_ints((0..100).collect());
        let serial_p = b.project(&Val::Float(0.5)).unwrap();
        let par_p = par_project(&b, &Val::Float(0.5), 3).unwrap();
        assert_eq!(par_p.to_pairs(), serial_p.to_pairs());
        assert!(par_p.props().tail_sorted);

        let serial_m = b.mark(1000);
        let par_m = par_mark(&b, 1000, 3).unwrap();
        assert_eq!(par_m.to_pairs(), serial_m.to_pairs());
        assert!(par_m.tail().is_void(), "dense mark fragments should chain back to void");
        assert!(par_m.head().is_void(), "dense head fragments should chain back to void");

        // string constants exercise the dictionary re-interning merge
        let serial_s = b.project(&Val::from("tag")).unwrap();
        let par_s = par_project(&b, &Val::from("tag"), 4).unwrap();
        assert_eq!(par_s.to_pairs(), serial_s.to_pairs());
    }

    #[test]
    fn parallel_executor_runs_plans() {
        let cat = Catalog::new();
        cat.register("nums", bat_of_ints((0..10_000).map(|i| i % 100).collect()));
        let reg = OpRegistry::new();
        let mut ex = ParallelExecutor::new(&cat, &reg, 4);
        ex.set_min_fragment_rows(1);
        assert_eq!(ex.degree(), 4);
        let plan =
            Plan::Select { input: Box::new(Plan::load("nums")), pred: Pred::Eq(Val::Int(7)) };
        let (out, stats) = ex.run(&plan).unwrap();
        assert_eq!(out.count(), 100);
        assert!(stats.fragmented_ops >= 1, "select should have fragmented: {stats:?}");
        assert_eq!(stats.degree, 4);
    }

    #[test]
    fn resolve_degree_auto_is_positive() {
        assert!(resolve_degree(0) >= 1);
        assert_eq!(resolve_degree(3), 3);
    }
}
