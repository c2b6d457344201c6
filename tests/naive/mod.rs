//! The object-at-a-time reference interpreter the flattened engine is held
//! to.
//!
//! Before \[BWK98\], object algebras were typically *interpreted*: the
//! engine walks the logical expression once per object, materialising
//! intermediate value trees. This oracle implements that execution model
//! faithfully — per-object dynamic dispatch, per-object lookups, no
//! set-at-a-time operators — so the suites that include it can compare it
//! against the flattened pipeline on identical data and queries.
//!
//! The library keeps no logical rows, so the caller hands the oracle the
//! queried collection's rows as `MoaVal` tuples, in oid order: the rows it
//! loaded, or for a `MirrorDbms` the tuples `load_library_rows` builds
//! from `library_rows()`. `getBL` is evaluated per document from the
//! CONTREP index in the store the caller passes.

use mirror::ir::{BeliefParams, ContrepStore, InvertedIndex};
use mirror::moa::expr::{ArithKind, Lit};
use mirror::moa::{CmpOp, Env, Expr, MoaError, MoaType, MoaVal, QueryOutput, Result};
use mirror::monet::{Oid, Val};

/// Object-at-a-time evaluator over one collection.
pub struct NaiveEngine<'e> {
    env: &'e Env,
    /// The queried collection's rows, in oid order.
    rows: &'e [MoaVal],
    /// Where `getBL` finds its indexes (`None` when no query ranks).
    contrep: Option<&'e ContrepStore>,
}

/// Intermediate values during naive evaluation.
#[derive(Debug, Clone)]
enum NVal {
    Num(f64),
    Int(i64),
    Str(String),
    Set(Vec<NVal>),
    Bool(bool),
}

impl<'e> NaiveEngine<'e> {
    /// An interpreter over `env`'s schemas and query bindings, whose
    /// collection holds `rows`; `contrep` is the store `getBL` reads.
    pub fn new(env: &'e Env, rows: &'e [MoaVal], contrep: Option<&'e ContrepStore>) -> Self {
        NaiveEngine { env, rows, contrep }
    }

    /// Evaluate a query by iterating the collection object by object.
    pub fn query(&self, src: &str) -> Result<QueryOutput> {
        let expr = mirror::moa::parse_expr(src)?;
        self.query_expr(&expr)
    }

    /// Evaluate a parsed query.
    fn query_expr(&self, expr: &Expr) -> Result<QueryOutput> {
        match expr {
            Expr::Map { body, input } => {
                let (coll, oids) = self.eval_input(input)?;
                let mut pairs = Vec::with_capacity(oids.len());
                for &oid in &oids {
                    let row = &self.rows[oid as usize];
                    // a chained map binds THIS to the inner map's per-object value
                    let this_val = self.eval_pipeline_value(input, &coll, oid, row)?;
                    let v = self.eval_body_with(body, &coll, oid, row, this_val.as_ref())?;
                    match v {
                        NVal::Set(items) => {
                            for it in items {
                                pairs.push((oid, nval_to_val(it)?));
                            }
                        }
                        other => pairs.push((oid, nval_to_val(other)?)),
                    }
                }
                Ok(QueryOutput::Pairs(pairs))
            }
            Expr::Select { .. } => {
                let (_, oids) = self.eval_input(expr)?;
                Ok(QueryOutput::Oids(oids))
            }
            Expr::Call { name, args } if name == "count" && args.len() == 1 => {
                let (_, oids) = self.eval_input(&args[0])?;
                Ok(QueryOutput::Scalar(Val::Int(oids.len() as i64)))
            }
            other => Err(MoaError::Unsupported(format!("naive evaluation of top-level {other}"))),
        }
    }

    /// Resolve a pipeline input to `(collection, surviving oids)` by
    /// filtering one object at a time.
    fn eval_input(&self, expr: &Expr) -> Result<(String, Vec<Oid>)> {
        match expr {
            Expr::Ident(name) => {
                let meta = self.env.collection(name)?;
                if meta.count != self.rows.len() {
                    return Err(MoaError::Unsupported(format!(
                        "'{name}' holds {} objects, the oracle was handed {} rows",
                        meta.count,
                        self.rows.len()
                    )));
                }
                Ok((name.clone(), (0..meta.count as Oid).collect()))
            }
            Expr::Select { pred, input } => {
                let (coll, oids) = self.eval_input(input)?;
                let mut out = Vec::new();
                for &oid in &oids {
                    let v = self.eval_body(pred, &coll, oid, &self.rows[oid as usize])?;
                    if matches!(v, NVal::Bool(true)) {
                        out.push(oid);
                    }
                }
                Ok((coll, out))
            }
            Expr::Map { input, .. } => {
                // iterating a mapped set re-uses the input's domain; the
                // caller re-evaluates the body per object (that is the
                // object-at-a-time cost model)
                self.eval_input(input)
            }
            other => Err(MoaError::Unsupported(format!("naive input {other}"))),
        }
    }

    /// The value `THIS` denotes after evaluating a (possibly chained)
    /// pipeline input for one object: `None` when the input is the
    /// collection itself (row context), `Some` when it is an inner `map`.
    fn eval_pipeline_value(
        &self,
        input: &Expr,
        coll: &str,
        oid: Oid,
        row: &MoaVal,
    ) -> Result<Option<NVal>> {
        match input {
            Expr::Map { body, input: deeper } => {
                let inner = self.eval_pipeline_value(deeper, coll, oid, row)?;
                Ok(Some(self.eval_body_with(body, coll, oid, row, inner.as_ref())?))
            }
            _ => Ok(None),
        }
    }

    /// Evaluate a body expression for one object (row context only).
    fn eval_body(&self, expr: &Expr, coll: &str, oid: Oid, row: &MoaVal) -> Result<NVal> {
        self.eval_body_with(expr, coll, oid, row, None)
    }

    /// Evaluate a body expression for one object, with `THIS` optionally
    /// bound to a mapped value.
    fn eval_body_with(
        &self,
        expr: &Expr,
        coll: &str,
        oid: Oid,
        row: &MoaVal,
        this_val: Option<&NVal>,
    ) -> Result<NVal> {
        match expr {
            Expr::Lit(Lit::Int(i)) => Ok(NVal::Int(*i)),
            Expr::Lit(Lit::Float(x)) => Ok(NVal::Num(*x)),
            Expr::Lit(Lit::Str(s)) => Ok(NVal::Str(s.clone())),
            Expr::This => this_val.cloned().ok_or_else(|| {
                MoaError::Unsupported("bare THIS at row level in naive engine".into())
            }),
            Expr::Attr(base, field) => {
                if matches!(**base, Expr::This) {
                    self.row_attr(coll, row, field)
                } else {
                    // nested: evaluate base to a set of tuples, project field
                    let b = self.eval_body_with(base, coll, oid, row, this_val)?;
                    match b {
                        NVal::Set(items) => Ok(NVal::Set(
                            items
                                .into_iter()
                                .map(|_| {
                                    Err(MoaError::Unsupported(
                                        "deep nested attribute in naive engine".into(),
                                    ))
                                })
                                .collect::<Result<Vec<_>>>()?,
                        )),
                        _ => Err(MoaError::Type("attribute of non-set".into())),
                    }
                }
            }
            Expr::Map { body, input } => {
                // map over a nested set of this object
                let inner = self.eval_nested_set(input, coll, oid, row)?;
                let mut out = Vec::with_capacity(inner.len());
                for item in inner {
                    out.push(self.eval_elem(body, &item)?);
                }
                Ok(NVal::Set(out))
            }
            Expr::Call { name, args } => match name.as_str() {
                "sum" | "count" | "min" | "max" | "avg" => {
                    let arg = self.eval_body_with(&args[0], coll, oid, row, this_val)?;
                    let NVal::Set(items) = arg else {
                        return Err(MoaError::Type(format!("{name}() of non-set")));
                    };
                    let nums: Vec<f64> = items
                        .iter()
                        .map(|v| match v {
                            NVal::Num(x) => Ok(*x),
                            NVal::Int(i) => Ok(*i as f64),
                            _ => Err(MoaError::Type("aggregate of non-number".into())),
                        })
                        .collect::<Result<Vec<_>>>()?;
                    Ok(match name.as_str() {
                        "sum" => NVal::Num(nums.iter().sum()),
                        "count" => NVal::Int(nums.len() as i64),
                        "min" => NVal::Num(nums.iter().copied().fold(f64::INFINITY, f64::min)),
                        "max" => NVal::Num(nums.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                        "avg" => NVal::Num(if nums.is_empty() {
                            0.0
                        } else {
                            nums.iter().sum::<f64>() / nums.len() as f64
                        }),
                        _ => unreachable!("matched above"),
                    })
                }
                "contains" => {
                    let a = self.eval_body_with(&args[0], coll, oid, row, this_val)?;
                    let b = self.eval_body_with(&args[1], coll, oid, row, this_val)?;
                    match (a, b) {
                        (NVal::Str(s), NVal::Str(p)) => Ok(NVal::Bool(s.contains(&p))),
                        _ => Err(MoaError::Type("contains() needs strings".into())),
                    }
                }
                // extension method, e.g. getBL: dispatched object-at-a-time
                method => self.eval_ext_method(method, args, coll, oid),
            },
            Expr::Cmp { op, left, right } => {
                let l = self.eval_body_with(left, coll, oid, row, this_val)?;
                let r = self.eval_body_with(right, coll, oid, row, this_val)?;
                Ok(NVal::Bool(compare(&l, &r, *op)?))
            }
            Expr::And(l, r) => {
                let a = self.eval_body_with(l, coll, oid, row, this_val)?;
                let b = self.eval_body_with(r, coll, oid, row, this_val)?;
                match (a, b) {
                    (NVal::Bool(x), NVal::Bool(y)) => Ok(NVal::Bool(x && y)),
                    _ => Err(MoaError::Type("and of non-booleans".into())),
                }
            }
            Expr::Or(l, r) => {
                let a = self.eval_body_with(l, coll, oid, row, this_val)?;
                let b = self.eval_body_with(r, coll, oid, row, this_val)?;
                match (a, b) {
                    (NVal::Bool(x), NVal::Bool(y)) => Ok(NVal::Bool(x || y)),
                    _ => Err(MoaError::Type("or of non-booleans".into())),
                }
            }
            Expr::Arith { op, left, right } => {
                let l = self.eval_body_with(left, coll, oid, row, this_val)?;
                let r = self.eval_body_with(right, coll, oid, row, this_val)?;
                arith(&l, &r, *op)
            }
            Expr::Ident(_) | Expr::Select { .. } => {
                Err(MoaError::Unsupported(format!("naive body expression {expr}")))
            }
        }
    }

    /// Evaluate the input of an inner `map` to the object's nested set.
    fn eval_nested_set(
        &self,
        input: &Expr,
        coll: &str,
        oid: Oid,
        row: &MoaVal,
    ) -> Result<Vec<MoaVal>> {
        match input {
            Expr::Attr(base, field) if matches!(**base, Expr::This) => {
                let elem = self.env.elem_type(coll)?;
                let idx = field_index(&elem, field)?;
                match row {
                    MoaVal::Tuple(vs) => match vs.get(idx) {
                        Some(MoaVal::Set(items)) | Some(MoaVal::List(items)) => Ok(items.clone()),
                        Some(MoaVal::Null) | None => Ok(Vec::new()),
                        Some(other) => {
                            Err(MoaError::Type(format!("field '{field}' is not a set: {other:?}")))
                        }
                    },
                    _ => Err(MoaError::Type("row is not a tuple".into())),
                }
            }
            other => {
                // e.g. map over the result of getBL: evaluate to a set
                let v = self.eval_body(other, coll, oid, row)?;
                match v {
                    NVal::Set(items) => Ok(items
                        .into_iter()
                        .map(|i| match i {
                            NVal::Num(x) => MoaVal::Float(x),
                            NVal::Int(x) => MoaVal::Int(x),
                            NVal::Str(s) => MoaVal::Str(s),
                            _ => MoaVal::Null,
                        })
                        .collect()),
                    _ => Err(MoaError::Type("map over non-set".into())),
                }
            }
        }
    }

    /// Evaluate a map body against one element of a nested set.
    fn eval_elem(&self, body: &Expr, item: &MoaVal) -> Result<NVal> {
        match body {
            Expr::This => moaval_to_nval(item),
            Expr::Attr(base, field) if matches!(**base, Expr::This) => match item {
                MoaVal::Tuple(_) => Err(MoaError::Unsupported(
                    "positional tuple projection needs schema context; use map[THIS.field](THIS.set) at row level".into(),
                )),
                _ => Err(MoaError::Type(format!("no field '{field}' on atom"))),
            },
            Expr::Lit(Lit::Int(i)) => Ok(NVal::Int(*i)),
            Expr::Lit(Lit::Float(x)) => Ok(NVal::Num(*x)),
            Expr::Arith { op, left, right } => {
                let l = self.eval_elem(left, item)?;
                let r = self.eval_elem(right, item)?;
                arith(&l, &r, *op)
            }
            other => Err(MoaError::Unsupported(format!("naive element body {other}"))),
        }
    }

    fn row_attr(&self, coll: &str, row: &MoaVal, field: &str) -> Result<NVal> {
        let elem = self.env.elem_type(coll)?;
        let idx = field_index(&elem, field)?;
        match row {
            MoaVal::Tuple(vs) => moaval_to_nval(vs.get(idx).unwrap_or(&MoaVal::Null)),
            _ => Err(MoaError::Type("row is not a tuple".into())),
        }
    }

    /// Dispatch an extension-structure method for one object:
    /// `getBL(THIS.annotation, query, stats)` evaluated document by
    /// document, the query read from the environment's bindings.
    fn eval_ext_method(&self, method: &str, args: &[Expr], coll: &str, oid: Oid) -> Result<NVal> {
        let Some(Expr::Attr(base, field)) = args.first() else {
            return Err(MoaError::Unknown(format!("function '{method}'")));
        };
        if !matches!(**base, Expr::This) {
            return Err(MoaError::Unknown(format!("function '{method}'")));
        }
        let elem = self.env.elem_type(coll)?;
        let fty = elem.field(field).ok_or_else(|| MoaError::Unknown(format!("field '{field}'")))?;
        if !matches!(fty, MoaType::Ext { name, .. } if name == "CONTREP") || method != "getBL" {
            return Err(MoaError::Unsupported(format!("naive {method} on '{field}'")));
        }
        let prefix = format!("{coll}__{field}");
        let index = self
            .contrep
            .and_then(|store| store.get(&prefix))
            .ok_or_else(|| MoaError::Unknown(format!("content representation '{prefix}'")))?;
        // resolve the query binding
        let mut query: Vec<(String, f64)> = Vec::new();
        for a in &args[1..] {
            if let Expr::Ident(n) = a {
                if let Some(terms) = self.env.query_binding(n) {
                    query = terms;
                }
            }
        }
        let beliefs = getbl_object(&index, BeliefParams::default(), &query, oid);
        Ok(NVal::Set(beliefs.into_iter().map(NVal::Num).collect()))
    }
}

/// CONTREP's `getBL` for one document, tuple at a time, with per-term
/// index lookups: a `w·belief/Σw` row per matched query term, then one
/// default-belief row for the unmatched weight when any term matched —
/// the rows the set-at-a-time operator emits for that document.
fn getbl_object(
    index: &InvertedIndex,
    params: BeliefParams,
    query: &[(String, f64)],
    doc: Oid,
) -> Vec<f64> {
    let total_w: f64 = query.iter().map(|(_, w)| w).sum();
    if total_w == 0.0 {
        return Vec::new();
    }
    let stats = index.stats();
    let mut rows = Vec::new();
    let mut matched_w = 0.0;
    let mut any = false;
    for (t, w) in query {
        let tf = index.tf(t, doc);
        if tf > 0 {
            let b = params.belief(tf, index.df(t), index.doc_len(doc), stats.n_docs, stats.avg_dl);
            rows.push(w * b / total_w);
            matched_w += w;
            any = true;
        }
    }
    if any && matched_w < total_w {
        rows.push(params.alpha * (total_w - matched_w) / total_w);
    }
    rows
}

fn field_index(elem: &MoaType, field: &str) -> Result<usize> {
    elem.fields()
        .and_then(|fs| fs.iter().position(|(n, _)| n == field))
        .ok_or_else(|| MoaError::Unknown(format!("field '{field}'")))
}

fn moaval_to_nval(v: &MoaVal) -> Result<NVal> {
    Ok(match v {
        MoaVal::Int(i) => NVal::Int(*i),
        MoaVal::Float(x) => NVal::Num(*x),
        MoaVal::Str(s) => NVal::Str(s.clone()),
        MoaVal::Null => NVal::Str(String::new()),
        MoaVal::Set(items) | MoaVal::List(items) => {
            NVal::Set(items.iter().map(moaval_to_nval).collect::<Result<Vec<_>>>()?)
        }
        MoaVal::Tuple(_) => return Err(MoaError::Unsupported("tuple as naive value".into())),
    })
}

fn nval_to_val(v: NVal) -> Result<Val> {
    Ok(match v {
        NVal::Num(x) => Val::Float(x),
        NVal::Int(i) => Val::Int(i),
        NVal::Str(s) => Val::Str(s),
        NVal::Bool(b) => Val::Int(i64::from(b)),
        NVal::Set(_) => return Err(MoaError::Type("nested set in scalar position".into())),
    })
}

fn compare(l: &NVal, r: &NVal, op: CmpOp) -> Result<bool> {
    let ord = match (l, r) {
        (NVal::Str(a), NVal::Str(b)) => a.cmp(b),
        (a, b) => {
            let (x, y) = (num_of(a)?, num_of(b)?);
            x.total_cmp(&y)
        }
    };
    Ok(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

fn num_of(v: &NVal) -> Result<f64> {
    match v {
        NVal::Num(x) => Ok(*x),
        NVal::Int(i) => Ok(*i as f64),
        _ => Err(MoaError::Type("expected a number".into())),
    }
}

fn arith(l: &NVal, r: &NVal, op: ArithKind) -> Result<NVal> {
    let (a, b) = (num_of(l)?, num_of(r)?);
    Ok(NVal::Num(match op {
        ArithKind::Add => a + b,
        ArithKind::Sub => a - b,
        ArithKind::Mul => a * b,
        ArithKind::Div => a / b,
    }))
}

/// Compare naive output with flattened output, normalising pair order and
/// rounding floats to nine decimals.
// not every suite that includes the oracle compares whole outputs
#[allow(dead_code)]
pub fn outputs_equivalent(a: &QueryOutput, b: &QueryOutput) -> bool {
    fn norm(o: &QueryOutput) -> Vec<(Oid, String)> {
        match o {
            QueryOutput::Oids(v) => v.iter().map(|&o| (o, String::new())).collect(),
            QueryOutput::Pairs(p) => {
                let mut v: Vec<(Oid, String)> = p
                    .iter()
                    .map(|(o, val)| {
                        let s = match val {
                            Val::Float(x) => format!("{:.9}", x),
                            other => other.to_string(),
                        };
                        (*o, s)
                    })
                    .collect();
                v.sort();
                v
            }
            QueryOutput::Scalar(v) => vec![(0, v.to_string())],
        }
    }
    norm(a) == norm(b)
}
