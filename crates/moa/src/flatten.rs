//! The flattening compiler: Moa expressions → BAT-algebra plans.
//!
//! Following Boncz/Wilschut/Kersten \[BWK98\], every logical expression over
//! structured objects compiles to a *set-at-a-time* plan over the flattened
//! columns. The compiler threads a *domain restriction* (the set of
//! surviving parent oids, as a `[oid, oid]` plan) through the translation,
//! so relational selections compose with content ranking in one plan — the
//! paper's "efficient integration of IR and data retrieval".

use crate::expr::{ArithKind, CmpOp, Expr, Lit};
use crate::params::QueryParams;
use crate::structure::CallArgs;
use crate::types::{AtomicType, MoaType};
use crate::{Env, MoaError, Result};
use monet::{Agg, ArithOp, Plan, Pred, Val};

/// The compiled representation of a Moa (sub)expression.
#[derive(Debug, Clone)]
pub enum Rep {
    /// A set of rows of collection `coll`; `domain` (if any) is a plan for
    /// the surviving `[oid, oid]` pairs.
    Rows {
        /// Collection name.
        coll: String,
        /// Restriction plan, `None` = the full collection.
        domain: Option<Plan>,
    },
    /// Values aligned to parent oids: the plan yields `[parent_oid, value]`.
    Vals {
        /// The plan.
        plan: Plan,
        /// More than one row per parent possible (a nested set)?
        multi: bool,
        /// The element type of the values.
        ty: MoaType,
        /// The collection whose oids the heads come from.
        coll: String,
        /// Restriction inherited from the input pipeline.
        domain: Option<Plan>,
        /// If the values are child oids of a nested set, the child BAT
        /// prefix (enables attribute access through the nesting).
        child_prefix: Option<String>,
    },
    /// A single scalar (whole-set aggregate); plan yields a 1-row BAT.
    Scalar {
        /// The plan.
        plan: Plan,
        /// The scalar type.
        ty: MoaType,
    },
    /// A bound set of weighted query terms.
    Query(Vec<(String, f64)>),
    /// A reference to collection statistics (resolved by structures).
    Stats(String),
    /// A literal value.
    Lit(Val),
}

/// What `THIS` denotes while compiling the body of a `map`/`select`.
enum ThisBind<'a> {
    /// `THIS` is a row (tuple) of `coll`.
    Row { coll: &'a str, domain: Option<&'a Plan> },
    /// `THIS` is a set of values per parent (body of a map over a nested
    /// result).
    SetOf {
        plan: &'a Plan,
        ty: &'a MoaType,
        coll: &'a str,
        domain: Option<&'a Plan>,
        child_prefix: Option<&'a str>,
    },
    /// `THIS` is one atomic value per parent.
    ValOf { plan: &'a Plan, ty: &'a MoaType, coll: &'a str, domain: Option<&'a Plan> },
}

/// The flattening compiler.
pub struct Compiler<'e> {
    env: &'e Env,
    params: Option<&'e QueryParams>,
}

impl<'e> Compiler<'e> {
    /// Create a compiler over an environment.
    pub fn new(env: &'e Env) -> Self {
        Compiler { env, params: None }
    }

    /// Create a compiler that resolves query bindings from request-scoped
    /// [`QueryParams`] first, falling back to the environment — the
    /// concurrent-serving path, which never touches the shared `Env` maps.
    pub fn with_params(env: &'e Env, params: &'e QueryParams) -> Self {
        Compiler { env, params: Some(params) }
    }

    /// Compile a top-level expression.
    pub fn compile(&self, expr: &Expr) -> Result<Rep> {
        self.comp(expr, None)
    }

    fn comp(&self, expr: &Expr, this: Option<&ThisBind<'_>>) -> Result<Rep> {
        match expr {
            Expr::Lit(Lit::Int(i)) => Ok(Rep::Lit(Val::Int(*i))),
            Expr::Lit(Lit::Float(x)) => Ok(Rep::Lit(Val::Float(*x))),
            Expr::Lit(Lit::Str(s)) => Ok(Rep::Lit(Val::Str(s.clone()))),
            Expr::Ident(name) => self.ident(name),
            Expr::This => self.this_rep(this),
            Expr::Attr(base, field) => self.attr(base, field, this),
            Expr::Map { body, input } => self.map(body, input, this),
            Expr::Select { pred, input } => self.select(pred, input, this),
            Expr::Call { name, args } => self.call(name, args, this),
            Expr::Arith { op, left, right } => self.arith(*op, left, right, this),
            Expr::Cmp { .. } | Expr::And(_, _) | Expr::Or(_, _) => {
                Err(MoaError::Unsupported("comparison outside select[…] predicate".into()))
            }
        }
    }

    fn ident(&self, name: &str) -> Result<Rep> {
        if let Some(terms) = self.params.and_then(|p| p.binding(name)) {
            return Ok(Rep::Query(terms.to_vec()));
        }
        if let Some(terms) = self.env.query_binding(name) {
            return Ok(Rep::Query(terms));
        }
        if name == "stats" || name.ends_with("_stats") {
            return Ok(Rep::Stats(name.to_string()));
        }
        self.env.collection(name)?;
        Ok(Rep::Rows { coll: name.to_string(), domain: None })
    }

    fn this_rep(&self, this: Option<&ThisBind<'_>>) -> Result<Rep> {
        match this {
            Some(ThisBind::Row { coll, domain }) => {
                Ok(Rep::Rows { coll: coll.to_string(), domain: domain.cloned() })
            }
            Some(ThisBind::SetOf { plan, ty, coll, domain, child_prefix }) => Ok(Rep::Vals {
                plan: (*plan).clone(),
                multi: true,
                ty: (*ty).clone(),
                coll: coll.to_string(),
                domain: domain.cloned(),
                child_prefix: child_prefix.map(str::to_string),
            }),
            Some(ThisBind::ValOf { plan, ty, coll, domain }) => Ok(Rep::Vals {
                plan: (*plan).clone(),
                multi: false,
                ty: (*ty).clone(),
                coll: coll.to_string(),
                domain: domain.cloned(),
                child_prefix: None,
            }),
            None => Err(MoaError::Unsupported("THIS outside map/select".into())),
        }
    }

    fn attr(&self, base: &Expr, field: &str, this: Option<&ThisBind<'_>>) -> Result<Rep> {
        let base_rep = self.comp(base, this)?;
        match base_rep {
            Rep::Rows { coll, domain } => {
                let elem = self.env.elem_type(&coll)?;
                let fty = elem
                    .field(field)
                    .ok_or_else(|| {
                        MoaError::Unknown(format!("field '{field}' of collection '{coll}'"))
                    })?
                    .clone();
                match &fty {
                    MoaType::Atomic(_) => {
                        let plan = restrict(Plan::load(format!("{coll}__{field}")), &domain);
                        Ok(Rep::Vals {
                            plan,
                            multi: false,
                            ty: fty,
                            coll,
                            domain,
                            child_prefix: None,
                        })
                    }
                    MoaType::Set(inner) | MoaType::List(inner) => {
                        // child→parent map reversed gives [parent, child oid]
                        let prefix = format!("{coll}__{field}");
                        let to_children = restrict(
                            Plan::Reverse(Box::new(Plan::load(format!("{prefix}__map")))),
                            &domain,
                        );
                        match &**inner {
                            // set of atoms: fetch the element values
                            MoaType::Atomic(_) => Ok(Rep::Vals {
                                plan: Plan::Join {
                                    left: Box::new(to_children),
                                    right: Box::new(Plan::load(format!("{prefix}__elem"))),
                                },
                                multi: true,
                                ty: (**inner).clone(),
                                coll,
                                domain,
                                child_prefix: None,
                            }),
                            // set of tuples: keep child oids, remember the
                            // prefix so field access can join later
                            _ => Ok(Rep::Vals {
                                plan: to_children,
                                multi: true,
                                ty: (**inner).clone(),
                                coll,
                                domain,
                                child_prefix: Some(prefix),
                            }),
                        }
                    }
                    MoaType::Ext { .. } => Err(MoaError::Unsupported(format!(
                        "extension attribute '{field}' can only be used through its methods (e.g. getBL)"
                    ))),
                    MoaType::Tuple(_) => Err(MoaError::Unsupported(format!(
                        "direct access to inline tuple '{field}'; access its fields instead"
                    ))),
                }
            }
            Rep::Vals { plan, multi, ty, coll, domain, child_prefix } => {
                // attribute of nested set elements: join child oids to the
                // child attribute BAT, keeping parent heads
                let prefix = child_prefix.ok_or_else(|| {
                    MoaError::Unsupported(format!("attribute '{field}' on non-tuple values"))
                })?;
                let fty = ty
                    .field(field)
                    .ok_or_else(|| {
                        MoaError::Unknown(format!("field '{field}' of nested set '{prefix}'"))
                    })?
                    .clone();
                if !matches!(fty, MoaType::Atomic(_)) {
                    return Err(MoaError::Unsupported(
                        "attribute chains deeper than one nested set".into(),
                    ));
                }
                let joined = Plan::Join {
                    left: Box::new(plan),
                    right: Box::new(Plan::load(format!("{prefix}__{field}"))),
                };
                Ok(Rep::Vals { plan: joined, multi, ty: fty, coll, domain, child_prefix: None })
            }
            other => {
                Err(MoaError::Unsupported(format!("attribute access on {}", rep_kind(&other))))
            }
        }
    }

    fn map(&self, body: &Expr, input: &Expr, this: Option<&ThisBind<'_>>) -> Result<Rep> {
        let input_rep = self.comp(input, this)?;
        match input_rep {
            Rep::Rows { coll, domain } => {
                let bind = ThisBind::Row { coll: &coll, domain: domain.as_ref() };
                let out = self.comp(body, Some(&bind))?;
                match out {
                    v @ Rep::Vals { .. } => Ok(v),
                    // map[THIS](C) — identity
                    Rep::Rows { coll, domain } => Ok(Rep::Rows { coll, domain }),
                    // map[0.5](C) — constant per row
                    Rep::Lit(v) => {
                        let ident = identity_plan(&coll, &domain);
                        Ok(Rep::Vals {
                            plan: Plan::ProjectConst { input: Box::new(ident), val: v.clone() },
                            multi: false,
                            ty: lit_type(&v),
                            coll,
                            domain,
                            child_prefix: None,
                        })
                    }
                    other => Err(MoaError::Unsupported(format!(
                        "map body produced {}",
                        rep_kind(&other)
                    ))),
                }
            }
            Rep::Vals { plan, multi, ty, coll, domain, child_prefix } => {
                let bind = if multi {
                    ThisBind::SetOf {
                        plan: &plan,
                        ty: &ty,
                        coll: &coll,
                        domain: domain.as_ref(),
                        child_prefix: child_prefix.as_deref(),
                    }
                } else {
                    ThisBind::ValOf { plan: &plan, ty: &ty, coll: &coll, domain: domain.as_ref() }
                };
                self.comp(body, Some(&bind))
            }
            other => Err(MoaError::Unsupported(format!("map over {}", rep_kind(&other)))),
        }
    }

    fn select(&self, pred: &Expr, input: &Expr, this: Option<&ThisBind<'_>>) -> Result<Rep> {
        let input_rep = self.comp(input, this)?;
        match input_rep {
            Rep::Rows { coll, domain } => {
                let new_domain = self.compile_pred(pred, &coll, &domain)?;
                let combined = match domain {
                    Some(d) => Plan::Semijoin { left: Box::new(new_domain), right: Box::new(d) },
                    None => new_domain,
                };
                Ok(Rep::Rows { coll, domain: Some(combined) })
            }
            // Selection over an already-mapped set. Two cases:
            //  * the predicate tests the mapped values themselves
            //    (`select[THIS > 0.5](map[…](C))`) — a tail select;
            //  * the predicate tests row attributes of the underlying
            //    collection — *late filtering*: evaluate the map over
            //    everything, then semijoin with the qualifying rows. The
            //    pushdown rewrite turns this shape into early filtering;
            //    `OptConfig::none()` keeps the late form as the reference.
            Rep::Vals { plan, multi, ty, coll, domain, child_prefix } => {
                if pred.uses_bare_this() {
                    let filtered = self.value_pred(pred, plan)?;
                    Ok(Rep::Vals { plan: filtered, multi, ty, coll, domain, child_prefix })
                } else {
                    let survivors = self.compile_pred(pred, &coll, &None)?;
                    Ok(Rep::Vals {
                        plan: Plan::Semijoin { left: Box::new(plan), right: Box::new(survivors) },
                        multi,
                        ty,
                        coll,
                        domain,
                        child_prefix,
                    })
                }
            }
            other => Err(MoaError::Unsupported(format!("select over {}", rep_kind(&other)))),
        }
    }

    /// Compile a predicate over the mapped values (`THIS` = the value) into
    /// a tail selection on the values plan.
    fn value_pred(&self, pred: &Expr, plan: Plan) -> Result<Plan> {
        let Expr::Cmp { op, left, right } = pred else {
            return Err(MoaError::Unsupported(
                "value predicates must be a single comparison with THIS".into(),
            ));
        };
        let (op, lit) = match (&**left, &**right) {
            (Expr::This, Expr::Lit(l)) => (*op, l.clone()),
            (Expr::Lit(l), Expr::This) => (flip(*op), l.clone()),
            _ => {
                return Err(MoaError::Unsupported(
                    "value predicates must compare THIS with a literal".into(),
                ))
            }
        };
        let lit = match lit {
            Lit::Int(i) => Val::Int(i),
            Lit::Float(x) => Val::Float(x),
            Lit::Str(s) => Val::Str(s),
        };
        let p = match op {
            CmpOp::Eq => Pred::Eq(lit),
            CmpOp::Ne => return Err(MoaError::Unsupported("THIS != literal on values".into())),
            CmpOp::Lt => Pred::Range { lo: None, lo_incl: true, hi: Some(lit), hi_incl: false },
            CmpOp::Le => Pred::Range { lo: None, lo_incl: true, hi: Some(lit), hi_incl: true },
            CmpOp::Gt => Pred::Range { lo: Some(lit), lo_incl: false, hi: None, hi_incl: true },
            CmpOp::Ge => Pred::Range { lo: Some(lit), lo_incl: true, hi: None, hi_incl: true },
        };
        Ok(Plan::Select { input: Box::new(plan), pred: p })
    }

    /// Compile a predicate into a `[oid, oid]` survivors plan.
    fn compile_pred(&self, pred: &Expr, coll: &str, domain: &Option<Plan>) -> Result<Plan> {
        match pred {
            Expr::And(l, r) => {
                let lp = self.compile_pred(l, coll, domain)?;
                let rp = self.compile_pred(r, coll, domain)?;
                Ok(Plan::Semijoin { left: Box::new(lp), right: Box::new(rp) })
            }
            Expr::Or(l, r) => {
                let lp = self.compile_pred(l, coll, domain)?;
                let rp = self.compile_pred(r, coll, domain)?;
                Ok(Plan::KUnion { left: Box::new(lp), right: Box::new(rp) })
            }
            Expr::Cmp { op, left, right } => {
                let bind = ThisBind::Row { coll, domain: domain.as_ref() };
                let lrep = self.comp(left, Some(&bind))?;
                let rrep = self.comp(right, Some(&bind))?;
                let (vals_plan, lit) = match (lrep, rrep) {
                    (Rep::Vals { plan, multi: false, .. }, Rep::Lit(v)) => (plan, v),
                    (Rep::Lit(v), Rep::Vals { plan, multi: false, .. }) => {
                        // flip the comparison
                        let flipped = flip(*op);
                        return self.pred_from_plan(plan, flipped, v, coll);
                    }
                    _ => {
                        return Err(MoaError::Unsupported(
                            "predicates must compare an attribute with a literal".into(),
                        ))
                    }
                };
                self.pred_from_plan(vals_plan, *op, lit, coll)
            }
            Expr::Call { name, args } if name == "contains" => {
                let bind = ThisBind::Row { coll, domain: domain.as_ref() };
                if args.len() != 2 {
                    return Err(MoaError::Type("contains(attr, \"pat\") needs 2 args".into()));
                }
                let attr = self.comp(&args[0], Some(&bind))?;
                let pat = self.comp(&args[1], Some(&bind))?;
                let (Rep::Vals { plan, multi: false, .. }, Rep::Lit(Val::Str(p))) = (attr, pat)
                else {
                    return Err(MoaError::Type(
                        "contains needs an atomic attribute and a string literal".into(),
                    ));
                };
                Ok(Plan::Mirror(Box::new(Plan::Select {
                    input: Box::new(plan),
                    pred: Pred::StrContains(p),
                })))
            }
            other => Err(MoaError::Unsupported(format!("predicate expression {other}"))),
        }
    }

    fn pred_from_plan(&self, plan: Plan, op: CmpOp, lit: Val, coll: &str) -> Result<Plan> {
        let selected = match op {
            CmpOp::Eq => Plan::Select { input: Box::new(plan), pred: Pred::Eq(lit) },
            CmpOp::Ne => {
                let eq = Plan::Mirror(Box::new(Plan::Select {
                    input: Box::new(plan),
                    pred: Pred::Eq(lit),
                }));
                let all = Plan::load(format!("{coll}__self"));
                return Ok(Plan::KDiff { left: Box::new(all), right: Box::new(eq) });
            }
            CmpOp::Lt => Plan::Select {
                input: Box::new(plan),
                pred: Pred::Range { lo: None, lo_incl: true, hi: Some(lit), hi_incl: false },
            },
            CmpOp::Le => Plan::Select {
                input: Box::new(plan),
                pred: Pred::Range { lo: None, lo_incl: true, hi: Some(lit), hi_incl: true },
            },
            CmpOp::Gt => Plan::Select {
                input: Box::new(plan),
                pred: Pred::Range { lo: Some(lit), lo_incl: false, hi: None, hi_incl: true },
            },
            CmpOp::Ge => Plan::Select {
                input: Box::new(plan),
                pred: Pred::Range { lo: Some(lit), lo_incl: true, hi: None, hi_incl: true },
            },
        };
        Ok(Plan::Mirror(Box::new(selected)))
    }

    fn call(&self, name: &str, args: &[Expr], this: Option<&ThisBind<'_>>) -> Result<Rep> {
        match name {
            "sum" | "count" | "min" | "max" | "avg" => self.aggregate(name, args, this),
            "getBL" => self.get_bl(args, this),
            "topk" => self.topk(args, this),
            other => {
                // extension-structure method: getXYZ(THIS.field, …)
                if let Some(Expr::Attr(base, field)) = args.first() {
                    if matches!(**base, Expr::This) {
                        return self.ext_method(other, field, args, this);
                    }
                }
                Err(MoaError::Unknown(format!("function '{other}'")))
            }
        }
    }

    fn aggregate(&self, name: &str, args: &[Expr], this: Option<&ThisBind<'_>>) -> Result<Rep> {
        if args.len() != 1 {
            return Err(MoaError::Type(format!("{name}() takes exactly one argument")));
        }
        let agg = match name {
            "sum" => Agg::Sum,
            "count" => Agg::Count,
            "min" => Agg::Min,
            "max" => Agg::Max,
            "avg" => Agg::Avg,
            _ => unreachable!("checked by caller"),
        };
        let arg = self.comp(&args[0], this)?;
        match arg {
            // aggregate of a nested set, per parent object
            Rep::Vals { plan, multi: true, coll, domain, .. } => {
                let groups = identity_plan(&coll, &domain);
                let mut out =
                    Plan::GroupedAggr { values: Box::new(plan), groups: Box::new(groups), agg };
                if let Some(d) = &domain {
                    out = Plan::Semijoin { left: Box::new(out), right: Box::new(d.clone()) };
                }
                let ty = if agg == Agg::Count {
                    MoaType::Atomic(AtomicType::Int)
                } else {
                    MoaType::Atomic(AtomicType::Float)
                };
                Ok(Rep::Vals { plan: out, multi: false, ty, coll, domain, child_prefix: None })
            }
            // aggregate of a per-object value set → one scalar
            Rep::Vals { plan, multi: false, .. } => {
                let ty = if agg == Agg::Count {
                    MoaType::Atomic(AtomicType::Int)
                } else {
                    MoaType::Atomic(AtomicType::Float)
                };
                Ok(Rep::Scalar { plan: Plan::Aggr { input: Box::new(plan), agg }, ty })
            }
            // count(Collection)
            Rep::Rows { coll, domain } => {
                if agg != Agg::Count {
                    return Err(MoaError::Type(format!(
                        "{name}() over rows; project an attribute first"
                    )));
                }
                let ident = identity_plan(&coll, &domain);
                Ok(Rep::Scalar {
                    plan: Plan::Aggr { input: Box::new(ident), agg },
                    ty: MoaType::Atomic(AtomicType::Int),
                })
            }
            other => Err(MoaError::Unsupported(format!("{name}() over {}", rep_kind(&other)))),
        }
    }

    fn get_bl(&self, args: &[Expr], this: Option<&ThisBind<'_>>) -> Result<Rep> {
        if args.is_empty() {
            return Err(MoaError::Type("getBL(THIS.field, query, stats) needs arguments".into()));
        }
        let Expr::Attr(base, field) = &args[0] else {
            return Err(MoaError::Type("getBL's first argument must be THIS.field".into()));
        };
        if !matches!(**base, Expr::This) {
            return Err(MoaError::Type("getBL's first argument must be THIS.field".into()));
        }
        self.ext_method("getBL", field, args, this)
    }

    /// Compile an extension-structure method call.
    fn ext_method(
        &self,
        method: &str,
        field: &str,
        args: &[Expr],
        this: Option<&ThisBind<'_>>,
    ) -> Result<Rep> {
        let Some(ThisBind::Row { coll, domain }) = this else {
            return Err(MoaError::Unsupported(format!(
                "{method}() must appear in a map over a collection"
            )));
        };
        let elem = self.env.elem_type(coll)?;
        let fty = elem
            .field(field)
            .ok_or_else(|| MoaError::Unknown(format!("field '{field}' of '{coll}'")))?;
        let MoaType::Ext { name: sname, .. } = fty else {
            return Err(MoaError::Type(format!(
                "{method}() needs an extension-typed attribute, '{field}' is {fty}"
            )));
        };
        let structure = self.env.structures().get(sname)?;
        // collect query/stats/extra arguments
        let mut query: Option<Vec<(String, f64)>> = None;
        let mut stats: Option<String> = None;
        let mut extra: Vec<Val> = Vec::new();
        for a in &args[1..] {
            match self.comp(a, this)? {
                Rep::Query(terms) => query = Some(terms),
                Rep::Stats(s) => stats = Some(s),
                Rep::Lit(v) => extra.push(v),
                other => {
                    return Err(MoaError::Unsupported(format!(
                        "{method}() argument {}",
                        rep_kind(&other)
                    )))
                }
            }
        }
        let prefix = format!("{coll}__{field}");
        let call_args = CallArgs {
            query: query.as_deref(),
            stats: stats.as_deref(),
            domain: domain.as_deref().map(|d| d as &Plan),
            extra,
        };
        let plan = structure.compile_call(method, &prefix, &call_args)?;
        let elem_ty = structure.method_result_elem(method)?;
        Ok(Rep::Vals {
            plan,
            multi: true,
            ty: elem_ty,
            coll: coll.to_string(),
            domain: domain.cloned(),
            child_prefix: None,
        })
    }

    fn topk(&self, args: &[Expr], this: Option<&ThisBind<'_>>) -> Result<Rep> {
        if args.len() != 2 {
            return Err(MoaError::Type("topk(expr, k) takes 2 arguments".into()));
        }
        let k = match self.comp(&args[1], this)? {
            Rep::Lit(Val::Int(i)) if i >= 0 => i as usize,
            _ => return Err(MoaError::Type("topk's second argument must be an int".into())),
        };
        match self.comp(&args[0], this)? {
            Rep::Vals { plan, multi: false, ty, coll, domain, .. } => Ok(Rep::Vals {
                plan: Plan::TopN { input: Box::new(plan), k, desc: true },
                multi: false,
                ty,
                coll,
                domain,
                child_prefix: None,
            }),
            other => Err(MoaError::Unsupported(format!("topk over {}", rep_kind(&other)))),
        }
    }

    fn arith(
        &self,
        op: ArithKind,
        left: &Expr,
        right: &Expr,
        this: Option<&ThisBind<'_>>,
    ) -> Result<Rep> {
        let l = self.comp(left, this)?;
        let r = self.comp(right, this)?;
        let phys = match op {
            ArithKind::Add => ArithOp::Add,
            ArithKind::Sub => ArithOp::Sub,
            ArithKind::Mul => ArithOp::Mul,
            ArithKind::Div => ArithOp::Div,
        };
        match (l, r) {
            (Rep::Vals { plan, multi, coll, domain, .. }, Rep::Lit(v)) => Ok(Rep::Vals {
                plan: Plan::ArithConst { input: Box::new(plan), op: phys, val: v },
                multi,
                ty: MoaType::Atomic(AtomicType::Float),
                coll,
                domain,
                child_prefix: None,
            }),
            (Rep::Lit(v), Rep::Vals { plan, multi, coll, domain, .. }) => {
                // a ∘ X: only commutative ops can swap; for sub/div fold via
                // two steps: (X * -1 + a), (1/X * a) are messier — reject.
                match phys {
                    ArithOp::Add | ArithOp::Mul => Ok(Rep::Vals {
                        plan: Plan::ArithConst { input: Box::new(plan), op: phys, val: v },
                        multi,
                        ty: MoaType::Atomic(AtomicType::Float),
                        coll,
                        domain,
                        child_prefix: None,
                    }),
                    _ => Err(MoaError::Unsupported(
                        "literal on the left of - or / (rewrite the expression)".into(),
                    )),
                }
            }
            (
                Rep::Vals { plan: lp, multi: lm, coll, domain, .. },
                Rep::Vals { plan: rp, multi: rm, .. },
            ) => Ok(Rep::Vals {
                plan: Plan::Arith { left: Box::new(lp), right: Box::new(rp), op: phys },
                multi: lm || rm,
                ty: MoaType::Atomic(AtomicType::Float),
                coll,
                domain,
                child_prefix: None,
            }),
            (a, b) => Err(MoaError::Unsupported(format!(
                "arithmetic between {} and {}",
                rep_kind(&a),
                rep_kind(&b)
            ))),
        }
    }
}

/// The `[oid, oid]` identity of a (possibly restricted) collection.
pub(crate) fn identity_plan(coll: &str, domain: &Option<Plan>) -> Plan {
    match domain {
        Some(d) => d.clone(),
        None => Plan::load(format!("{coll}__self")),
    }
}

/// Restrict a `[oid, value]` plan to a domain, if one is present.
fn restrict(plan: Plan, domain: &Option<Plan>) -> Plan {
    match domain {
        Some(d) => Plan::Semijoin { left: Box::new(plan), right: Box::new(d.clone()) },
        None => plan,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

fn lit_type(v: &Val) -> MoaType {
    match v {
        Val::Int(_) | Val::Oid(_) => MoaType::Atomic(AtomicType::Int),
        Val::Float(_) => MoaType::Atomic(AtomicType::Float),
        Val::Str(_) => MoaType::Atomic(AtomicType::Str),
    }
}

fn rep_kind(r: &Rep) -> &'static str {
    match r {
        Rep::Rows { .. } => "a collection",
        Rep::Vals { multi: true, .. } => "a nested value set",
        Rep::Vals { multi: false, .. } => "per-object values",
        Rep::Scalar { .. } => "a scalar",
        Rep::Query(_) => "a query binding",
        Rep::Stats(_) => "a stats binding",
        Rep::Lit(_) => "a literal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_define, parse_expr};
    use crate::value::MoaVal;
    use monet::Executor;

    fn env_with_data() -> Env {
        let env = Env::new();
        let (name, ty) = parse_define(
            "define Lib as SET<TUPLE<
                Atomic<URL>: source,
                Atomic<int>: size,
                Atomic<float>: score,
                SET<TUPLE<Atomic<str>: tag, Atomic<float>: w>>: tags >>;",
        )
        .unwrap();
        let rows = vec![
            MoaVal::Tuple(vec![
                MoaVal::str("u0"),
                MoaVal::Int(100),
                MoaVal::Float(0.9),
                MoaVal::Set(vec![
                    MoaVal::Tuple(vec![MoaVal::str("red"), MoaVal::Float(0.5)]),
                    MoaVal::Tuple(vec![MoaVal::str("sky"), MoaVal::Float(0.25)]),
                ]),
            ]),
            MoaVal::Tuple(vec![
                MoaVal::str("u1"),
                MoaVal::Int(200),
                MoaVal::Float(0.2),
                MoaVal::Set(vec![MoaVal::Tuple(vec![MoaVal::str("sea"), MoaVal::Float(1.0)])]),
            ]),
            MoaVal::Tuple(vec![
                MoaVal::str("u2"),
                MoaVal::Int(300),
                MoaVal::Float(0.6),
                MoaVal::Set(vec![]),
            ]),
        ];
        env.create_collection(name, ty, rows).unwrap();
        env
    }

    fn run_vals(env: &Env, src: &str) -> Vec<(monet::Oid, Val)> {
        let expr = parse_expr(src).unwrap();
        let rep = Compiler::new(env).compile(&expr).unwrap();
        let Rep::Vals { plan, .. } = rep else { panic!("expected Vals") };
        let exec = Executor::new(env.catalog(), env.ops());
        let bat = exec.run_bat(&plan).unwrap();
        bat.to_pairs().into_iter().map(|(h, t)| (h.as_oid().unwrap(), t)).collect()
    }

    #[test]
    fn attribute_projection() {
        let env = env_with_data();
        let out = run_vals(&env, "map[THIS.size](Lib)");
        assert_eq!(out, vec![(0, Val::Int(100)), (1, Val::Int(200)), (2, Val::Int(300))]);
    }

    #[test]
    fn arithmetic_on_attributes() {
        let env = env_with_data();
        let out = run_vals(&env, "map[THIS.size * 2](Lib)");
        assert_eq!(out[1].1, Val::Float(400.0));
        let out2 = run_vals(&env, "map[THIS.size + THIS.size](Lib)");
        assert_eq!(out2[2].1, Val::Float(600.0));
    }

    #[test]
    fn nested_sum_per_object() {
        let env = env_with_data();
        // sum of tag weights per object
        let out = run_vals(&env, "map[sum(map[THIS.w](THIS.tags))](Lib)");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].1, Val::Float(0.75));
        assert_eq!(out[1].1, Val::Float(1.0));
        assert_eq!(out[2].1, Val::Float(0.0)); // empty set sums to 0
    }

    #[test]
    fn nested_count_per_object() {
        let env = env_with_data();
        let out = run_vals(&env, "map[count(THIS.tags)](Lib)");
        assert_eq!(out, vec![(0, Val::Int(2)), (1, Val::Int(1)), (2, Val::Int(0))]);
    }

    #[test]
    fn select_restricts_downstream_map() {
        let env = env_with_data();
        let out = run_vals(&env, "map[THIS.size](select[THIS.score >= 0.5](Lib))");
        let oids: Vec<_> = out.iter().map(|(o, _)| *o).collect();
        assert_eq!(oids, vec![0, 2]);
    }

    #[test]
    fn select_with_conjunction_and_disjunction() {
        let env = env_with_data();
        let out =
            run_vals(&env, "map[THIS.size](select[THIS.score >= 0.5 and THIS.size > 150](Lib))");
        assert_eq!(out, vec![(2, Val::Int(300))]);
        let out2 =
            run_vals(&env, "map[THIS.size](select[THIS.score < 0.3 or THIS.size = 300](Lib))");
        let mut oids: Vec<_> = out2.iter().map(|(o, _)| *o).collect();
        oids.sort();
        assert_eq!(oids, vec![1, 2]);
    }

    #[test]
    fn select_ne_and_contains() {
        let env = env_with_data();
        let out = run_vals(&env, "map[THIS.size](select[THIS.source != \"u1\"](Lib))");
        assert_eq!(out.len(), 2);
        let out2 = run_vals(&env, "map[THIS.size](select[contains(THIS.source, \"2\")](Lib))");
        assert_eq!(out2, vec![(2, Val::Int(300))]);
    }

    #[test]
    fn select_after_select_composes() {
        let env = env_with_data();
        let out = run_vals(
            &env,
            "map[THIS.size](select[THIS.size > 100](select[THIS.score >= 0.5](Lib)))",
        );
        assert_eq!(out, vec![(2, Val::Int(300))]);
    }

    #[test]
    fn scalar_count_of_collection() {
        let env = env_with_data();
        let expr = parse_expr("count(Lib)").unwrap();
        let rep = Compiler::new(&env).compile(&expr).unwrap();
        let Rep::Scalar { plan, .. } = rep else { panic!("expected scalar") };
        let exec = Executor::new(env.catalog(), env.ops());
        let out = exec.run_bat(&plan).unwrap();
        assert_eq!(out.fetch(0).unwrap().1, Val::Int(3));
    }

    #[test]
    fn nested_attr_through_set() {
        let env = env_with_data();
        let out = run_vals(&env, "map[THIS.tags.w](Lib)");
        // parent heads with one row per child
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], (0, Val::Float(0.5)));
        assert_eq!(out[2], (1, Val::Float(1.0)));
    }

    #[test]
    fn topk_wraps_ranking() {
        let env = env_with_data();
        let out = run_vals(&env, "topk(map[THIS.score](Lib), 2)");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (0, Val::Float(0.9)));
        assert_eq!(out[1], (2, Val::Float(0.6)));
    }

    #[test]
    fn errors_for_malformed_queries() {
        let env = env_with_data();
        let c = Compiler::new(&env);
        // THIS outside map
        assert!(c.compile(&parse_expr("THIS.size").unwrap()).is_err());
        // unknown field
        assert!(c.compile(&parse_expr("map[THIS.nope](Lib)").unwrap()).is_err());
        // unknown collection
        assert!(c.compile(&parse_expr("map[THIS.x](Nope)").unwrap()).is_err());
        // cmp outside select
        assert!(c.compile(&parse_expr("map[THIS.size > 3](Lib)").unwrap()).is_err());
        // sum over rows
        assert!(c.compile(&parse_expr("sum(Lib)").unwrap()).is_err());
    }

    #[test]
    fn map_constant_body() {
        let env = env_with_data();
        let out = run_vals(&env, "map[1.5](Lib)");
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, v)| *v == Val::Float(1.5)));
    }
}
