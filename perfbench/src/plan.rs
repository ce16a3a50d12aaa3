//! Seeded operation lists. A run repeats one list in whole rounds, so
//! every round of a run, and every run of a seed, issues the same
//! operations in the same order.

use crate::catalog::{Cmp, Flat, Lit, Pred, QuerySpec, SourceKind};

/// SplitMix64: a small, fixed generator, so op lists never depend on a
/// library's choice of algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One operation of a client's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A SQL query or request: index into [`Plan::queries`].
    Sql(usize),
    /// A point prediction for one row: index into [`Plan::points`].
    Point(usize),
    /// A burst submitted together: index into [`Plan::bursts`].
    Burst(usize),
    /// The n-th registration of a round (models and tables alternate).
    Write(usize),
    /// The k-th variant slot of a round: see [`Plan::variant`].
    Variant(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub queries: Vec<QuerySpec>,
    /// Flat row indices of the point rows.
    pub points: Vec<usize>,
    /// Members of each burst (`Sql` and `Point` ops only).
    pub bursts: Vec<Vec<Op>>,
    /// One list per client thread.
    pub clients: Vec<Vec<Op>>,
    /// The class of each query: its template in `batch_predict` (the
    /// instances of one template differ only in literals), 0 elsewhere.
    pub classes: Vec<u32>,
    /// The cheap hot query of the serving lists and bursts.
    pub hot: usize,
    /// Query indices of the hot query's distinct-literal variants.
    pub variants: Vec<usize>,
    /// Variant slots per round, over all clients.
    pub variants_per_round: usize,
}

impl Plan {
    /// The query a variant slot runs in a round. Rounds walk through the
    /// variant pool, so a variant comes back only after every other one of
    /// the pool has run: far more distinct plans than the plan cache holds.
    pub fn variant(&self, round: usize, slot: usize) -> usize {
        self.variants[(round * self.variants_per_round + slot) % self.variants.len()]
    }
}

/// Requests of each kind in one burst.
pub const BURST_K: usize = 8;
/// Width of the id range the hot query and its variants read.
pub const HOT_SPAN: i64 = 400;
/// Distinct-literal variants of the hot query to draw from: four times the
/// serving plan cache's 64 entries.
pub const VARIANT_POOL: usize = 256;

fn hospital(preds: Vec<Pred>) -> QuerySpec {
    QuerySpec {
        source: SourceKind::Hospital,
        model: "hosp_gb",
        preds,
    }
}

fn star(model: &'static str, preds: Vec<Pred>) -> QuerySpec {
    QuerySpec {
        source: SourceKind::Star,
        model,
        preds,
    }
}

fn ge(c: &'static str, lit: Lit) -> Pred {
    Pred::new(c, Cmp::Ge, lit)
}
fn lt(c: &'static str, lit: Lit) -> Pred {
    Pred::new(c, Cmp::Lt, lit)
}
fn eq(c: &'static str, v: i64) -> Pred {
    Pred::new(c, Cmp::Eq, Lit::Int(v))
}

/// The hot query's shape: an id range of [`HOT_SPAN`] rows among patients
/// with asthma, which the model's pruning specializes on.
fn hot_query(start: i64) -> QuerySpec {
    hospital(vec![
        ge("id", Lit::Int(start)),
        lt("id", Lit::Int(start + HOT_SPAN)),
        eq("asthma", 1),
    ])
}

/// `count` rows of `flat` inside the hot range that satisfy its predicates.
fn hot_rows(flat: &Flat, hot: &QuerySpec, count: usize, rng: &mut Rng) -> Vec<usize> {
    let cols: Vec<&Vec<f64>> = hot.preds.iter().map(|p| &flat.cols[p.column]).collect();
    let mut rows: Vec<usize> = (0..flat.ids.len())
        .filter(|&r| hot.preds.iter().zip(&cols).all(|(p, c)| p.holds(c[r])))
        .collect();
    rng.shuffle(&mut rows);
    rows.truncate(count);
    rows
}

/// Append a query (once) and return its index.
fn add(queries: &mut Vec<QuerySpec>, classes: &mut Vec<u32>, q: QuerySpec, class: u32) -> usize {
    if let Some(i) = queries.iter().position(|x| *x == q) {
        return i;
    }
    queries.push(q);
    classes.push(class);
    queries.len() - 1
}

/// `batch_predict`: one client issuing ad-hoc queries over the hospital
/// table and the star. Literals move a little with the seed; the shape of
/// every query (which partitions, joins and model branches it can prune)
/// does not.
pub fn batch_plan(seed: u64, hosp: &Flat) -> Plan {
    const POINTS: usize = 12;
    const BURSTS: usize = 2;
    const TEMPLATES: u32 = 10;
    let mut rng = Rng::new(seed);
    let rows = hosp.ids.len() as i64;
    let block = rows / crate::catalog::PARTITIONS as i64;
    let mut queries = Vec::new();
    let mut classes = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..4 {
        let j = rng.below(3) as i64;
        let halves: Vec<f64> = (0..3).map(|_| 0.5 * rng.below(4) as f64).collect();
        let a9 = block * (rng.below(20) as i64) + 100 + 100 * j;
        let a5 = block * (rng.below(24) as i64) + 100 + 100 * j;
        let f = |i: usize, base: f64| Lit::Float(base + halves[i]);
        for (t, q) in [
            // model pruning on categorical inputs
            hospital(vec![eq("asthma", 1)]),
            hospital(vec![eq("gender", 0), eq("pneum", 1)]),
            // partition pruning on id, unaligned so 9 and 5 partitions
            // survive whatever the seed
            hospital(vec![
                ge("id", Lit::Int(a9)),
                lt("id", Lit::Int(a9 + 8 * block)),
            ]),
            hospital(vec![
                ge("id", Lit::Int(a5)),
                lt("id", Lit::Int(a5 + 4 * block)),
                eq("asthma", 0),
            ]),
            // a numeric model input
            hospital(vec![ge("age", Lit::Int(70 + j))]),
            // the star: GB-60 on the ML runtime; logistic regression and a
            // shallow tree lowered to SQL, the tree without the dimension
            // joins its features do not need
            star("star_gb", vec![lt("promotions_num0", f(0, 5.0))]),
            star("star_gb", vec![ge("sales_num0", Lit::Int(50 + j))]),
            star("star_lr", vec![lt("customers_num0", f(1, 5.0))]),
            star("star_dt", vec![lt("sales_num0", Lit::Int(60 + j))]),
            star("star_dt", vec![ge("products_num0", f(2, 2.0))]),
        ]
        .into_iter()
        .enumerate()
        {
            let i = add(&mut queries, &mut classes, q, t as u32);
            ops.push(Op::Sql(i));
        }
    }
    let hot = add(
        &mut queries,
        &mut classes,
        hot_query(block * 3 + 250),
        TEMPLATES,
    );
    let points = hot_rows(
        hosp,
        &queries[hot].clone(),
        POINTS + BURSTS * BURST_K,
        &mut rng,
    );
    assert_eq!(
        points.len(),
        POINTS + BURSTS * BURST_K,
        "hot range holds enough point rows"
    );
    let mut bursts = Vec::new();
    for b in 0..BURSTS {
        let first = POINTS + b * BURST_K;
        let mut members = vec![Op::Sql(hot); BURST_K];
        members.extend((first..first + BURST_K).map(Op::Point));
        bursts.push(members);
        ops.push(Op::Burst(b));
    }
    ops.extend((0..POINTS).map(Op::Point));
    rng.shuffle(&mut ops);
    Plan {
        queries,
        points,
        bursts,
        clients: vec![ops],
        classes,
        hot,
        variants: Vec::new(),
        variants_per_round: 0,
    }
}

/// `serve_read`: two clients, each mixing the hot query, distinct-literal
/// variants of it, point rows, and bursts.
pub fn serve_read_plan(seed: u64, flat: &Flat) -> Plan {
    const CLIENTS: usize = 2;
    const HOT: usize = 60;
    const VARIANTS: usize = 20;
    const POINTS: usize = 60;
    const BURSTS: usize = 3;
    let mut rng = Rng::new(seed);
    let rows = flat.ids.len() as i64;
    let mut queries = Vec::new();
    let mut classes = Vec::new();
    let hot_start = (rows / 3) + 50 * rng.below(8) as i64;
    let hot = add(&mut queries, &mut classes, hot_query(hot_start), 0);
    // variant starts: distinct, spread over the table, never the hot one
    let mut starts: Vec<i64> = (0..VARIANT_POOL as i64)
        .map(|v| 7 + v * ((rows - HOT_SPAN) / VARIANT_POOL as i64))
        .filter(|&s| s != hot_start)
        .collect();
    rng.shuffle(&mut starts);
    let variants: Vec<usize> = starts
        .iter()
        .map(|&s| add(&mut queries, &mut classes, hot_query(s), 0))
        .collect();
    let points = hot_rows(flat, &queries[hot].clone(), 64, &mut rng);
    assert_eq!(points.len(), 64, "hot range holds enough point rows");
    let mut bursts = Vec::new();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut ops = vec![Op::Sql(hot); HOT];
        ops.extend((c * VARIANTS..(c + 1) * VARIANTS).map(Op::Variant));
        ops.extend((0..POINTS).map(|_| Op::Point(rng.below(points.len()))));
        for _ in 0..BURSTS {
            let basket = rng.below(points.len() / BURST_K) * BURST_K;
            let mut members = vec![Op::Sql(hot); BURST_K];
            members.extend((basket..basket + BURST_K).map(Op::Point));
            ops.push(Op::Burst(bursts.len()));
            bursts.push(members);
        }
        rng.shuffle(&mut ops);
        clients.push(ops);
    }
    Plan {
        queries,
        points,
        bursts,
        clients,
        classes,
        hot,
        variants,
        variants_per_round: CLIENTS * VARIANTS,
    }
}

/// Registrations per `serve_update` round: half models, half tables. An
/// even number of model writes returns the model to its first version, so
/// every round starts from the same state.
pub const WRITES_PER_ROUND: usize = 32;

/// `serve_update`: one client; each registration is followed by four hot
/// queries and two points, and every fourth by a burst. A quarter of the
/// single SQL requests follow a write: three times the ten samples the
/// tail leaves beyond it.
pub fn serve_update_plan(seed: u64, flat: &Flat) -> Plan {
    let mut rng = Rng::new(seed);
    let rows = flat.ids.len() as i64;
    let mut queries = Vec::new();
    let mut classes = Vec::new();
    let hot = add(
        &mut queries,
        &mut classes,
        hot_query(rows / 3 + 50 * rng.below(8) as i64),
        0,
    );
    let points = hot_rows(flat, &queries[hot].clone(), 64, &mut rng);
    assert_eq!(points.len(), 64, "hot range holds enough point rows");
    let mut ops = Vec::new();
    let mut bursts = Vec::new();
    for w in 0..WRITES_PER_ROUND {
        ops.push(Op::Write(w));
        ops.push(Op::Sql(hot));
        ops.push(Op::Point(rng.below(points.len())));
        ops.push(Op::Sql(hot));
        ops.push(Op::Point(rng.below(points.len())));
        ops.push(Op::Sql(hot));
        ops.push(Op::Sql(hot));
        if w % 4 == 3 {
            let basket = rng.below(points.len() / BURST_K) * BURST_K;
            let mut members = vec![Op::Sql(hot); BURST_K];
            members.extend((basket..basket + BURST_K).map(Op::Point));
            ops.push(Op::Burst(bursts.len()));
            bursts.push(members);
        }
    }
    Plan {
        queries,
        points,
        bursts,
        clients: vec![ops],
        classes,
        hot,
        variants: Vec::new(),
        variants_per_round: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Flat;

    fn flat() -> Flat {
        Flat::of_table(&raven_datagen::hospital(20_000, 7).tables[0])
    }

    #[test]
    fn one_seed_gives_the_same_op_lists() {
        let flat = flat();
        for make in [batch_plan, serve_read_plan, serve_update_plan] {
            let a = make(11, &flat);
            assert_eq!(a, make(11, &flat));
            assert_ne!(a, make(12, &flat), "another seed draws another list");
        }
    }

    #[test]
    fn serve_update_rounds_return_to_the_first_model_version() {
        let plan = serve_update_plan(3, &flat());
        let writes: Vec<usize> = plan.clients[0]
            .iter()
            .filter_map(|op| match op {
                Op::Write(w) => Some(*w),
                _ => None,
            })
            .collect();
        assert_eq!(writes.len(), WRITES_PER_ROUND);
        assert_eq!(writes.iter().filter(|w| *w % 2 == 0).count() % 2, 0);
        // a quarter of the single SQL requests directly follow a write,
        // at least three times the samples beyond the tail rank
        let ops = &plan.clients[0];
        let sql = ops.iter().filter(|op| matches!(op, Op::Sql(_))).count();
        let after_write = ops
            .windows(2)
            .filter(|w| matches!(w[0], Op::Write(_)) && matches!(w[1], Op::Sql(_)))
            .count();
        assert_eq!(after_write * 4, sql);
        assert!(after_write >= 3 * crate::stats::TAIL_BEYOND);
    }

    #[test]
    fn serving_variants_outnumber_the_plan_cache() {
        let plan = serve_read_plan(5, &flat());
        assert!(plan.variants.len() > 64);
        // a variant returns only after every other variant of the pool
        let uses: Vec<usize> = (0..20)
            .flat_map(|r| (0..plan.variants_per_round).map(move |k| (r, k)))
            .map(|(r, k)| plan.variant(r, k))
            .collect();
        for (i, q) in uses.iter().enumerate() {
            if let Some(next) = uses[i + 1..].iter().position(|x| x == q) {
                assert!(next + 1 >= plan.variants.len());
            }
        }
        let per_round: usize = plan
            .clients
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter(|op| matches!(op, Op::Sql(_) | Op::Variant(_)))
                    .count()
            })
            .sum();
        assert!(crate::stats::tail_rank(per_round).is_some());
    }
}
