//! The oracle: what each answer must be, computed outside the engine.
//!
//! Predicates are evaluated in plain Rust over the flat copy of a catalog
//! (for the star, the benchmark's own hash join), and the surviving rows'
//! scores are read from a reference scoring of every flat row by the
//! un-optimized trained pipeline through `MlRuntime::run_batch` (the
//! interpreted reference, as in the repository's serving parity tests).
//! The engine's answer must return exactly the surviving ids, with scores
//! bit for bit equal to the reference, or within [`LINEAR_SQL_ULPS`] for a
//! linear model lowered to SQL.

use crate::catalog::{Flat, Pred};
use raven_columnar::Batch;
use raven_ml::{MlRuntime, Pipeline};

/// Largest distance, in units in the last place, allowed between a
/// reference score and a logistic-regression score computed by MLtoSQL,
/// whose generated SQL sums the weighted features in another order.
pub const LINEAR_SQL_ULPS: u64 = 4;

/// A query answer in canonical form: rows sorted by id.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub ids: Vec<i64>,
    pub scores: Vec<f64>,
}

/// Score every flat row with the un-optimized pipeline.
pub fn reference_scores(pipeline: &Pipeline, flat: &Flat) -> Vec<f64> {
    MlRuntime::new()
        .run_batch(pipeline, &flat.batch)
        .expect("reference scoring")
}

/// The answer a query over `flat` must return, given the reference scores
/// of every flat row.
pub fn expected(flat: &Flat, scores: &[f64], preds: &[Pred]) -> Answer {
    let columns: Vec<&Vec<f64>> = preds
        .iter()
        .map(|p| flat.cols.get(p.column).expect("predicate column"))
        .collect();
    let mut rows: Vec<(i64, f64)> = (0..flat.ids.len())
        .filter(|&r| preds.iter().zip(&columns).all(|(p, c)| p.holds(c[r])))
        .map(|r| (flat.ids[r], scores[r]))
        .collect();
    rows.sort_by_key(|&(id, _)| id);
    Answer {
        ids: rows.iter().map(|&(id, _)| id).collect(),
        scores: rows.iter().map(|&(_, s)| s).collect(),
    }
}

/// The engine's `(id, score)` output in canonical form.
pub fn engine_answer(batch: &Batch) -> Result<Answer, String> {
    let ids = batch
        .column_by_name("id")
        .and_then(|c| c.as_i64().map(|v| v.to_vec()))
        .map_err(|e| format!("output has no integer id column: {e}"))?;
    let scores = batch
        .column_by_name("score")
        .and_then(|c| c.to_f64_vec())
        .map_err(|e| format!("output has no numeric score column: {e}"))?;
    let mut rows: Vec<(i64, f64)> = ids.into_iter().zip(scores).collect();
    rows.sort_by_key(|&(id, _)| id);
    Ok(Answer {
        ids: rows.iter().map(|&(id, _)| id).collect(),
        scores: rows.iter().map(|&(_, s)| s).collect(),
    })
}

/// Distance between two finite doubles in units in the last place.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    // map the sign-magnitude bit patterns onto one monotone integer line
    let key = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    key(a).abs_diff(key(b))
}

/// Compare one score with its reference, allowing `ulps` units in the last
/// place (0: bit for bit).
pub fn check_score(got: f64, want: f64, ulps: u64) -> Result<(), String> {
    let ok = if ulps == 0 {
        got.to_bits() == want.to_bits()
    } else {
        ulp_distance(got, want) <= ulps
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "score {got:e} differs from the reference {want:e} by {} ulp (allowed {ulps})",
            ulp_distance(got, want)
        ))
    }
}

/// Compare an answer with the oracle's.
pub fn check(got: &Answer, want: &Answer, ulps: u64) -> Result<(), String> {
    if got.ids != want.ids {
        let missing = want
            .ids
            .iter()
            .find(|id| got.ids.binary_search(id).is_err());
        let extra = got
            .ids
            .iter()
            .find(|id| want.ids.binary_search(id).is_err());
        return Err(format!(
            "{} rows returned, {} expected (first missing id {missing:?}, first extra id {extra:?})",
            got.ids.len(),
            want.ids.len()
        ));
    }
    for ((id, &g), &w) in got.ids.iter().zip(&got.scores).zip(&want.scores) {
        check_score(g, w, ulps).map_err(|e| format!("row id {id}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Cmp, Lit, Pred, QuerySpec, SourceKind};
    use raven_core::{RavenConfig, RavenSession};
    use raven_ml::ModelType;

    const GB: ModelType = ModelType::GradientBoosting {
        n_estimators: 8,
        max_depth: 4,
        learning_rate: 0.2,
    };

    struct Fixture {
        flat: catalog::Flat,
        v1: raven_ml::Pipeline,
        v2: raven_ml::Pipeline,
        session: RavenSession,
        query: QuerySpec,
    }

    fn fixture() -> Fixture {
        let data = raven_datagen::hospital(6_000, 3);
        let flat = catalog::Flat::of_table(&data.tables[0]);
        let v1 = catalog::train(&flat, &data, "hosp_gb", GB, 0);
        let v2 = catalog::train(&flat, &data, "hosp_gb", GB, 3_000);
        let mut session = RavenSession::with_config(RavenConfig {
            enable_partition_models: true,
            ..RavenConfig::default()
        });
        session.register_table(catalog::partitioned_hospital(&data));
        session.register_model(v1.clone());
        let query = QuerySpec {
            source: SourceKind::Hospital,
            model: "hosp_gb",
            preds: vec![
                Pred::new("asthma", Cmp::Eq, Lit::Int(1)),
                Pred::new("id", Cmp::Lt, Lit::Int(4_000)),
            ],
        };
        Fixture {
            flat,
            v1,
            v2,
            session,
            query,
        }
    }

    fn engine(f: &Fixture) -> Answer {
        let out = f.session.sql(&f.query.sql("")).expect("query");
        engine_answer(&out.batch).expect("answer")
    }

    #[test]
    fn engine_answer_matches_the_oracle() {
        let f = fixture();
        let want = expected(&f.flat, &reference_scores(&f.v1, &f.flat), &f.query.preds);
        assert!(want.ids.len() > 100);
        check(&engine(&f), &want, 0).expect("engine agrees with the oracle");
    }

    #[test]
    fn oracle_rejects_a_flipped_score_bit() {
        let f = fixture();
        let want = expected(&f.flat, &reference_scores(&f.v1, &f.flat), &f.query.preds);
        let mut got = engine(&f);
        got.scores[7] = f64::from_bits(got.scores[7].to_bits() ^ 1);
        assert!(check(&got, &want, 0).is_err());
        // a bound of some ulps admits it, which is why tree models get none
        assert!(check(&got, &want, LINEAR_SQL_ULPS).is_ok());
    }

    #[test]
    fn oracle_rejects_a_dropped_row() {
        let f = fixture();
        let want = expected(&f.flat, &reference_scores(&f.v1, &f.flat), &f.query.preds);
        let mut got = engine(&f);
        got.ids.remove(3);
        got.scores.remove(3);
        assert!(check(&got, &want, 0).is_err());
    }

    #[test]
    fn oracle_rejects_the_old_version_after_an_acked_write() {
        let mut f = fixture();
        let stale = engine(&f);
        f.session.register_model(f.v2.clone());
        let want_v2 = expected(&f.flat, &reference_scores(&f.v2, &f.flat), &f.query.preds);
        check(&engine(&f), &want_v2, 0).expect("the new version's answers");
        assert!(
            check(&stale, &want_v2, 0).is_err(),
            "a stale read is caught"
        );
    }

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 3)), 3);
        assert_eq!(ulp_distance(-0.0, 0.0), 0);
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 2);
    }
}
