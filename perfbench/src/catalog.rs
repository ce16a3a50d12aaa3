//! Inputs of the benchmark: the generated tables, the trained models, and
//! the prediction queries over them.
//!
//! Every table is kept twice: once registered in the engine (the hospital
//! table range-partitioned on `id`), and once as a flat, row-aligned copy
//! the oracle reads without going through the engine. For the star schema
//! the flat copy is the fact table hash-joined with its dimensions here, in
//! plain Rust.

use raven_columnar::{partition_by_column, Batch, Column, DataType, PartitionSpec, Table, Value};
use raven_datagen::Dataset;
use raven_ml::{train_pipeline, ModelType, Pipeline, PipelineSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Seed of every generated table. The catalog and its trained models are
/// the same in every run; a run's `--seed` draws its operation lists
/// (literals, id ranges, point rows, variants and order), so runs of
/// different seeds do comparable work.
pub const DATA_SEED: u64 = 2022;
/// Rows every model is trained on (the head of its scoring table).
pub const TRAIN_ROWS: usize = 20_000;
/// Range partitions of the hospital table, on `id`.
pub const PARTITIONS: usize = 32;
/// The hospital table's name in the engine's catalog.
pub const HOSPITAL: &str = "hospital_stays";

/// Gradient boosting with 60 trees of depth 6 (the paper's GB-60 shape).
pub fn gb60() -> ModelType {
    ModelType::GradientBoosting {
        n_estimators: 60,
        max_depth: 6,
        learning_rate: 0.15,
    }
}

/// A literal in a generated predicate. Literals are integers or multiples
/// of 0.5, so the SQL text and the oracle's `f64` hold the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lit {
    Int(i64),
    Float(f64),
}

impl Lit {
    fn value(self) -> f64 {
        match self {
            Lit::Int(v) => v as f64,
            Lit::Float(v) => v,
        }
    }
}

/// A comparison in a generated predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    Ge,
    Lt,
    Eq,
}

/// One conjunct `d.<column> <cmp> <lit>` of a query's WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub column: &'static str,
    pub cmp: Cmp,
    pub lit: Lit,
}

impl Pred {
    pub fn new(column: &'static str, cmp: Cmp, lit: Lit) -> Pred {
        Pred { column, cmp, lit }
    }

    fn sql(&self) -> String {
        let op = match self.cmp {
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Eq => "=",
        };
        let lit = match self.lit {
            Lit::Int(v) => v.to_string(),
            Lit::Float(v) => format!("{v:.1}"),
        };
        format!("d.{} {op} {lit}", self.column)
    }

    /// Whether the predicate admits a row whose column holds `v`.
    pub fn holds(&self, v: f64) -> bool {
        let lit = self.lit.value();
        match self.cmp {
            Cmp::Ge => v >= lit,
            Cmp::Lt => v < lit,
            Cmp::Eq => v == lit,
        }
    }
}

/// Which catalog a query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// The single hospital table, range-partitioned on `id`.
    Hospital,
    /// The five-table star: `sales` joined with four dimensions.
    Star,
}

/// A prediction query: a model scoring one catalog under a conjunction of
/// input predicates, returning `(id, score)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub source: SourceKind,
    pub model: &'static str,
    pub preds: Vec<Pred>,
}

impl QuerySpec {
    pub fn sql(&self, star_from: &str) -> String {
        let (with, data) = match self.source {
            SourceKind::Hospital => (String::new(), HOSPITAL),
            SourceKind::Star => (format!("WITH data AS (SELECT * FROM {star_from}) "), "data"),
        };
        let preds: Vec<String> = self.preds.iter().map(Pred::sql).collect();
        let mut sql = format!(
            "{with}SELECT d.id, p.score FROM PREDICT(MODEL = {}, DATA = {data} AS d) \
             WITH (score float) AS p",
            self.model
        );
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        sql
    }
}

/// A flat, row-aligned copy of one catalog for the oracle.
pub struct Flat {
    /// The `id` of each flat row (the fact table's id for the star).
    pub ids: Vec<i64>,
    /// Every numeric column, widened to `f64`, in flat row order.
    pub cols: HashMap<String, Vec<f64>>,
    /// The flat rows as a batch holding every model input.
    pub batch: Batch,
}

impl Flat {
    /// Flat copy of a single table.
    pub fn of_table(table: &Table) -> Flat {
        let batch = table.to_batch().expect("table to batch");
        Flat::of_batch(batch)
    }

    fn of_batch(batch: Batch) -> Flat {
        let mut cols = HashMap::new();
        for (i, field) in batch.schema().fields().iter().enumerate() {
            let column = batch.column(i).expect("column");
            if matches!(field.data_type(), DataType::Int64 | DataType::Float64) {
                cols.insert(
                    field.name().to_string(),
                    column.to_f64_vec().expect("numeric"),
                );
            }
        }
        let ids = batch
            .column_by_name("id")
            .expect("id column")
            .as_i64()
            .expect("integer ids")
            .to_vec();
        Flat { ids, cols, batch }
    }

    /// The star schema joined in plain Rust: each dimension's rows are put
    /// in a hash table on its key and probed with the fact table's foreign
    /// key. The dimension's non-key columns are appended to the fact rows.
    pub fn of_star(dataset: &Dataset) -> Flat {
        let fact = dataset.tables[0].to_batch().expect("fact batch");
        let mut joined = fact.clone();
        for (_, fact_key, dim_name, dim_key) in &dataset.joins {
            let dim = dataset
                .tables
                .iter()
                .find(|t| t.name() == dim_name)
                .expect("dimension table")
                .to_batch()
                .expect("dimension batch");
            let build: HashMap<i64, usize> = dim
                .column_by_name(dim_key)
                .expect("dimension key")
                .as_i64()
                .expect("integer key")
                .iter()
                .enumerate()
                .map(|(row, &k)| (k, row))
                .collect();
            let probe: Vec<usize> = fact
                .column_by_name(fact_key)
                .expect("foreign key")
                .as_i64()
                .expect("integer key")
                .iter()
                .map(|k| {
                    *build
                        .get(k)
                        .expect("every foreign key has its dimension row")
                })
                .collect();
            for (i, field) in dim.schema().fields().iter().enumerate() {
                if field.name() == dim_key {
                    continue;
                }
                let gathered = dim.column(i).expect("column").take(&probe).expect("gather");
                joined = joined
                    .with_column(field.clone(), Arc::new(gathered))
                    .expect("append dimension column");
            }
        }
        Flat::of_batch(joined)
    }

    /// The values of flat row `row` for the given columns, as a point row.
    pub fn row(&self, row: usize, columns: &[String]) -> Vec<(String, Value)> {
        columns
            .iter()
            .map(|c| {
                let col: &Column = self.batch.column_by_name(c).expect("point column");
                (c.clone(), col.value(row).expect("point value"))
            })
            .collect()
    }
}

/// Train `model` over the first [`TRAIN_ROWS`] rows of `flat` (offset by
/// `skip` rows, so a second version of a model sees different data).
pub fn train(
    flat: &Flat,
    dataset: &Dataset,
    name: &str,
    model: ModelType,
    skip: usize,
) -> Pipeline {
    let rows = TRAIN_ROWS.min(flat.batch.num_rows() - skip);
    let sample = flat.batch.slice(skip, rows).expect("training sample");
    train_pipeline(
        &sample,
        &PipelineSpec {
            name: name.into(),
            numeric_inputs: dataset.numeric_inputs.clone(),
            categorical_inputs: dataset.categorical_inputs.clone(),
            label: dataset.label.clone(),
            model,
            seed: 13,
        },
    )
    .expect("pipeline training")
}

/// The hospital table range-partitioned on `id`.
pub fn partitioned_hospital(dataset: &Dataset) -> Table {
    partition_by_column(
        &dataset.tables[0],
        &PartitionSpec::ByRange {
            column: "id".into(),
            partitions: PARTITIONS,
        },
    )
    .expect("range partitioning on id")
}

/// The names of a pipeline's inputs (the columns a point row must carry).
pub fn input_names(pipeline: &Pipeline) -> Vec<String> {
    pipeline.inputs.iter().map(|i| i.name.clone()).collect()
}
