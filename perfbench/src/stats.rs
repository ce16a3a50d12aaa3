//! Latency samples, percentiles, and the per-round accounting every
//! workload reports from.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// Rounds during which the hypervisor stole more than this share of the
/// host's CPU time are set aside: their figures measure the host, not the
/// program. A run whose every round was stolen from reports all of them.
pub const STEAL_MAX: f64 = 0.03;
/// Fewest samples for which a tail is reported (below it the tail would
/// sit on the median's doorstep).
pub const TAIL_MIN_SAMPLES: usize = 40;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (lower middle for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    s[(s.len() - 1) / 2]
}

/// Index, in ascending order, of the highest sample that still has
/// [`TAIL_BEYOND`] samples beyond it. `None` below [`TAIL_MIN_SAMPLES`].
pub fn tail_rank(n: usize) -> Option<usize> {
    (n >= TAIL_MIN_SAMPLES).then(|| n - TAIL_BEYOND - 1)
}

/// The tail sample of `v` (see [`tail_rank`]).
pub fn tail(v: &[f64]) -> Option<f64> {
    tail_rank(v.len()).map(|r| sorted(v)[r])
}

/// What one round of a workload's operation list measured. Latencies are
/// in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Latency of each single SQL request or ad-hoc query.
    pub sql: Vec<f64>,
    /// The query class of each `sql` sample (see `Plan::classes`).
    pub sql_class: Vec<u32>,
    /// Rows each single SQL operation covered (its input table's rows,
    /// pruned partitions included).
    pub covered_rows: f64,
    /// Latency of each point request.
    pub point: Vec<f64>,
    /// First submit to last answer of each burst.
    pub burst: Vec<f64>,
    /// Latency of each registration until acknowledged.
    pub write: Vec<f64>,
    /// Reopen until the first correct answer, per restart.
    pub restart: Vec<f64>,
    /// Operations completed (burst members and writes count one each;
    /// restarts are timed apart and not counted here).
    pub ops: u64,
    /// Wall time of the round's operations in seconds, answer checks,
    /// restarts and between-round upkeep excluded.
    pub wall: f64,
    /// Share of CPU time the hypervisor stole during the round.
    pub steal: f64,
}

/// All rounds of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub rounds: Vec<Round>,
}

impl Phase {
    /// The rounds the figures are taken from (see [`STEAL_MAX`]).
    fn counted(&self) -> Vec<&Round> {
        let clean: Vec<&Round> = self
            .rounds
            .iter()
            .filter(|r| r.steal <= STEAL_MAX)
            .collect();
        if clean.is_empty() {
            self.rounds.iter().collect()
        } else {
            clean
        }
    }

    /// Rounds set aside for CPU steal.
    pub fn set_aside(&self) -> usize {
        self.rounds.len() - self.counted().len()
    }

    fn pooled(&self, f: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
        self.counted()
            .into_iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    }

    /// Wall time of all rounds (a run measures until it reaches its length).
    pub fn wall(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// Operations of all rounds (every one was attempted and checked).
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Operations completed per second: the median over rounds of each
    /// round's operations over its wall time. A mean over the whole phase
    /// would move with every second the host ran slow; the median round
    /// does not.
    pub fn qps(&self) -> f64 {
        let per_round: Vec<f64> = self
            .counted()
            .iter()
            .map(|r| r.ops as f64 / r.wall.max(1e-9))
            .collect();
        median(&per_round)
    }

    /// Covered rows per second of single-SQL latency: the median over
    /// rounds of each round's covered rows over its summed SQL latency.
    pub fn rows_per_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .counted()
            .iter()
            .map(|r| r.covered_rows / (r.sql.iter().sum::<f64>() / 1e3).max(1e-12))
            .collect();
        median(&per_round)
    }

    pub fn sql(&self) -> Vec<f64> {
        self.pooled(|r| &r.sql)
    }

    /// Median over query classes of each class's median SQL latency. With
    /// one class this is the plain median. A mix of templates whose
    /// latencies differ has no stable pooled median: it sits on the edge
    /// between two templates and jumps between them from run to run.
    pub fn sql_p50(&self) -> f64 {
        let mut by_class: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for r in self.counted() {
            for (&v, &c) in r.sql.iter().zip(&r.sql_class) {
                by_class.entry(c).or_default().push(v);
            }
        }
        let medians: Vec<f64> = by_class.values().map(|v| median(v)).collect();
        median(&medians)
    }

    pub fn point(&self) -> Vec<f64> {
        self.pooled(|r| &r.point)
    }

    pub fn burst(&self) -> Vec<f64> {
        self.pooled(|r| &r.burst)
    }

    pub fn write(&self) -> Vec<f64> {
        self.pooled(|r| &r.write)
    }

    pub fn restart(&self) -> Vec<f64> {
        self.pooled(|r| &r.restart)
    }

    /// Median over rounds of each round's SQL tail. Every round holds the
    /// same operations, so the tail's rank is the same in every round and
    /// does not move with the number of rounds a run completes.
    pub fn sql_tail(&self) -> f64 {
        let tails: Vec<f64> = self.counted().iter().filter_map(|r| tail(&r.sql)).collect();
        median(&tails)
    }

    /// Single SQL samples per round (the same in every round).
    pub fn sql_per_round(&self) -> usize {
        self.rounds.first().map_or(0, |r| r.sql.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(TAIL_MIN_SAMPLES - 1), None);
        for n in [TAIL_MIN_SAMPLES, 100, 128, 180, 1000] {
            let rank = tail_rank(n).expect("enough samples");
            assert_eq!(n - 1 - rank, TAIL_BEYOND, "n = {n}");
        }
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(89.0));
    }

    #[test]
    fn phase_tail_is_per_round() {
        let round = |slow: f64| Round {
            sql: (0..50).map(|i| if i >= 35 { slow } else { 1.0 }).collect(),
            sql_class: vec![0; 50],
            ..Round::default()
        };
        let phase = Phase {
            rounds: vec![round(10.0), round(20.0), round(30.0)],
        };
        // 15 slow samples per round, the tail is the 11th largest: slow
        assert_eq!(phase.sql_tail(), 20.0);
        assert_eq!(median(&phase.sql()), 1.0);
        assert_eq!(phase.sql_p50(), 1.0);
    }

    #[test]
    fn stolen_rounds_are_set_aside_unless_all_are() {
        let round = |wall: f64, steal: f64| Round {
            ops: 10,
            wall,
            steal,
            ..Round::default()
        };
        let mut phase = Phase {
            rounds: vec![round(1.0, 0.0), round(4.0, 0.2), round(2.0, 0.01)],
        };
        assert_eq!(phase.set_aside(), 1);
        // median of the clean rounds' 10 and 5 ops/s (lower middle)
        assert_eq!(phase.qps(), 5.0);
        assert_eq!(phase.ops(), 30, "set-aside rounds still count as attempted");
        phase.rounds.retain(|r| r.steal > STEAL_MAX);
        assert_eq!(phase.set_aside(), 0);
        assert_eq!(phase.qps(), 2.5);
    }

    #[test]
    fn sql_p50_takes_the_median_class() {
        // classes of 2, 4 and 9 ms: the pooled median would sit on the edge
        // between the first two; the class median is the middle class
        let r = Round {
            sql: vec![2.0, 2.1, 4.0, 4.1, 9.0, 9.1],
            sql_class: vec![0, 0, 1, 1, 2, 2],
            ..Round::default()
        };
        let phase = Phase { rounds: vec![r] };
        assert_eq!(phase.sql_p50(), 4.0);
    }
}
