//! Seeded input generation: many-key quote tables with random-walk
//! prices, and the standing queries the workloads run over them.

use sqlts_relation::{ColumnType, Schema};

/// The channel schema every workload feeds (`ci/server_smoke.py`'s).
pub const SCHEMA: &str = "name:str,day:int,price:float";

/// The `(X, *Y, Z)` query from `ci/server_smoke.py`: a rising run
/// followed by a fall, per name.
pub const QUERY: &str = "SELECT X.name, Z.day AS day FROM quote \
     CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
     WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

/// The `SHARED_QUERIES` family from `ci/server_smoke.py`: eight queries
/// with a common predicate prefix and a member-specific tail.
pub fn shared_queries() -> Vec<String> {
    (0..8)
        .map(|i| {
            format!(
                "SELECT X.name, Z.day AS day FROM quote \
                 CLUSTER BY name SEQUENCE BY day AS (X, Y, Z) \
                 WHERE X.price > 95 AND Y.price > 90 AND Z.price < {}",
                100 + i
            )
        })
        .collect()
}

pub fn schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .expect("static schema")
}

/// SplitMix64: small, fast and fully determined by its seed.
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
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Headerless CSV rows for `keys` names over `days` days, day-major (all
/// names for day 0, then day 1, ...), so any prefix of the feed is a
/// valid time-ordered stream for every name.  Prices are a per-name
/// random walk in cents that reverts towards 100.00 (a pull of 1/20 of
/// the gap per day) and is reflected into [80.00, 120.00]: the
/// `SHARED_QUERIES` thresholds around 100 stay selective, and match
/// counts settle quickly, so they vary little from seed to seed.
pub fn quote_rows(seed: u64, keys: usize, days: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut cents: Vec<i64> = (0..keys).map(|_| 9000 + rng.below(2001) as i64).collect();
    let mut rows = Vec::with_capacity(keys * days);
    for day in 0..days {
        for (k, price) in cents.iter_mut().enumerate() {
            *price += rng.below(301) as i64 - 150 - (*price - 10000) / 20;
            if *price < 8000 {
                *price = 16000 - *price;
            } else if *price > 12000 {
                *price = 24000 - *price;
            }
            rows.push(format!(
                "K{k:03},{day},{}.{:02}",
                *price / 100,
                *price % 100
            ));
        }
    }
    rows
}

/// The rows as a CSV document with a header line.
pub fn to_csv(rows: &[String]) -> String {
    let mut csv = String::with_capacity(rows.iter().map(|r| r.len() + 1).sum::<usize>() + 16);
    csv.push_str("name,day,price\n");
    for row in rows {
        csv.push_str(row);
        csv.push('\n');
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_prices_stay_in_band() {
        let a = quote_rows(7, 5, 200);
        assert_eq!(a, quote_rows(7, 5, 200));
        assert_ne!(a, quote_rows(8, 5, 200));
        for row in &a {
            let price: f64 = row.rsplit(',').next().unwrap().parse().unwrap();
            assert!((80.0..=120.0).contains(&price), "{row}");
        }
    }

    #[test]
    fn rows_load_under_the_schema() {
        let csv = to_csv(&quote_rows(1, 3, 10));
        let table = sqlts_relation::Table::from_csv_str(schema(), &csv).unwrap();
        assert_eq!(table.len(), 30);
    }
}
