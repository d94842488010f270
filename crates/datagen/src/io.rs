//! CSV serialization of datasets, including to/from the mini-DFS — the
//! paper's pipeline "reads an input file from HDFS and generates RDDs".

use dbscan_spatial::Dataset;
use minidfs::{DfsCluster, DfsResult};
use std::io::Write;

/// Render a dataset as CSV text (one point per line, full precision).
pub fn dataset_to_csv(ds: &Dataset) -> String {
    let mut out = String::with_capacity(ds.len() * ds.dim() * 8);
    for (_, row) in ds.iter() {
        let mut first = true;
        for v in row {
            if !first {
                out.push(',');
            }
            first = false;
            // Ryu-style shortest roundtrip via Display on f64
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    }
    out
}

/// Parse one CSV row into coordinates. Returns `None` on any malformed
/// field, including the non-finite `NaN`/`inf`/`-inf` that `f64`
/// parsing accepts (callers decide whether to skip or fail).
pub fn parse_csv_row(line: &str) -> Option<Vec<f64>> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let mut row = Vec::new();
    for field in line.split(',') {
        let v = field.trim().parse::<f64>().ok()?;
        if !v.is_finite() {
            return None;
        }
        row.push(v);
    }
    Some(row)
}

/// Parse CSV text into a dataset.
///
/// # Panics
/// Panics on inconsistent row dimensionality or malformed numbers.
pub fn dataset_from_csv(text: &str) -> Dataset {
    let rows: Vec<Vec<f64>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_csv_row(l).unwrap_or_else(|| panic!("malformed CSV row: {l:?}")))
        .collect();
    if rows.is_empty() {
        Dataset::empty(1)
    } else {
        Dataset::from_rows(rows)
    }
}

/// Write a dataset as a CSV file into the DFS.
pub fn write_dataset_to_dfs(dfs: &DfsCluster, path: &str, ds: &Dataset) -> DfsResult<()> {
    let mut w = dfs.create(path)?;
    // stream through the DfsWriter so multi-block files exercise the
    // block-split path
    for (_, row) in ds.iter() {
        let mut line = String::new();
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        w.write_all(line.as_bytes()).map_err(|_| minidfs::DfsError::NoDatanodesAvailable)?;
    }
    w.close()
}

/// Read a CSV dataset back from the DFS.
pub fn read_dataset_from_dfs(dfs: &DfsCluster, path: &str) -> DfsResult<Dataset> {
    let bytes = dfs.read_file(path)?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(dataset_from_csv(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidfs::DfsConfig;

    fn small() -> Dataset {
        Dataset::from_rows(vec![vec![1.5, -2.0], vec![0.25, 1e-3], vec![123456.789, 0.0]])
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let ds = small();
        let back = dataset_from_csv(&dataset_to_csv(&ds));
        assert_eq!(ds, back);
    }

    #[test]
    fn parse_row_handles_whitespace() {
        assert_eq!(parse_csv_row(" 1.0 , 2.5 "), Some(vec![1.0, 2.5]));
        assert_eq!(parse_csv_row(""), None);
        assert_eq!(parse_csv_row("1.0,abc"), None);
        // non-finite coordinates are malformed, whatever their spelling
        assert_eq!(parse_csv_row("1.0,NaN"), None);
        assert_eq!(parse_csv_row("inf,2.0"), None);
        assert_eq!(parse_csv_row("1.0, -inf"), None);
    }

    #[test]
    fn empty_csv_gives_empty_dataset() {
        let ds = dataset_from_csv("\n\n");
        assert!(ds.is_empty());
    }

    #[test]
    fn dfs_roundtrip_multi_block() {
        let dfs = DfsCluster::new(DfsConfig { num_datanodes: 2, replication: 1, block_size: 16 })
            .unwrap();
        let ds = small();
        write_dataset_to_dfs(&dfs, "/ds.csv", &ds).unwrap();
        assert!(dfs.stat("/ds.csv").unwrap().num_blocks > 1, "exercises block splitting");
        let back = read_dataset_from_dfs(&dfs, "/ds.csv").unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_csv_panics() {
        let _ = dataset_from_csv("1.0,2.0\nbad,row\n");
    }
}
