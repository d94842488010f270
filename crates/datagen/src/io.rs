//! CSV serialization of datasets, including to/from the mini-DFS — the
//! paper's pipeline "reads an input file from HDFS and generates RDDs".

use dbscan_spatial::{Dataset, DatasetError};
use minidfs::{DfsCluster, DfsError, DfsResult};
use std::io::Write;

/// Why CSV text (or a CSV file in the DFS) is not a dataset. `line` is
/// 1-based and `text` is that line as read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A field of the line is not a finite number.
    Malformed { line: usize, text: String },
    /// The line's row does not fit the rows before it.
    Shape { line: usize, text: String, error: DatasetError },
    /// The file could not be read.
    Dfs(DfsError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Malformed { line, text } => {
                write!(f, "malformed CSV line: {text:?} (line {line})")
            }
            CsvError::Shape { line, text, error: DatasetError::RaggedRow { len, dim, .. } } => {
                write!(f, "CSV line {text:?} has {len} columns, expected {dim} (line {line})")
            }
            CsvError::Shape { line, text, error } => {
                write!(f, "CSV line {text:?}: {error} (line {line})")
            }
            CsvError::Dfs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<DfsError> for CsvError {
    fn from(e: DfsError) -> Self {
        CsvError::Dfs(e)
    }
}

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

/// Parse CSV text into a dataset; blank lines are skipped, and text
/// with no rows gives an empty 1-d dataset. Fails on the first line
/// with a malformed field, or on a row whose length differs from the
/// first row's.
pub fn dataset_from_csv(text: &str) -> Result<Dataset, CsvError> {
    let lines: Vec<(usize, &str)> =
        text.lines().zip(1..).filter(|(l, _)| !l.trim().is_empty()).map(|(l, i)| (i, l)).collect();
    let mut rows = Vec::with_capacity(lines.len());
    for &(line, text) in &lines {
        let malformed = || CsvError::Malformed { line, text: text.into() };
        rows.push(parse_csv_row(text).ok_or_else(malformed)?);
    }
    Dataset::try_from_rows(rows).or_else(|error| {
        // a parsed row is never empty, so a shape error is a ragged row
        let row = match error {
            DatasetError::NoRows => return Ok(Dataset::empty(1)),
            DatasetError::RaggedRow { row, .. } => row,
            _ => 0,
        };
        let (line, text) = lines[row];
        Err(CsvError::Shape { line, text: text.into(), error })
    })
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

/// Read a CSV dataset back from the DFS, failing as
/// [`dataset_from_csv`] does or with the DFS's error.
pub fn read_dataset_from_dfs(dfs: &DfsCluster, path: &str) -> Result<Dataset, CsvError> {
    let bytes = dfs.read_file(path)?;
    dataset_from_csv(&String::from_utf8_lossy(&bytes))
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
        let back = dataset_from_csv(&dataset_to_csv(&ds)).unwrap();
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
        let ds = dataset_from_csv("\n\n").unwrap();
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
    fn malformed_csv_is_an_error() {
        let err = dataset_from_csv("1.0,2.0\nbad,row\n").unwrap_err();
        assert_eq!(err, CsvError::Malformed { line: 2, text: "bad,row".into() });
        assert_eq!(err.to_string(), "malformed CSV line: \"bad,row\" (line 2)");
    }

    #[test]
    fn ragged_csv_is_an_error_naming_its_line() {
        // blank lines count toward the line number but not the row index
        let err = dataset_from_csv("1,2\n\n3,4\n5\n").unwrap_err();
        let error = DatasetError::RaggedRow { row: 2, len: 1, dim: 2 };
        assert_eq!(err, CsvError::Shape { line: 4, text: "5".into(), error });
        assert_eq!(err.to_string(), "CSV line \"5\" has 1 columns, expected 2 (line 4)");
    }

    #[test]
    fn dfs_read_errors_pass_through() {
        let dfs = DfsCluster::new(DfsConfig { num_datanodes: 1, replication: 1, block_size: 16 })
            .unwrap();
        let err = read_dataset_from_dfs(&dfs, "/missing.csv").unwrap_err();
        assert_eq!(err, CsvError::Dfs(DfsError::FileNotFound("/missing.csv".into())));
        let mut w = dfs.create("/ragged.csv").unwrap();
        w.write_all(b"1,2\n3\n").unwrap();
        w.close().unwrap();
        let err = read_dataset_from_dfs(&dfs, "/ragged.csv").unwrap_err();
        assert!(matches!(err, CsvError::Shape { line: 2, .. }), "{err:?}");
    }
}
