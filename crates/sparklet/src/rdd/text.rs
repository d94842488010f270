//! Reading text files from the mini-DFS, one partition per block, with
//! Hadoop's line-split semantics: a line belongs to the block where it
//! *starts*; a reader whose block begins mid-line skips to the first
//! newline, and a reader whose block ends mid-line continues into the
//! following blocks to finish the line.

use super::{AnyRdd, Parent, RddNode};
use crate::task::TaskError;
use minidfs::{BlockInfo, DfsCluster, DfsError};
use std::sync::Arc;

/// RDD of the lines of a DFS file.
pub(crate) struct TextFileRdd {
    pub id: usize,
    pub dfs: Arc<DfsCluster>,
    pub path: String,
    pub blocks: Vec<BlockInfo>,
}

impl TextFileRdd {
    pub(crate) fn open(id: usize, dfs: Arc<DfsCluster>, path: &str) -> Result<Self, DfsError> {
        let blocks = dfs.namenode().blocks(path)?;
        Ok(TextFileRdd { id, dfs, path: path.to_string(), blocks })
    }

    fn read(&self, part: usize) -> Result<Arc<Vec<u8>>, TaskError> {
        // DFS failures (notably replica exhaustion) are storage-kind
        // task errors, surfaced typed once the retry budget is spent
        self.dfs
            .read_block(&self.path, &self.blocks[part])
            .map_err(|e| TaskError::storage(e.to_string()))
    }
}

impl AnyRdd for TextFileRdd {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.blocks.len().max(1)
    }

    fn parents(&self) -> Vec<Parent> {
        Vec::new()
    }
}

impl RddNode for TextFileRdd {
    type Item = String;

    fn compute(&self, part: usize) -> Result<Vec<String>, TaskError> {
        if self.blocks.is_empty() {
            return Ok(Vec::new());
        }
        let data = self.read(part)?;
        let mut start = 0usize;
        if part > 0 {
            // does the first line of this block start here, or is it the
            // tail of a line owned by the previous block?
            let prev = self.read(part - 1)?;
            let prev_ends_line = prev.last() == Some(&b'\n');
            if !prev_ends_line {
                match data.iter().position(|&b| b == b'\n') {
                    Some(i) => start = i + 1,
                    // the whole block is the middle of one long line
                    None => return Ok(Vec::new()),
                }
            }
        }
        let mut buf: Vec<u8> = data[start..].to_vec();
        if data.last() != Some(&b'\n') {
            // finish the trailing line from following blocks
            for next in part + 1..self.blocks.len() {
                let nd = self.read(next)?;
                match nd.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        buf.extend_from_slice(&nd[..=i]);
                        break;
                    }
                    None => buf.extend_from_slice(&nd),
                }
            }
        }
        let text = String::from_utf8(buf).map_err(|e| format!("invalid utf-8: {e}"))?;
        Ok(text.lines().map(|l| l.to_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidfs::{DfsCluster, DfsConfig};

    fn dfs(block_size: usize) -> Arc<DfsCluster> {
        Arc::new(
            DfsCluster::new(DfsConfig { num_datanodes: 2, replication: 1, block_size }).unwrap(),
        )
    }

    fn lines_of(rdd: &TextFileRdd) -> Vec<String> {
        (0..rdd.num_partitions()).flat_map(|p| rdd.compute(p).unwrap()).collect()
    }

    #[test]
    fn every_line_exactly_once_across_block_sizes() {
        let content = "alpha\nbe\nceee\ndddddddddddd\ne\n";
        let expect: Vec<String> = content.lines().map(String::from).collect();
        for bs in 1..=content.len() + 2 {
            let d = dfs(bs);
            d.write_file("/t", content.as_bytes()).unwrap();
            let rdd = TextFileRdd::open(0, d, "/t").unwrap();
            assert_eq!(lines_of(&rdd), expect, "block size {bs}");
        }
    }

    #[test]
    fn missing_trailing_newline_keeps_last_line() {
        let d = dfs(4);
        d.write_file("/t", b"ab\ncdef").unwrap();
        let rdd = TextFileRdd::open(0, d, "/t").unwrap();
        assert_eq!(lines_of(&rdd), vec!["ab", "cdef"]);
    }

    #[test]
    fn line_longer_than_block_handled_once() {
        let d = dfs(3);
        d.write_file("/t", b"abcdefghij\nk\n").unwrap();
        let rdd = TextFileRdd::open(0, d, "/t").unwrap();
        assert_eq!(lines_of(&rdd), vec!["abcdefghij", "k"]);
    }

    #[test]
    fn empty_file_no_lines() {
        let d = dfs(8);
        d.write_file("/t", b"").unwrap();
        let rdd = TextFileRdd::open(0, d, "/t").unwrap();
        assert_eq!(rdd.num_partitions(), 1);
        assert!(lines_of(&rdd).is_empty());
    }

    #[test]
    fn missing_file_is_error() {
        let d = dfs(8);
        assert!(TextFileRdd::open(0, d, "/missing").is_err());
    }
}
