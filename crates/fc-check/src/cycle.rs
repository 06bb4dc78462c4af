//! Lock-order cycle detection over the witness edges dumped by the
//! instrumented `parking_lot` shim (`FC_LOCKGRAPH=1` test runs).
//!
//! Nodes are lock *instances* (`p<pid>#<id>`, namespaced by process so
//! merged dumps can never alias); a directed edge `A -> B` means some
//! thread acquired lock `B` while holding lock `A`. Acquisition call
//! sites (`file:line`) ride along as node labels for reporting. A
//! cycle in the merged suite-wide graph is a potential deadlock: two
//! threads interleaving those acquisition orders can each hold the
//! lock the other wants.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Directed lock-instance graph with deterministic (sorted) iteration
/// order and per-node acquisition-site labels.
#[derive(Debug, Default, Clone)]
pub struct LockGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
    labels: BTreeMap<String, BTreeSet<String>>,
}

impl LockGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `from -> to` edge (idempotent).
    pub fn add_edge(&mut self, from: &str, to: &str) {
        self.edges
            .entry(from.to_string())
            .or_default()
            .insert(to.to_string());
        self.edges.entry(to.to_string()).or_default();
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }

    /// Number of distinct sites.
    pub fn node_count(&self) -> usize {
        self.edges.len()
    }

    /// Records an acquisition site for `node` (shown when reporting).
    pub fn add_label(&mut self, node: &str, site: &str) {
        self.labels
            .entry(node.to_string())
            .or_default()
            .insert(site.to_string());
    }

    /// The sites at which `node` was seen acquired, comma-joined.
    pub fn label_of(&self, node: &str) -> String {
        match self.labels.get(node) {
            Some(sites) if !sites.is_empty() => {
                let v: Vec<&str> = sites.iter().map(String::as_str).collect();
                v.join(", ")
            }
            _ => String::from("?"),
        }
    }

    /// Ingests one dump file produced by the shim, namespacing lock
    /// ids with `ns` (e.g. `"p1234"`) so ids from different processes
    /// never alias. Lines are either the shim's four-column form
    /// `#from_id\tfrom_site\t#to_id\tto_site` or a bare `from\tto`
    /// node pair. Blank lines and `//` comments are skipped.
    pub fn ingest_tsv(&mut self, text: &str, ns: &str) {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').map(str::trim).collect();
            match cols[..] {
                [from_id, from_site, to_id, to_site] => {
                    let from = format!("{ns}{from_id}");
                    let to = format!("{ns}{to_id}");
                    self.add_edge(&from, &to);
                    self.add_label(&from, from_site);
                    self.add_label(&to, to_site);
                }
                [from, to] => self.add_edge(from, to),
                _ => {}
            }
        }
    }

    /// Merges every `lockgraph-*.tsv` under `dir`, namespacing each
    /// file's lock ids by the pid embedded in its name. Returns how
    /// many dump files were read.
    pub fn ingest_dir(&mut self, dir: &Path) -> std::io::Result<usize> {
        let mut read = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(pid) = name
                .strip_prefix("lockgraph-")
                .and_then(|r| r.strip_suffix(".tsv"))
            {
                let ns = format!("p{pid}");
                self.ingest_tsv(&std::fs::read_to_string(entry.path())?, &ns);
                read += 1;
            }
        }
        Ok(read)
    }

    /// Returns one cycle as a site path `[a, b, ..., a]`, or `None`
    /// when the graph is acyclic. Deterministic: explores sites in
    /// sorted order, so the same graph always reports the same cycle.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        // Iterative DFS with colouring; `path` carries the grey stack.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: BTreeMap<&str, Color> = self
            .edges
            .keys()
            .map(|k| (k.as_str(), Color::White))
            .collect();

        for start in self.edges.keys() {
            if color[start.as_str()] != Color::White {
                continue;
            }
            // Stack of (node, next-neighbour iterator index).
            let mut path: Vec<&str> = vec![start.as_str()];
            let mut iters: Vec<Vec<&str>> = vec![self.neighbours(start)];
            let mut cursor: Vec<usize> = vec![0];
            color.insert(start.as_str(), Color::Grey);

            while let Some(&node) = path.last() {
                let i = cursor.last_mut().unwrap();
                let neigh = &iters[iters.len() - 1];
                if *i < neigh.len() {
                    let next = neigh[*i];
                    *i += 1;
                    match color[next] {
                        Color::Grey => {
                            // Found a back edge: slice the grey path.
                            let pos = path.iter().position(|&p| p == next).unwrap();
                            let mut cycle: Vec<String> =
                                path[pos..].iter().map(|s| s.to_string()).collect();
                            cycle.push(next.to_string());
                            return Some(cycle);
                        }
                        Color::White => {
                            color.insert(next, Color::Grey);
                            path.push(next);
                            iters.push(self.neighbours(next));
                            cursor.push(0);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(node, Color::Black);
                    path.pop();
                    iters.pop();
                    cursor.pop();
                }
            }
        }
        None
    }

    fn neighbours(&self, node: &str) -> Vec<&str> {
        self.edges
            .get(node)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_reports_no_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a.rs:1", "b.rs:2");
        g.add_edge("b.rs:2", "c.rs:3");
        g.add_edge("a.rs:1", "c.rs:3");
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn two_site_inversion_is_a_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a.rs:1", "b.rs:2");
        g.add_edge("b.rs:2", "a.rs:1");
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a.rs:1", "a.rs:1");
        assert!(g.find_cycle().is_some());
    }

    #[test]
    fn tsv_roundtrip_merges_and_dedups() {
        let mut g = LockGraph::new();
        g.ingest_tsv("a\tb\n// comment\n\na\tb\n", "");
        g.ingest_tsv("b\tc\n", "");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn four_column_dumps_namespace_ids_and_carry_site_labels() {
        let mut g = LockGraph::new();
        // Process 10: #1 -> #2. Process 20: #2 -> #1. Without pid
        // namespacing these would alias into a false cycle.
        g.ingest_tsv("#1\ta.rs:10\t#2\tb.rs:20\n", "p10");
        g.ingest_tsv("#2\tb.rs:21\t#1\ta.rs:11\n", "p20");
        assert_eq!(g.find_cycle(), None);
        assert_eq!(g.label_of("p10#1"), "a.rs:10");
        // A genuine within-process inversion is a cycle.
        g.ingest_tsv("#2\tb.rs:22\t#1\ta.rs:12\n", "p10");
        let cycle = g.find_cycle().expect("inversion");
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn longer_cycle_path_starts_and_ends_at_same_site() {
        let mut g = LockGraph::new();
        g.add_edge("a:1", "b:2");
        g.add_edge("b:2", "c:3");
        g.add_edge("c:3", "a:1");
        g.add_edge("x:9", "a:1");
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert_eq!(cycle.len(), 4);
    }
}
