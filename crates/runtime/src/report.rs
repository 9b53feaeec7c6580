use std::io::Write;
use std::path::Path;

use crate::CellResult;

/// One row of an experiment output table — serializable for EXPERIMENTS.md
/// and downstream plotting. Compares by value (exact float equality —
/// records are deterministic, so "byte-identical" is the meaningful
/// comparison).
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Experiment id ("table1", "fig6", ...).
    pub experiment: String,
    /// Algorithm label — a [`commsched::Scheduler::name`] from the
    /// registry ("AC", "LP", "RS_N", "RS_NL", "GREEDY", variants...).
    pub algorithm: String,
    /// Density `d`.
    pub d: usize,
    /// Message size in bytes.
    pub msg_bytes: u32,
    /// Mean communication cost (ms).
    pub comm_ms: f64,
    /// Mean phases ("# iters"; 0 for AC).
    pub phases: f64,
    /// Mean scheduling cost under the i860 model (ms).
    pub comp_ms: f64,
    /// Samples aggregated.
    pub samples: usize,
}

impl CellRecord {
    /// Assemble a record from a measured cell.
    pub fn from_cell(
        experiment: &str,
        algorithm: &str,
        d: usize,
        msg_bytes: u32,
        cell: &CellResult,
    ) -> Self {
        CellRecord {
            experiment: experiment.to_string(),
            algorithm: algorithm.to_string(),
            d,
            msg_bytes,
            comm_ms: cell.comm_ms,
            phases: cell.phases,
            comp_ms: cell.comp_ms,
            samples: cell.samples,
        }
    }
}

/// Write records as CSV (with header).
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_csv(path: &Path, records: &[CellRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "experiment,algorithm,d,msg_bytes,comm_ms,phases,comp_ms,samples"
    )?;
    for r in records {
        writeln!(
            out,
            "{},{},{},{},{:.4},{:.2},{:.4},{}",
            r.experiment, r.algorithm, r.d, r.msg_bytes, r.comm_ms, r.phases, r.comp_ms, r.samples
        )?;
    }
    out.flush()
}

/// Write records as pretty JSON.
///
/// The workspace builds offline with no serde available, so the (flat,
/// fixed-schema) records are rendered by hand.
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_json(path: &Path, records: &[CellRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        json.push_str(&format!(
            "  {{\n    \"experiment\": \"{}\",\n    \"algorithm\": \"{}\",\n    \"d\": {},\n    \"msg_bytes\": {},\n    \"comm_ms\": {},\n    \"phases\": {},\n    \"comp_ms\": {},\n    \"samples\": {}\n  }}{comma}\n",
            escape_json(&r.experiment),
            escape_json(&r.algorithm),
            r.d,
            r.msg_bytes,
            r.comm_ms,
            r.phases,
            r.comp_ms,
            r.samples
        ));
    }
    json.push_str("]\n");
    std::fs::write(path, json)
}

/// Write a [`GridResult`] as a Markdown document: one communication-cost
/// table per topology (workload points as rows, scheduler columns as
/// columns), plus a matrix-reuse footer.
///
/// # Errors
///
/// I/O errors from the filesystem.
///
/// [`GridResult`]: crate::grid::GridResult
pub fn write_grid_markdown(
    path: &Path,
    title: &str,
    grid: &crate::grid::GridResult,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut md = format!("# {title}\n\n");
    let _ = writeln!(
        md,
        "Mean communication cost (ms) over {} sample(s) per cell.\n",
        grid.samples()
    );
    for (ti, topo) in grid.topologies().iter().enumerate() {
        let _ = writeln!(md, "## {topo}\n");
        let mut header = String::from("| d | M (bytes) |");
        let mut rule = String::from("|---|---|");
        for c in grid.columns() {
            let _ = write!(header, " {} |", c.label());
            rule.push_str("---|");
        }
        md.push_str(&header);
        md.push('\n');
        md.push_str(&rule);
        md.push('\n');
        for (pi, p) in grid.points().iter().enumerate() {
            let _ = write!(md, "| {} | {} |", p.d(), p.msg_bytes());
            for ci in 0..grid.columns().len() {
                match grid.cell(crate::grid::CellId {
                    col: ci,
                    point: pi,
                    topo: ti,
                }) {
                    Some(cell) => {
                        let _ = write!(md, " {:.2} |", cell.result.comm_ms);
                    }
                    None => md.push_str(" — |"),
                }
            }
            md.push('\n');
        }
        md.push('\n');
    }
    let stats = grid.stats();
    let _ = writeln!(
        md,
        "_{} cells, {} tasks; {} of {} matrix requests served by reuse._",
        stats.cells,
        stats.tasks,
        stats.matrices_reused(),
        stats.matrix_requests
    );
    std::fs::write(path, md)
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        CellRecord {
            experiment: "table1".into(),
            algorithm: "RS_NL".into(),
            d: 8,
            msg_bytes: 1024,
            comm_ms: 13.16,
            phases: 11.92,
            comp_ms: 13.56,
            samples: 50,
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_csv");
        let path = dir.join("out.csv");
        write_csv(&path, &[record()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("experiment,algorithm"));
        let row = lines.next().unwrap();
        assert!(row.contains("RS_NL"));
        assert!(row.contains("1024"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write `records` as JSON and return the file's text.
    fn json_text(tag: &str, records: &[CellRecord]) -> String {
        let dir = std::env::temp_dir().join(format!("ipsc_sched_test_{tag}"));
        let path = dir.join("out.json");
        write_json(&path, records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    }

    #[test]
    fn json_roundtrip() {
        // The text is pinned whole, so every field reads back as written.
        assert_eq!(
            json_text("json", &[record()]),
            "[\n  {\n    \"experiment\": \"table1\",\n    \"algorithm\": \"RS_NL\",\n    \
             \"d\": 8,\n    \"msg_bytes\": 1024,\n    \"comm_ms\": 13.16,\n    \
             \"phases\": 11.92,\n    \"comp_ms\": 13.56,\n    \"samples\": 50\n  }\n]\n"
        );
    }

    #[test]
    fn json_roundtrip_escapes_quotes_and_newlines() {
        let mut rec = record();
        rec.experiment = "line1\nline2".into();
        rec.algorithm = "with \"quote\" and tail\"".into();
        let text = json_text("json_esc", &[rec]);
        assert!(text.contains(r#""experiment": "line1\nline2","#), "{text}");
        assert!(
            text.contains(r#""algorithm": "with \"quote\" and tail\"","#),
            "{text}"
        );
    }

    #[test]
    fn grid_writers_emit_axes_cells_and_reuse() {
        use crate::grid::{ExperimentGrid, WorkloadPoint};
        use hypercube::Hypercube;
        use workloads::Generator;
        let grid = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(commsched::registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 512),
                3,
                512,
                21,
            ))
            .samples(2)
            .execute()
            .unwrap();
        let dir = std::env::temp_dir().join("ipsc_sched_test_grid_report");
        let mpath = dir.join("grid.md");
        write_grid_markdown(&mpath, "Unit grid", &grid).unwrap();
        let md = std::fs::read_to_string(&mpath).unwrap();
        assert!(md.starts_with("# Unit grid"));
        assert!(md.contains("| RS_NL |") || md.contains(" RS_NL |"));
        assert!(md.contains("hypercube(4)"));
        assert!(md.contains("matrix requests served by reuse"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_record_list_roundtrips() {
        assert_eq!(json_text("json_empty", &[]), "[\n]\n");
    }
}
