//! Detection under spill pressure. The spill pool is process-global, so
//! this binary holds one test: nothing else in the process can configure,
//! read or tear down the pool while it runs.

use comet_detect::{detect, DetectorConfig, DetectorKind};
use comet_frame::{spill_configure, spill_deconfigure, spill_stats, spill_take_error};
use comet_frame::{Cell, Column, DataFrame};

const ROWS: usize = 320;
const SEG_ROWS: usize = 16;
/// Payload bytes of one 16-row numeric segment: values plus validity.
const NUM_SEGMENT_BYTES: u64 = (SEG_ROWS * 8 + SEG_ROWS) as u64;

/// Three numeric features, a categorical one and a label in 16-row
/// segments, with eight rows overwritten by 1 %-jittered copies of others
/// and a few missing cells.
fn frame() -> DataFrame {
    let numeric = |c: usize| -> Vec<f64> {
        (0..ROWS).map(|i| ((i * (31 + 6 * c) + 11 * c) % 257) as f64 + 0.5 * c as f64).collect()
    };
    let mut columns: Vec<Column> =
        (0..3).map(|c| Column::numeric(format!("x{c}"), numeric(c))).collect();
    let codes = (0..ROWS).map(|i| (i % 5) as u32).collect();
    let categories = (0..5).map(|k| format!("k{k}")).collect();
    columns.push(Column::categorical("kind", codes, categories).unwrap());
    let labels = (0..ROWS).map(|i| u32::from(i % 3 == 0)).collect();
    columns.push(Column::categorical("y", labels, vec!["no".into(), "yes".into()]).unwrap());
    let mut df = DataFrame::new(columns, Some("y")).unwrap().resegment(SEG_ROWS).unwrap();
    for k in 0..8 {
        let (src, dst) = (k * 37 % ROWS, (k * 37 + 150) % ROWS);
        for c in 0..3 {
            let v = df.get(src, c).unwrap().as_num().unwrap();
            df.set(dst, c, Cell::Num(v * 1.01)).unwrap();
        }
        df.set(dst, 3, df.get(src, 3).unwrap()).unwrap();
    }
    for row in [5, 77, 199] {
        df.set(row, 1, Cell::Missing).unwrap();
    }
    df
}

#[test]
fn detection_under_a_two_segment_pool_reads_each_segment_a_bounded_number_of_times() {
    let config = DetectorConfig::default();
    let expected = detect(&frame(), &config).unwrap();
    let duplicates = expected.flags_by(DetectorKind::NearDuplicate).count();
    assert!(duplicates >= 16 * 4, "the planted copies must be flagged, got {duplicates} cells");
    let label_flags = expected.flags_by(DetectorKind::LabelDisagreement).count();
    assert!(label_flags > 0, "the label-disagreement detector must run and flag");

    let dir = std::env::temp_dir().join(format!("comet-detect-spill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    spill_configure(&dir, 2 * NUM_SEGMENT_BYTES).unwrap();
    let df = frame();
    let segments: usize = df.columns().iter().map(Column::n_segments).sum();
    let before = spill_stats().unwrap();
    let report = detect(&df, &config);
    let after = spill_stats().unwrap();
    let error = spill_take_error();
    spill_deconfigure();
    std::fs::remove_dir_all(&dir).ok();

    assert!(before.spills > 0, "a two-segment pool must spill the frame: {before:?}");
    assert_eq!(error, None);
    assert_eq!(report.unwrap(), expected, "spilling must not change what is flagged");
    let reloads = after.reloads - before.reloads;
    assert!(
        reloads <= 8 * segments as u64,
        "{reloads} reloads for a frame of {segments} segments: some detector reads cell by cell"
    );
}
