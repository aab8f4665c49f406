//! The counted half of the barometer, at tier 1: every lane runs twice at
//! a small size, its counters must repeat, and the counted lanes' table
//! must equal the checked-in `counted.tsv`, which the same renderer
//! wrote. A change that moves a counter replaces the file with the table
//! this test prints and says which rows moved and why.

use std::collections::HashSet;

use dmx_bench::{render, run, LANES};

/// The divisor of every lane's full size here.
const SMALL: usize = 50;

fn counted() -> String {
    let rows: Vec<_> = LANES.iter().map(|l| run(l, SMALL)).collect();
    render(
        &rows
            .into_iter()
            .filter(|r| r.lane.counted)
            .collect::<Vec<_>>(),
        false,
    )
}

#[test]
fn every_lane_repeats_its_counters_and_matches_counted_tsv() {
    let (first, second) = (counted(), counted());
    assert_eq!(first, second, "a second run moved a counter");
    let checked_in = include_str!("../counted.tsv");
    let moved = first.lines().zip(checked_in.lines()).find(|(a, b)| a != b);
    assert!(
        first == checked_in,
        "counted.tsv differs ({moved:?}); if meant, it becomes:\n{first}"
    );
}

/// Lane names are unique and start with their claim, and every claim has
/// its `## E<n>` section in EXPERIMENTS.md.
#[test]
fn lanes_are_named_once_under_a_documented_claim() {
    let experiments = include_str!("../../../EXPERIMENTS.md");
    let mut names = HashSet::new();
    for lane in LANES {
        assert!(names.insert(lane.name), "two lanes named {}", lane.name);
        assert!(
            lane.name.starts_with(&format!("e{}/", lane.claim)),
            "{}",
            lane.name
        );
        let heading = format!("## E{} ", lane.claim);
        assert!(
            experiments.lines().any(|l| l.starts_with(&heading)),
            "no `{heading}` section"
        );
    }
}
