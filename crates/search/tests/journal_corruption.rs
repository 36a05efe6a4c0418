//! Robustness of the resume path against corrupt journals: an adaptive
//! search reloads its journal every round, so `journal::load` must answer
//! any damaged file — torn, bit-flipped, or with fields spliced between
//! lines — with `Ok` or a typed `AcicError::{Journal, Io}`, never a panic,
//! and a search resumed from whatever loads must not panic either.

use acic::journal::{self, CampaignId};
use acic::space::SpacePoint;
use acic::{AcicError, Objective, RetryPolicy, Trainer};
use acic_fsim::FaultPlan;
use acic_search::{run_search, Budget, SearchConfig, Strategy};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn trainer() -> Trainer {
    // Heavy aborts with a single retry, so the journal holds both `ok` and
    // `skip` entries.
    Trainer::with_paper_ranking(20131117)
        .with_faults(FaultPlan { phase_fail_prob: 0.05, retry_penalty_secs: 35.0, abort_prob: 0.5 })
        .with_retry(RetryPolicy { max_retries: 1, ..RetryPolicy::DEFAULT })
}

fn config(journal: &Path) -> SearchConfig<'_> {
    SearchConfig {
        journal: Some(journal),
        ..SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(24).with_batch(4),
            Objective::Performance,
        )
    }
}

/// The grid, its campaign identity and the bytes of a real search journal
/// over it (written once per test binary).
fn campaign() -> &'static (Vec<SpacePoint>, CampaignId, Vec<u8>) {
    static CAMPAIGN: OnceLock<(Vec<SpacePoint>, CampaignId, Vec<u8>)> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let t = trainer();
        let points = t.sample_points(4);
        let path = tmp("corrupt-source.journal");
        let _ = fs::remove_file(&path);
        run_search(&t, &points, &config(&path)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.contains("\nok\t") && text.contains("\nskip\t"), "{text}");
        let id = t.campaign_id(&points);
        (points, id, bytes)
    })
}

/// Apply one damage of `kind` to `bytes`, driven by the words in `r`.
fn damage(bytes: &[u8], kind: usize, r: &[u64]) -> Vec<u8> {
    let pick = |w: u64, n: usize| (w % n.max(1) as u64) as usize;
    match kind {
        // Truncation anywhere, header included.
        0 => bytes[..pick(r[0], bytes.len() + 1)].to_vec(),
        // A few byte flips, some inside ASCII, some leaving invalid UTF-8.
        1 => {
            let mut out = bytes.to_vec();
            for w in &r[..1 + pick(r[0], 3)] {
                let at = pick(*w, out.len());
                let high = if w >> 63 == 0 { 0x7f } else { 0xff };
                out[at] ^= ((w >> 32) as u8 & high) | 1;
            }
            out
        }
        // Tab/field splices: one line's field moved, dropped, duplicated or
        // replaced by a field of another line.
        _ => {
            let text = String::from_utf8(bytes.to_vec()).unwrap();
            let mut lines: Vec<Vec<String>> =
                text.lines().map(|l| l.split('\t').map(str::to_string).collect()).collect();
            let (a, b) = (pick(r[0], lines.len()), pick(r[1], lines.len()));
            let fa = pick(r[2], lines[a].len());
            let fb = pick(r[3], lines[b].len());
            let donor = lines[b][fb].clone();
            match pick(r[4], 4) {
                0 => {
                    lines[a].remove(fa);
                }
                1 => lines[a].insert(fa, donor),
                2 => lines[a][fa] = donor,
                _ => {
                    // Weld two lines together (a lost newline).
                    if a + 1 < lines.len() {
                        let next = lines.remove(a + 1);
                        lines[a].extend(next);
                    }
                }
            }
            let mut out: String = lines.iter().map(|f| f.join("\t")).collect::<Vec<_>>().join("\n");
            if r[5] >> 62 != 0 {
                out.push('\n');
            }
            out.into_bytes()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn corrupt_journals_load_or_fail_typed(
        kind in 0usize..3,
        r in prop::collection::vec(0u64..u64::MAX, 6),
        case in 0u64..u64::MAX,
    ) {
        let (points, id, bytes) = campaign();
        let damaged = damage(bytes, kind, &r);
        let path = tmp(&format!("corrupt-{case:016x}.journal"));
        fs::write(&path, &damaged).unwrap();
        match journal::load(&path, id) {
            Ok(state) => {
                prop_assert!(state.valid_bytes + state.torn_bytes <= damaged.len() as u64);
                prop_assert!(state.entries.keys().all(|&i| i < points.len()));
                // Whatever loads, a search resumed from it ends in a plan or
                // a typed error.
                let _ = run_search(&trainer(), points, &config(&path));
            }
            Err(AcicError::Journal { .. } | AcicError::Io { .. }) => {}
            Err(other) => prop_assert!(false, "untyped journal failure: {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
