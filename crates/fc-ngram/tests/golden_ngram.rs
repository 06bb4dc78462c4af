//! Golden pins for the Kneser–Ney substrate, by value.
//!
//! Captured from the model that answered every lookup out of hash maps
//! from an owned token vector to a heap row of counts, and evaluated
//! the smoothing terms per query. For one fixed trace set they pin the
//! count-of-counts of every order's table, the per-order discounts and
//! — as `f64::to_bits`, so bit-identical and not merely close — the
//! next-token distribution at orders 0, 1, 2, 3, 5 and 10 for histories
//! that are seen, partly seen (the longest context unseen, a suffix of
//! it seen) and unseen at every length.

use fc_ngram::{KneserNey, TransitionCounts};

const V: usize = 9;
/// The one token the traces never contain: any context holding it is
/// unseen.
const ABSENT: u16 = 8;
const ORDERS: [usize; 6] = [0, 1, 2, 3, 5, 10];

/// FNV-1a 64-bit fold; stable across platforms and runs.
fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|p| p.to_bits()).collect()
}

/// Twelve walks of 20–79 tokens over `0..ABSENT` from a fixed LCG; a
/// token repeats three times in four, so runs are long enough for
/// order-10 contexts to recur.
fn traces() -> Vec<Vec<u16>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |below: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % below
    };
    (0..12)
        .map(|_| {
            let len = 20 + next(60);
            let mut token = next(u64::from(ABSENT)) as u16;
            (0..len)
                .map(|_| {
                    if next(4) == 0 {
                        token = next(u64::from(ABSENT)) as u16;
                    }
                    token
                })
                .collect()
        })
        .collect()
}

/// The next-token distribution after `history`.
fn distribution(m: &KneserNey, history: &[u16]) -> [f64; V] {
    let mut row = [f64::NAN; V];
    m.distribution_into(history, &mut row);
    row
}

fn train(traces: &[Vec<u16>], order: usize) -> KneserNey {
    KneserNey::train(traces.iter().map(Vec::as_slice), order, V)
}

/// `tables[k]`: the raw counts at `order`, continuation counts below.
fn count_tables(traces: &[Vec<u16>], order: usize) -> Vec<TransitionCounts> {
    let top = TransitionCounts::process_traces(traces.iter().map(Vec::as_slice), order, V);
    let mut tables = vec![top];
    for _ in 0..order {
        tables.push(tables.last().unwrap().continuation_table());
    }
    tables.reverse();
    tables
}

/// The histories every order is asked about.
fn histories(traces: &[Vec<u16>]) -> Vec<Vec<u16>> {
    let t = &traces[0];
    // A context at a trace's very start has no left-extension, so the
    // continuation tables miss it: start one token in.
    let mut behind_absent = vec![ABSENT];
    behind_absent.extend_from_slice(&t[1..10]);
    vec![
        vec![],                   // no context at all
        t[3..15].to_vec(),        // seen at every order
        t[2..3].to_vec(),         // one token: seen, shorter than most orders
        vec![ABSENT, t[1], t[2]], // order 3 unseen, its order-2 suffix seen
        behind_absent,            // order 10 unseen, its order-9 suffix seen
        vec![ABSENT; 12],         // unseen at every order ≥ 1
    ]
}

#[test]
fn histories_are_seen_partly_seen_and_unseen() {
    let traces = traces();
    assert!(traces.iter().all(|t| t.len() >= 20));
    assert!(traces.iter().flatten().all(|&w| w < ABSENT));
    let h = histories(&traces);
    let tables = count_tables(&traces, 10);
    for k in 0..=10 {
        assert!(tables[k].row(&h[1][12 - k..]).is_some(), "order {k} seen");
        assert_eq!(tables[k].row(&h[5][12 - k..]).is_some(), k == 0);
    }
    let tables = count_tables(&traces, 3);
    assert!(tables[3].row(&h[3]).is_none());
    assert!(tables[2].row(&h[3][1..]).is_some());
    let tables = count_tables(&traces, 10);
    assert!(tables[10].row(&h[4]).is_none());
    assert!(tables[9].row(&h[4][1..]).is_some());
}

#[test]
fn count_of_counts_are_pinned() {
    let traces = traces();
    let got: Vec<(usize, usize)> = count_tables(&traces, 10)
        .iter()
        .map(TransitionCounts::count_of_counts)
        .collect();
    assert_eq!(got, GOLDEN_COUNT_OF_COUNTS_10, "order-10 chain");
    let got: Vec<(usize, usize)> = count_tables(&traces, 3)
        .iter()
        .map(TransitionCounts::count_of_counts)
        .collect();
    assert_eq!(got, GOLDEN_COUNT_OF_COUNTS_3, "order-3 chain");
}

#[test]
fn discounts_are_pinned() {
    let traces = traces();
    assert_eq!(
        bits(train(&traces, 3).discounts()),
        GOLDEN_DISCOUNTS_3,
        "Markov-3 discounts: {:#x?}",
        bits(train(&traces, 3).discounts())
    );
    let got: Vec<u64> = ORDERS
        .iter()
        .map(|&order| fold(bits(train(&traces, order).discounts())))
        .collect();
    assert_eq!(got, GOLDEN_DISCOUNT_FOLDS, "got {got:#x?}");
}

#[test]
fn distributions_are_pinned() {
    let traces = traces();
    let histories = histories(&traces);
    let got: Vec<Vec<u64>> = ORDERS
        .iter()
        .map(|&order| {
            let m = train(&traces, order);
            histories
                .iter()
                .map(|h| fold(bits(&distribution(&m, h))))
                .collect()
        })
        .collect();
    assert_eq!(got, GOLDEN_DISTRIBUTIONS, "got {got:#x?}");
    // One row in full, so a mismatch above can be read: Markov-3 after
    // the order-3-unseen history.
    assert_eq!(
        bits(&distribution(&train(&traces, 3), &histories[3])),
        GOLDEN_ROW_MARKOV3_PARTLY_SEEN,
        "got {:#x?}",
        bits(&distribution(&train(&traces, 3), &histories[3]))
    );
}

const GOLDEN_COUNT_OF_COUNTS_10: [(usize, usize); 11] = [
    (0, 0),
    (32, 14),
    (93, 17),
    (162, 17),
    (220, 18),
    (272, 18),
    (324, 13),
    (363, 11),
    (387, 11),
    (420, 9),
    (431, 17),
];
const GOLDEN_COUNT_OF_COUNTS_3: [(usize, usize); 4] = [(0, 0), (33, 16), (98, 22), (131, 42)];
const GOLDEN_DISCOUNTS_3: [u64; 4] = [
    0x3fe0_0000_0000_0000,
    0x3fe0_3f03_f03f_03f0,
    0x3fe6_15a2_40e6_c2b4,
    0x3fe3_7f67_9737_f679,
];
const GOLDEN_DISCOUNT_FOLDS: [u64; 6] = [
    0xaae7_e932_29e8_86a8,
    0xd982_d93d_b3a6_af5e,
    0x6576_8e32_7c48_b68f,
    0x0a99_8936_e64e_1f32,
    0xe091_857e_9022_054e,
    0x28ce_85af_a714_40bb,
];
/// `[order in ORDERS][history]`.
const GOLDEN_DISTRIBUTIONS: [[u64; 6]; 6] = [
    [
        0x391d_fc79_659b_762b,
        0x391d_fc79_659b_762b,
        0x391d_fc79_659b_762b,
        0x391d_fc79_659b_762b,
        0x391d_fc79_659b_762b,
        0x391d_fc79_659b_762b,
    ],
    [
        0x0a21_07ef_93aa_4353,
        0x2579_70fe_a08d_d787,
        0x08f1_8d1f_212c_b1a0,
        0x08f1_8d1f_212c_b1a0,
        0xbe15_9ea5_5087_1ef8,
        0x0a21_07ef_93aa_4353,
    ],
    [
        0x0a21_07ef_93aa_4353,
        0x1331_040b_92a2_c0e1,
        0x751c_a6f9_44af_ae46,
        0xf69e_6f7b_b255_fe33,
        0x2379_4407_4de4_6d01,
        0x0a21_07ef_93aa_4353,
    ],
    [
        0x0a21_07ef_93aa_4353,
        0xd90e_a21d_662c_f575,
        0x83f3_7533_33f4_2b23,
        0xd3b7_9c56_1d7e_2d14,
        0xf0a8_68ae_a598_9553,
        0x0a21_07ef_93aa_4353,
    ],
    [
        0x0a21_07ef_93aa_4353,
        0xcc4b_29c7_39cb_2be4,
        0xaaaf_6f5c_6f22_de18,
        0x47c0_5a28_e77b_f799,
        0x972a_aca2_fab3_42ff,
        0x0a21_07ef_93aa_4353,
    ],
    [
        0xaaac_1e09_7843_f24e,
        0x3e2b_7b7d_6129_a62d,
        0x2eb3_d55a_f34c_d1ee,
        0xa691_b133_2595_c1cc,
        0x9249_540e_d3f8_4529,
        0xaaac_1e09_7843_f24e,
    ],
];
const GOLDEN_ROW_MARKOV3_PARTLY_SEEN: [u64; V] = [
    0x3fae_0d78_f59d_8578,
    0x3f8c_756b_419f_dac0,
    0x3fb8_2fe2_5cf0_233d,
    0x3faf_13bf_6173_25ec,
    0x3fb8_2fe2_5cf0_233d,
    0x3faf_13bf_6173_25ec,
    0x3fe1_c65d_38e6_5217,
    0x3faf_13bf_6173_25ec,
    0x3f4d_2444_ded8_f062,
];
